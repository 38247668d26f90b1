// Command bottlerack serves a bottle-rack rendezvous broker over TCP: it
// accepts marshalled sealed-bottle request packages, serves residue-prefilter
// sweeps, and routes replies back to initiators. Run cmd/loadgen against it
// to measure throughput.
//
// The server speaks the multiplexed wire framing, so pipelined couriers
// sustain many in-flight requests per connection. With -tag, issued request
// IDs carry a "tag@" prefix naming the rack that issued them; the
// client-side Ring routes by the untagged ID and ignores it. With -data-dir
// set the rack is durable: every acknowledged mutation is written to a
// write-ahead log (fsync policy per -fsync), snapshots bound replay time
// (periodic via -snapshot-every, and one final snapshot on SIGINT/SIGTERM),
// and a restart recovers every persisted bottle. It shuts down gracefully on signals
// (closing the listener and every connection, then logging a final stats
// snapshot) and logs operational stats — including recovery and WAL size
// counters — periodically.
//
// With -replicate the rack joins a replicated deployment: it accepts the
// replication opcodes (hint queueing, rack-to-rack handoff, runtime peer
// administration) and streams queued hints to returning peers in the
// background. -self names this rack in hint destinations, -peers seeds the
// name→address table (amendable at runtime through the admin opcode), and
// -hint-interval/-hint-max tune the handoff streamer. Rings submitting at
// R>1 need every rack started with -replicate; see docs/PROTOCOL.md §2.10.
//
// The transport can be secured end to end. -tls-cert/-tls-key serve every
// connection over TLS (the framing magic is read inside the encrypted
// stream), and -tls-client-ca additionally demands client certificates from
// that CA (mutual TLS). -auth-key (a hex key from `sealedbottle keygen`)
// requires every client to present a capability token minted under it
// (`sealedbottle token`): connections are pinned to the token's identity,
// bottles remember their submitter, and fetch/remove of another identity's
// bottle answers ErrUnauthorized. -quota-rate/-quota-burst add per-identity
// admission: calls over the bucket answer ErrOverload — typed backpressure
// rings treat as a broker answer, never a rack fault. In replicated TLS
// deployments the racks share one CA (-tls-client-ca); each rack dials its
// peers with its own certificate and a self-minted replica-scope token.
//
// With -ops-addr the rack serves an operational HTTP endpoint: /metrics in
// Prometheus text format (per-opcode latency histograms, rack counters,
// replication and admission gauges), /healthz, /readyz (503 until the WAL
// replay finished and the listener is up, and again while draining) and
// /debug/pprof. The rack control plane — drain mode, snapshot-now, admission
// quota reload — is driven over the authenticated wire protocol itself
// (`sealedbottle admin`); on secured racks it requires the "admin" token
// scope, which the rack's own peer token carries. SIGINT/SIGTERM first enter
// drain mode (new submits answer a typed ErrDraining that rings reroute to
// replicas; sweeps, replies and replica traffic keep serving) for
// -drain-grace, then close, snapshot and exit — so rolling restarts lose no
// acked writes.
//
// Usage:
//
//	bottlerack [-addr :7117] [-tag r1] [-shards 32] [-reap 5s] [-stats 10s]
//	           [-read-idle 10m] [-write-timeout 1m] [-inflight 64]
//	           [-ops-addr :9117] [-drain-grace 3s]
//	           [-data-dir DIR] [-fsync interval] [-fsync-interval 100ms]
//	           [-snapshot-every 5m] [-wal-segment 67108864]
//	           [-replicate] [-self NAME] [-peers name=addr,...]
//	           [-hint-interval 2s] [-hint-max 8192]
//	           [-tls-cert CERT.pem -tls-key KEY.pem] [-tls-client-ca CA.pem]
//	           [-auth-key HEX] [-quota-rate N] [-quota-burst M]
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sealedbottle"
	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/obs"
)

func main() {
	addr := flag.String("addr", ":7117", "TCP listen address")
	tag := flag.String("tag", "", "rack tag prefixed to issued request IDs (\"tag@id\"), naming this rack as their issuer")
	shards := flag.Int("shards", 32, "shard count (rounded up to a power of two)")
	reap := flag.Duration("reap", sealedbottle.DefaultReapInterval, "background reaper interval")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats logging interval (0: disabled)")
	readIdle := flag.Duration("read-idle", 10*time.Minute, "drop connections idle longer than this (0: never)")
	writeTimeout := flag.Duration("write-timeout", time.Minute, "per-response write deadline (0: none)")
	inflight := flag.Int("inflight", sealedbottle.DefaultMaxInflight, "max concurrent requests per multiplexed connection")
	opsAddr := flag.String("ops-addr", "", "HTTP address for /metrics, /healthz, /readyz and /debug/pprof (empty: no ops endpoint)")
	drainGrace := flag.Duration("drain-grace", 3*time.Second, "drain period on SIGINT/SIGTERM before the listener closes: new submits answer ErrDraining (rings reroute them) while in-flight work completes")
	dataDir := flag.String("data-dir", "", "durability directory for the write-ahead log and snapshots (empty: in-memory only)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", wal.DefaultInterval, "fsync period for -fsync interval")
	snapshotEvery := flag.Duration("snapshot-every", 5*time.Minute, "periodic snapshot+compaction interval (0: only on shutdown)")
	walSegment := flag.Int64("wal-segment", wal.DefaultSegmentBytes, "WAL segment roll threshold in bytes")
	replicate := flag.Bool("replicate", false, "serve the replication opcodes (hinted handoff, peer admin) for R>1 rings")
	self := flag.String("self", "", "this rack's name in hint destinations (empty: only address-form destinations resolve to self)")
	peersFlag := flag.String("peers", "", "comma-separated name=addr seed peer table for handoff streaming (amendable at runtime)")
	hintInterval := flag.Duration("hint-interval", sealedbottle.DefaultStreamInterval, "handoff streaming period for queued hints")
	hintMax := flag.Int("hint-max", sealedbottle.DefaultMaxHintsPerDest, "per-destination hint queue bound")
	tlsCert := flag.String("tls-cert", "", "PEM server certificate; serves every connection over TLS")
	tlsKey := flag.String("tls-key", "", "PEM private key for -tls-cert")
	tlsClientCA := flag.String("tls-client-ca", "", "PEM CA bundle; require client certificates from it (mutual TLS). In replicated clusters this is the shared cluster CA used to verify peers too")
	authKey := flag.String("auth-key", "", "hex token-signing key (sealedbottle keygen); require capability tokens minted under it")
	quotaRate := flag.Float64("quota-rate", 0, "per-identity admission quota in operations/second (0: unlimited)")
	quotaBurst := flag.Int("quota-burst", 0, "per-identity admission burst (0: derived from -quota-rate)")
	flag.Parse()

	if !*replicate {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "self", "peers", "hint-interval", "hint-max":
				log.Fatalf("bottlerack: -%s requires -replicate (without it the rack rejects replication opcodes)", f.Name)
			}
		})
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tls-key", "tls-client-ca":
			if *tlsCert == "" {
				log.Fatalf("bottlerack: -%s requires -tls-cert", f.Name)
			}
		case "auth-key":
			// Tokens are bearer credentials: over plaintext TCP anyone on the
			// path could replay them, so the CLI refuses to hand them out
			// unencrypted (in-process embedders may still choose to).
			if *tlsCert == "" {
				log.Fatalf("bottlerack: -auth-key requires -tls-cert (capability tokens must not cross the wire unencrypted)")
			}
		case "quota-rate", "quota-burst":
			if *authKey == "" {
				log.Fatalf("bottlerack: -%s requires -auth-key (admission buckets key on verified identities)", f.Name)
			}
		}
	})
	if *tlsCert != "" && *tlsKey == "" {
		log.Fatal("bottlerack: -tls-cert requires -tls-key")
	}
	if *replicate && *tlsCert != "" && *tlsClientCA == "" {
		log.Fatal("bottlerack: replicated TLS deployments need -tls-client-ca (the shared cluster CA peers are verified against)")
	}
	sec, err := loadSecurity(*tlsCert, *tlsKey, *tlsClientCA, *authKey, *self)
	if err != nil {
		log.Fatalf("bottlerack: %v", err)
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("bottlerack: %v", err)
	}

	cfg := sealedbottle.RackConfig{Shards: *shards, ReapInterval: *reap, RackTag: *tag}
	if *dataDir == "" {
		// Durability flags without a data directory would silently run an
		// in-memory broker the operator believes is persistent.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fsync", "fsync-interval", "snapshot-every", "wal-segment":
				log.Fatalf("bottlerack: -%s requires -data-dir (without it the rack is in-memory and nothing is persisted)", f.Name)
			}
		})
	}
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsync)
		if err != nil {
			log.Fatalf("bottlerack: %v", err)
		}
		cfg.Durability = &sealedbottle.DurabilityConfig{
			Dir:           *dataDir,
			Fsync:         policy,
			FsyncInterval: *fsyncInterval,
			SegmentBytes:  *walSegment,
			SnapshotEvery: *snapshotEvery,
		}
	}
	rack, err := sealedbottle.OpenRack(cfg)
	if err != nil {
		log.Fatalf("bottlerack: open rack: %v", err)
	}
	// With replication on, the node owns the rack: closing it stops the
	// handoff streamer first, then the rack.
	var node *sealedbottle.ReplicaNode
	closeRack := rack.Close
	if *replicate {
		node = sealedbottle.WrapReplica(rack, sealedbottle.ReplicaConfig{
			Self:            *self,
			Peers:           peers,
			MaxHintsPerDest: *hintMax,
			StreamInterval:  *hintInterval,
			Token:           sec.rackToken,
			TLS:             sec.peerTLS,
		})
		closeRack = node.Close
	}
	defer func() {
		if err := closeRack(); err != nil {
			log.Printf("bottlerack: close rack: %v", err)
		}
	}()
	ctx := context.Background()
	if *dataDir != "" {
		st, _ := rack.Stats(ctx)
		log.Printf("bottlerack: durability on (%s, fsync=%s): recovered %d bottles, wal %d bytes",
			*dataDir, *fsync, st.Recovered, st.WALBytes)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("bottlerack: listen %s: %v", *addr, err)
	}
	tagNote := ""
	if *tag != "" {
		tagNote = fmt.Sprintf(", tag %q", *tag)
	}
	startStats, _ := rack.Stats(ctx)
	log.Printf("bottlerack: listening on %s (%d shards, read-idle %v, write-timeout %v%s)",
		l.Addr(), startStats.Shards, *readIdle, *writeTimeout, tagNote)

	quota := sealedbottle.NewAdmission(*quotaRate, *quotaBurst)
	srvOpts := sealedbottle.ServerOptions{
		ReadIdleTimeout: *readIdle,
		WriteTimeout:    *writeTimeout,
		MaxInflight:     *inflight,
		TLS:             sec.serverTLS,
		AuthKey:         sec.authKey,
		Quota:           quota,
	}
	var reg *sealedbottle.ObsRegistry
	if *opsAddr != "" {
		reg = sealedbottle.NewObsRegistry()
		srvOpts.Metrics = sealedbottle.NewServerMetrics(reg)
	}
	if sec.serverTLS != nil {
		mode := "TLS"
		if sec.serverTLS.ClientCAs != nil {
			mode = "mutual TLS"
		}
		authNote := ""
		if len(sec.authKey) > 0 {
			authNote = ", capability tokens required"
		}
		if *quotaRate > 0 {
			authNote += fmt.Sprintf(", quota %.4g ops/s per identity", *quotaRate)
		}
		log.Printf("bottlerack: %s on%s", mode, authNote)
	}
	if node != nil {
		srvOpts.Replica = node
		log.Printf("bottlerack: replication on (self %q, %d seed peers, hint interval %v, hint bound %d)",
			*self, len(peers), *hintInterval, *hintMax)
	}
	srv := sealedbottle.NewServer(rack, srvOpts)
	var serving atomic.Bool
	if reg != nil {
		// Rack, replication and admission state are scrape-time collectors:
		// one Stats snapshot per scrape, no double bookkeeping next to the
		// rack's own counters.
		reg.RegisterFunc(func(e *obs.Emitter) {
			if st, err := rack.Stats(ctx); err == nil {
				broker.CollectStats(e, st)
			}
			broker.CollectAdmission(e, quota)
			d := 0.0
			if srv.Draining() {
				d = 1
			}
			e.Gauge("sealedbottle_draining", "1 while the rack refuses new submits.", d)
			if node != nil {
				e.Gauge("sealedbottle_handoff_pending",
					"Handoff records queued for unreachable peers.", float64(node.Pending()))
			}
		})
		ready := func() error {
			if !serving.Load() {
				return errors.New("starting: listener not yet serving")
			}
			if srv.Draining() {
				return errors.New("draining")
			}
			return nil
		}
		opsL, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			log.Fatalf("bottlerack: ops listen %s: %v", *opsAddr, err)
		}
		defer opsL.Close()
		opsSrv := &http.Server{Handler: sealedbottle.NewOpsMux(reg, ready)}
		go func() {
			if err := opsSrv.Serve(opsL); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
				log.Printf("bottlerack: ops serve: %v", err)
			}
		}()
		log.Printf("bottlerack: ops endpoint on %s (/metrics /healthz /readyz /debug/pprof)", opsL.Addr())
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l); serving.Store(false) }()
	serving.Store(true)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	for {
		select {
		case <-tick:
			st, _ := rack.Stats(ctx)
			log.Print(statsLine(st) + replicaSuffix(node))
		case s := <-sig:
			// Drain first: new submits answer ErrDraining — a definitive,
			// typed refusal rings reroute to surviving replicas — while
			// in-flight calls, sweeps and replica handoff finish. Only then
			// does the listener close, so a rolling restart loses no acked
			// writes. A second signal skips the grace period.
			if *drainGrace > 0 {
				srv.Drain(true)
				log.Printf("bottlerack: %v, draining for %v (submits refused, reads and replica traffic serving)", s, *drainGrace)
				select {
				case <-time.After(*drainGrace):
				case s2 := <-sig:
					log.Printf("bottlerack: %v, skipping drain grace", s2)
				}
			}
			log.Printf("bottlerack: %v, shutting down", s)
			l.Close()
			srv.Close()
			<-done
			if *dataDir != "" {
				// A final snapshot makes the next start a pure snapshot load
				// with no tail to replay, and compacts the log while at it.
				if err := rack.Snapshot(); err != nil {
					log.Printf("bottlerack: shutdown snapshot: %v", err)
				} else if st, err := rack.Stats(ctx); err == nil {
					log.Printf("bottlerack: shutdown snapshot written (wal %d bytes)", st.WALBytes)
				}
			}
			st, _ := rack.Stats(ctx)
			log.Print(statsLine(st) + replicaSuffix(node))
			return
		case err := <-done:
			if err != nil {
				log.Fatalf("bottlerack: serve: %v", err)
			}
			return
		}
	}
}

// security is the rack's loaded transport-security material.
type security struct {
	serverTLS *tls.Config // accepted connections (nil: plaintext)
	peerTLS   *tls.Config // replica peer dialing (nil: plaintext)
	authKey   []byte      // token verification key (nil: open server)
	rackToken []byte      // this rack's replica-scope token for peer dialing
}

// loadSecurity reads the TLS and token flag material. The replica dialer
// reuses the rack's own certificate as its client certificate and the client
// CA as the root it verifies peers against — in a cluster all racks share one
// CA, so one leaf per rack secures both directions.
func loadSecurity(certFile, keyFile, clientCAFile, authKeyHex, self string) (security, error) {
	var sec security
	if certFile != "" {
		certPEM, err := os.ReadFile(certFile)
		if err != nil {
			return sec, err
		}
		keyPEM, err := os.ReadFile(keyFile)
		if err != nil {
			return sec, err
		}
		var caPEM []byte
		if clientCAFile != "" {
			if caPEM, err = os.ReadFile(clientCAFile); err != nil {
				return sec, err
			}
		}
		if sec.serverTLS, err = auth.ServerTLS(certPEM, keyPEM, caPEM); err != nil {
			return sec, err
		}
		if caPEM != nil {
			if sec.peerTLS, err = auth.ClientTLS(caPEM, certPEM, keyPEM); err != nil {
				return sec, err
			}
		}
	}
	if authKeyHex != "" {
		key, err := sealedbottle.ParseAuthKey(authKeyHex)
		if err != nil {
			return sec, err
		}
		sec.authKey = key
		// The rack's own identity for dialing peers: replica plus admin scope
		// — peer-to-peer handoff and the operator control plane (drain,
		// snapshot, quota reload) ride the same credential — but never client
		// scope, so a leaked rack token cannot impersonate a client.
		tok, err := sealedbottle.MintToken(key, sealedbottle.AuthToken{
			Identity: "rack:" + self,
			Ops:      auth.OpReplica | auth.OpAdmin,
		})
		if err != nil {
			return sec, err
		}
		sec.rackToken = tok
	}
	return sec, nil
}

// parsePeers parses a "name=addr,name=addr" seed peer table.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(pair, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("-peers entry %q is not name=addr", pair)
		}
		peers[name] = addr
	}
	return peers, nil
}

// replicaSuffix renders the replica node's hint counters for the stats line;
// empty without replication.
func replicaSuffix(node *sealedbottle.ReplicaNode) string {
	if node == nil {
		return ""
	}
	rs := node.ReplicaStats()
	return fmt.Sprintf(" hints q/s/drop=%d/%d/%d handoff=%d pending=%d",
		rs.HintsQueued, rs.HintsStreamed, rs.HintsDropped, rs.HandoffApplied, node.Pending())
}

// statsLine renders a one-line operational summary of a stats snapshot.
func statsLine(st sealedbottle.Stats) string {
	return fmt.Sprintf(
		"bottlerack: held=%d submitted=%d dup=%d expired=%d sweeps=%d scanned=%d prefilter-reject=%.1f%% match=%.1f%% replies in/out/dropped=%d/%d/%d recovered=%d wal=%dB primes=%v",
		st.Held, st.Totals.Submitted, st.Totals.Duplicates, st.Totals.Expired,
		st.Totals.Sweeps, st.Totals.Scanned,
		100*st.PrefilterRejectRate(), 100*st.MatchRate(),
		st.Totals.RepliesIn, st.Totals.RepliesOut, st.Totals.RepliesDropped,
		st.Recovered, st.WALBytes,
		st.Primes)
}
