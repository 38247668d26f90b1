package main

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sealedbottle"
	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker/wal"
	internalclient "sealedbottle/internal/client"
	"sealedbottle/internal/core"
	"sealedbottle/internal/crypt"
)

// topology is the deployment a workload runs against.
type topology struct {
	racks       int
	replication int
	// secured puts TLS, a capability token and per-identity admission
	// between the clients and the rack.
	secured bool
}

// credentials is the identity material of a secured deployment. It is minted
// once per run: issuing certificates is an operator's step, not part of a
// rack's start-up.
type credentials struct {
	key, token             []byte
	caPEM, certPEM, keyPEM []byte
}

func newCredentials() (*credentials, error) {
	now := time.Now()
	ca, err := auth.NewCA("friendbench", now)
	if err != nil {
		return nil, err
	}
	certPEM, keyPEM, err := ca.Issue("rack", []string{"127.0.0.1"}, now)
	if err != nil {
		return nil, err
	}
	key, err := sealedbottle.NewAuthKey()
	if err != nil {
		return nil, err
	}
	token, err := sealedbottle.MintToken(key, sealedbottle.AuthToken{Identity: "clients", Ops: sealedbottle.AuthOpsClient})
	if err != nil {
		return nil, err
	}
	return &credentials{key: key, token: token, caPEM: ca.CertPEM, certPEM: certPEM, keyPEM: keyPEM}, nil
}

// admissionRate is a quota no closed loop of two clients reaches, so the
// admission controller runs on every call and never sheds one.
const admissionRate = 1e7

// countingConn counts the bytes a client reads and writes on its socket. It
// sits in the courier's Dialer, below TLS, so the counts are wire bytes.
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// rackProc is one rack as a bottlerack process would run it: a durable rack
// behind a framed server on a loopback TCP listener.
type rackProc struct {
	name     string
	dir      string
	cfg      sealedbottle.RackConfig
	rack     *sealedbottle.Rack
	node     *sealedbottle.ReplicaNode
	server   *sealedbottle.Server
	listener net.Listener
	served   chan error
}

func (p *rackProc) addr() string { return p.listener.Addr().String() }

// stop closes listener, server and rack, in that order, and reports a failed
// final log flush.
func (p *rackProc) stop() error {
	p.listener.Close()
	p.server.Close()
	<-p.served
	if p.node != nil {
		return p.node.Close()
	}
	return p.rack.Close()
}

// endpoint is one client's connection to the deployment: a courier per rack,
// a ring over them when there are several racks, and the wire counters.
type endpoint struct {
	couriers []*sealedbottle.Courier
	ring     *sealedbottle.Ring
	backend  sealedbottle.Backend
	in, out  atomic.Int64
}

func (e *endpoint) close() {
	if e.ring != nil {
		e.ring.Close()
	}
	for _, c := range e.couriers {
		c.Close()
	}
}

// system is a running deployment with its clients' endpoints.
type system struct {
	racks     []*rackProc
	endpoints []*endpoint
	admission *sealedbottle.Admission
	registry  *sealedbottle.ObsRegistry
}

// startSystem opens the racks under dir (recovering whatever is there),
// serves them and connects the clients. wrap, when non-nil, decorates each
// per-rack backend under a client's ring (the traced run's rack spans).
func startSystem(dir string, topo topology, creds *credentials, wrap func(client int, b sealedbottle.Backend) sealedbottle.Backend) (*system, error) {
	s := &system{registry: sealedbottle.NewObsRegistry()}
	opts := sealedbottle.ServerOptions{Metrics: sealedbottle.NewServerMetrics(s.registry)}
	var clientTLS *tls.Config
	var token []byte
	if topo.secured {
		stls, err := auth.ServerTLS(creds.certPEM, creds.keyPEM, nil)
		if err != nil {
			return nil, err
		}
		ctls, err := auth.ClientTLS(creds.caPEM, nil, nil)
		if err != nil {
			return nil, err
		}
		s.admission = sealedbottle.NewAdmission(admissionRate, 1<<20)
		opts.TLS, opts.AuthKey, opts.Quota = stls, creds.key, s.admission
		clientTLS, token = ctls, creds.token
	}
	listeners := make([]net.Listener, topo.racks)
	fail := func(err error) (*system, error) {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
		s.stop()
		return nil, err
	}
	peers := make(map[string]string, topo.racks)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		listeners[i] = l
		peers[rackName(i)] = l.Addr().String()
	}
	for i, l := range listeners {
		p := &rackProc{name: rackName(i), dir: filepath.Join(dir, rackName(i)), listener: l, served: make(chan error, 1)}
		p.cfg = sealedbottle.RackConfig{
			Shards:       16,
			ReapInterval: -1,
			Durability:   &sealedbottle.DurabilityConfig{Dir: p.dir, Fsync: wal.PolicyInterval},
		}
		if topo.racks > 1 {
			p.cfg.RackTag = fmt.Sprintf("r%d", i)
		}
		rack, err := sealedbottle.OpenRack(p.cfg)
		if err != nil {
			return fail(fmt.Errorf("open %s: %w", p.name, err))
		}
		p.rack = rack
		o := opts
		if topo.replication > 1 {
			p.node = sealedbottle.WrapReplica(rack, sealedbottle.ReplicaConfig{Self: p.name, Peers: peers})
			o.Replica = p.node
		}
		p.server = sealedbottle.NewServer(rack, o)
		go func() { p.served <- p.server.Serve(l) }()
		s.racks = append(s.racks, p)
	}
	for c := 0; c < numClients; c++ {
		e := &endpoint{}
		s.endpoints = append(s.endpoints, e)
		var backends []sealedbottle.RingBackend
		for _, p := range s.racks {
			// Addr stays set beside the Dialer: TLS verifies the server name
			// against its host.
			cfg := sealedbottle.CourierConfig{Addr: p.addr(), Conns: 1, TLS: clientTLS, Token: token}
			cfg.Dialer = func() (net.Conn, error) {
				nc, err := net.Dial("tcp", cfg.Addr)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: nc, in: &e.in, out: &e.out}, nil
			}
			courier, err := sealedbottle.Dial(cfg)
			if err != nil {
				return fail(err)
			}
			e.couriers = append(e.couriers, courier)
			var b sealedbottle.Backend = courier
			if wrap != nil {
				b = wrap(c, b)
			}
			backends = append(backends, sealedbottle.RingBackend{Name: p.name, Backend: b})
		}
		if topo.racks == 1 {
			e.backend = e.couriers[0]
			continue
		}
		ring, err := sealedbottle.NewRing(sealedbottle.RingConfig{Backends: backends, Replication: topo.replication, ProbeInterval: -1})
		if err != nil {
			return fail(err)
		}
		e.ring, e.backend = ring, ring
	}
	// Couriers dial lazily; one call per connection puts the TCP and TLS
	// handshakes and the token exchange inside start-up, where a user pays
	// for them.
	ctx := context.Background()
	for _, e := range s.endpoints {
		for _, c := range e.couriers {
			if _, err := c.Stats(ctx); err != nil {
				return fail(fmt.Errorf("first call: %w", err))
			}
		}
	}
	return s, nil
}

func rackName(i int) string { return fmt.Sprintf("rack-%d", i) }

// stop disconnects the clients and stops the racks.
func (s *system) stop() error {
	for _, e := range s.endpoints {
		e.close()
	}
	var errs []error
	for _, p := range s.racks {
		if err := p.stop(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.name, err))
		}
	}
	return errors.Join(errs...)
}

// wireBytes is the total the clients read and wrote so far.
func (s *system) wireBytes() (in, out int64) {
	for _, e := range s.endpoints {
		in += e.in.Load()
		out += e.out.Load()
	}
	return in, out
}

// rackStats sums the racks' own log size and sweep counters, read in process.
func (s *system) rackStats() (sealedbottle.Stats, error) {
	var sum sealedbottle.Stats
	for _, p := range s.racks {
		st, err := p.rack.Stats(context.Background())
		if err != nil {
			return sum, err
		}
		sum.WALBytes += st.WALBytes
		sum.Totals.Scanned += st.Totals.Scanned
		sum.Totals.Rejected += st.Totals.Rejected
		sum.Totals.Returned += st.Totals.Returned
	}
	return sum, nil
}

// maintain does between segments what a rack's timers do in production and
// the benchmark has switched off to keep them out of the measured time: the
// reaper's pass, which also frees the bottles that removes only unlinked (no
// sweep does it for a write-only workload), and, when compact is set, a
// snapshot, which cuts the log.
func (s *system) maintain(compact bool) error {
	for _, p := range s.racks {
		p.rack.Reap()
		if !compact {
			continue
		}
		if err := p.rack.Snapshot(); err != nil {
			return fmt.Errorf("snapshot %s: %w", p.name, err)
		}
	}
	return nil
}

// preloadBatch is the SubmitBatch size of every bulk load.
const preloadBatch = 256

// submitAll racks raws through b in batches and returns how many the racks
// acknowledged.
func submitAll(ctx context.Context, b sealedbottle.Backend, raws [][]byte) (int, error) {
	acked := 0
	for len(raws) > 0 {
		n := min(preloadBatch, len(raws))
		res, err := b.SubmitBatch(ctx, raws[:n])
		if err != nil {
			return acked, err
		}
		for _, r := range res {
			if r.Err != nil {
				return acked, r.Err
			}
			acked++
		}
		raws = raws[n:]
	}
	return acked, nil
}

// candidate is the matching user a client owns: a participant and the
// sweeper that drives it against the client's backend.
type candidate struct {
	sweeper *sealedbottle.Sweeper
	// seen is the length of the sweeper's seen window, kept from tick
	// statistics: every bottle a sweep returns, less replica copies, enters
	// the window, and a bottle inside the window is never returned.
	seen int
	// watch, when set, is the request the client is waiting on; found and key
	// report the candidate's verdict on it.
	watch string
	found bool
	key   crypt.Key
	// evaluated and matches count the participant's verdicts.
	evaluated, matches int
}

const sweepLimit = 64

func newCandidate(client int, c *corpus, b sealedbottle.Backend) (*candidate, error) {
	cand := &candidate{}
	p, err := core.NewParticipant(c.profiles[client], core.ParticipantConfig{
		ID: fmt.Sprintf("cand%d", client),
		// A friending request carries one attribute nobody owns; when its
		// remainder collides with one of the candidate's, only the collision
		// skip lets the hint matrix recover the key.
		Matcher: core.MatcherConfig{AllowCollisionSkip: true},
		// Every request of a closed-loop client has the same origin; the
		// default interval would answer one of them in ten seconds.
		MinReplyInterval: time.Nanosecond,
		Rand:             seededReader{newRand(c.seed, 100+client)},
	})
	if err != nil {
		return nil, err
	}
	cand.sweeper, err = sealedbottle.NewSweeper(b, sealedbottle.SweeperConfig{
		Participant: p,
		Limit:       sweepLimit,
		OnResult: func(pkg *core.RequestPackage, res *core.HandleResult) {
			cand.evaluated++
			if !res.Matched {
				return
			}
			cand.matches++
			if pkg.ID == cand.watch {
				cand.found, cand.key = true, res.ChannelKey
			}
		},
	})
	return cand, err
}

// tick runs one sweeper cycle and keeps the window length.
func (c *candidate) tick(ctx context.Context) (sealedbottle.TickStats, error) {
	st, err := c.sweeper.Tick(ctx)
	c.seen = min(internalclient.DefaultSeenCap, c.seen+st.Swept-st.Duplicates)
	return st, err
}

// drain ticks until the rack has nothing new for the candidate or the seen
// window is full.
func (c *candidate) drain(ctx context.Context) error {
	for {
		st, err := c.tick(ctx)
		if err != nil {
			return err
		}
		if !st.Truncated || c.seen >= internalclient.DefaultSeenCap {
			return nil
		}
	}
}

// removeDir deletes a run's data directory; a failure is reported, not fatal.
func removeDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "friendbench: remove %s: %v\n", dir, err)
	}
}
