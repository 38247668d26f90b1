// Command loadgen drives a bottle-rack broker with a concurrent friending
// workload and reports throughput and latency: submitter goroutines build and
// rack sealed-bottle request packages while sweeper goroutines concurrently
// sweep with their residue sets, evaluate returned bottles with the full
// participant machinery, and post replies; a final phase fetches replies for
// a sample of the submitted requests.
//
// Everything goes through the public sealedbottle SDK: submitters share a
// pool of multiplexed connections (many in-flight requests per connection)
// and sweepers run the SDK's sweep-evaluate-reply loop. -batch amortizes the
// round trip further with the batched opcodes.
//
// By default everything runs in-process over the in-memory pipe transport, so
// the full framed protocol is exercised with no network setup:
//
//	loadgen -bottles 100000 -submitters 8 -sweepers 4
//
// Point it at a running cmd/bottlerack with -addr host:port instead, or at a
// whole cluster with -addrs a:7117,b:7117,c:7117 — a client-side Ring then
// routes submits by rendezvous hashing, fans sweeps out to every rack and
// steers replies and fetches back to the owning rack. -racks 3 runs the same
// cluster topology in-process (three tagged racks, each behind its own pipe
// transport), and -verify-counts asserts at exit that the brokers' submitted
// counters equal what loadgen racked — the cluster smoke test in CI runs
// exactly that against three real bottlerack processes.
//
// -scenario applies one of the experiment suite's workload presets (see
// internal/experiments/cluster and docs/EXPERIMENTS.md): bursty arrivals,
// msn-derived connect/disconnect churn, lossy access links, Zipf-skewed
// attribute draws, or opaque adversarial submits — the same shapes the
// in-process scenario tests check invariants for, replayed over TCP.
package main

import (
	"context"
	"crypto/tls"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sealedbottle"
	"sealedbottle/internal/attr"
	"sealedbottle/internal/auth"
	"sealedbottle/internal/core"
	"sealedbottle/internal/experiments/cluster"
	"sealedbottle/internal/msn"
)

type options struct {
	addr             string
	addrs            string
	racks            int
	bottles          int
	submitters       int
	sweepers         int
	sweepLimit       int
	shards           int
	conns            int
	batch            int
	universe         int
	validity         time.Duration
	timeout          time.Duration
	seed             int64
	verifyCounts     bool
	verifyReplies    bool
	verifyInvariants bool
	replication      int
	scenario         string
	tlsCA            string
	tlsCert          string
	tlsKey           string
	token            string
}

// shape is the workload shaping a -scenario preset resolves to: how arrivals
// are paced, whether clients churn, and how bottles are built. The zero value
// is the unshaped open loop.
type shape struct {
	burstSize int
	burstGap  time.Duration
	loss      float64
	zipf      bool
	opaque    bool
	timeline  [][]bool // per-client connectivity windows (nil: always on)
}

// resolveShape maps a scenario preset onto loadgen's workload knobs. The
// churn timeline has one row per client (submitters first, then sweepers),
// derived from the same msn mobility model the in-process scenario suite
// replays.
func resolveShape(opts options) (shape, error) {
	if opts.scenario == "" {
		return shape{}, nil
	}
	p, err := cluster.PresetByName(opts.scenario)
	if err != nil {
		return shape{}, err
	}
	s := shape{
		burstSize: p.BurstSize,
		burstGap:  p.BurstGap,
		loss:      p.LossRate,
		zipf:      p.ZipfExponent > 1.2,
		opaque:    p.Adversarial,
	}
	if p.Churn {
		s.timeline, err = msn.ChurnTimeline(msn.ChurnModel{
			Clients: opts.submitters + opts.sweepers,
			Ticks:   120,
			Seed:    opts.seed,
		})
		if err != nil {
			return shape{}, err
		}
	}
	return s, nil
}

// churnColumnPeriod is how much wall clock one simulated connectivity tick
// spans when a churn timeline is replayed.
const churnColumnPeriod = 5 * time.Millisecond

// waitOnline blocks while the timeline says client row is out of coverage,
// for at most one full timeline cycle (a client whose row never enters
// coverage proceeds degraded rather than deadlocking the run).
func (s shape) waitOnline(row int, start time.Time) {
	if s.timeline == nil {
		return
	}
	cols := len(s.timeline[0])
	for i := 0; i < cols; i++ {
		col := int(time.Since(start)/churnColumnPeriod) % cols
		if s.timeline[row][col] {
			return
		}
		time.Sleep(churnColumnPeriod)
	}
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "", "broker TCP address (empty: in-process pipe transport)")
	flag.StringVar(&opts.addrs, "addrs", "", "comma-separated rack addresses for cluster mode (a Ring routes across them)")
	flag.IntVar(&opts.racks, "racks", 1, "in-process cluster size when no address is given (each rack behind its own pipe transport)")
	flag.IntVar(&opts.bottles, "bottles", 100_000, "bottles to submit")
	flag.IntVar(&opts.submitters, "submitters", 8, "concurrent submitter goroutines")
	flag.IntVar(&opts.sweepers, "sweepers", 4, "concurrent sweeper goroutines")
	flag.IntVar(&opts.sweepLimit, "sweep-limit", 64, "bottles returned per sweep")
	flag.IntVar(&opts.shards, "shards", 32, "rack shards (in-process mode)")
	flag.IntVar(&opts.conns, "conns", 4, "courier connection pool size")
	flag.IntVar(&opts.batch, "batch", 1, "bottles per submit round trip (SubmitBatch when >1)")
	flag.IntVar(&opts.universe, "universe", 48, "size of the interest-attribute vocabulary")
	flag.DurationVar(&opts.validity, "validity", 5*time.Minute, "request validity window")
	flag.DurationVar(&opts.timeout, "timeout", 30*time.Second, "per-call timeout")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed")
	flag.BoolVar(&opts.verifyCounts, "verify-counts", false, "fail unless the brokers' submitted counter equals the bottles submitted (fresh racks only; scaled by -replication)")
	flag.BoolVar(&opts.verifyReplies, "verify-replies", false, "fail unless every acknowledged reply post is drained back at exit — the chaos smoke's zero-lost-friendings assertion (replaces the sample fetch phase; runs shorter than -validity only)")
	flag.BoolVar(&opts.verifyInvariants, "verify-invariants", false, "run every client operation through the experiment suite's invariant checker and fail on any violation: exactly-once evaluation, prefilter soundness, no reply loss, no cross-client leakage (implies -verify-replies)")
	flag.IntVar(&opts.replication, "replication", 1, "ring replication factor R: each bottle is racked on the top-R rendezvous racks (cluster modes only)")
	flag.StringVar(&opts.scenario, "scenario", "", "workload scenario preset: "+strings.Join(cluster.PresetNames(), ", ")+" (empty: open loop)")
	flag.StringVar(&opts.tlsCA, "tls-ca", "", "root CA certificate PEM: verify rack server certificates and wrap every connection in TLS (TCP modes only)")
	flag.StringVar(&opts.tlsCert, "tls-cert", "", "client certificate PEM presented to racks that demand mTLS (requires -tls-ca and -tls-key)")
	flag.StringVar(&opts.tlsKey, "tls-key", "", "client key PEM paired with -tls-cert")
	flag.StringVar(&opts.token, "token", "", "capability token presented in the connection HELLO: hex string or @FILE holding the raw bytes `sealedbottle token -out` writes")
	flag.Parse()

	if err := run(opts); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
}

// loadSecurity resolves the client-side identity flags: a TLS config built
// from the CA (plus an optional mTLS keypair) and the raw capability token.
// Both only make sense against real sockets — the in-process pipe racks run
// unsecured.
func loadSecurity(opts options) (*tls.Config, []byte, error) {
	if (opts.tlsCert != "") != (opts.tlsKey != "") {
		return nil, nil, fmt.Errorf("-tls-cert and -tls-key must be given together")
	}
	if opts.tlsCert != "" && opts.tlsCA == "" {
		return nil, nil, fmt.Errorf("-tls-cert/-tls-key require -tls-ca")
	}
	if (opts.tlsCA != "" || opts.token != "") && opts.addr == "" && opts.addrs == "" {
		return nil, nil, fmt.Errorf("-tls-ca/-token require -addr or -addrs (the in-process racks run unsecured)")
	}
	var tlsConf *tls.Config
	if opts.tlsCA != "" {
		ca, err := os.ReadFile(opts.tlsCA)
		if err != nil {
			return nil, nil, fmt.Errorf("reading -tls-ca: %w", err)
		}
		var cert, key []byte
		if opts.tlsCert != "" {
			if cert, err = os.ReadFile(opts.tlsCert); err != nil {
				return nil, nil, fmt.Errorf("reading -tls-cert: %w", err)
			}
			if key, err = os.ReadFile(opts.tlsKey); err != nil {
				return nil, nil, fmt.Errorf("reading -tls-key: %w", err)
			}
		}
		tlsConf, err = auth.ClientTLS(ca, cert, key)
		if err != nil {
			return nil, nil, err
		}
	}
	var token []byte
	if strings.HasPrefix(opts.token, "@") {
		raw, err := os.ReadFile(opts.token[1:])
		if err != nil {
			return nil, nil, fmt.Errorf("reading -token file: %w", err)
		}
		token = raw
	} else if opts.token != "" {
		raw, err := hex.DecodeString(strings.TrimSpace(opts.token))
		if err != nil {
			return nil, nil, fmt.Errorf("decoding -token hex: %w", err)
		}
		token = raw
	}
	return tlsConf, token, nil
}

func run(opts options) error {
	if opts.batch < 1 {
		opts.batch = 1
	}
	if opts.verifyInvariants {
		opts.verifyReplies = true
	}
	ctx := context.Background()
	shp, err := resolveShape(opts)
	if err != nil {
		return err
	}
	tlsConf, token, err := loadSecurity(opts)
	if err != nil {
		return err
	}
	courier, statsFn, cleanup, err := connect(opts, tlsConf, token)
	if err != nil {
		return err
	}
	defer cleanup()

	// With -verify-invariants every client operation crosses a checked link,
	// so the checker sees exactly what the scenario suite's in-process runs
	// see: acknowledged submits, registered matchers, evaluations, reply
	// posts, drains.
	var checker *cluster.Checker
	workload := courier
	if opts.verifyInvariants {
		checker = cluster.NewChecker()
		workload = cluster.CheckedBackend(courier, checker)
	}

	var (
		submitted  atomic.Int64
		failed     atomic.Int64
		dropped    atomic.Int64
		sweeps     atomic.Int64
		swept      atomic.Int64
		replies    atomic.Int64
		submitting atomic.Bool
	)
	submitting.Store(true)

	subLat := make([][]time.Duration, opts.submitters)
	sampleIDs := make([][]string, opts.submitters)
	allIDs := make([][]string, opts.submitters)
	var wgSub sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.submitters; w++ {
		wgSub.Add(1)
		go func(w int) {
			defer wgSub.Done()
			rng := rand.New(rand.NewSource(opts.seed + int64(w)))
			var zipf *rand.Zipf
			if shp.zipf {
				zipf = rand.NewZipf(rng, 1.4, 1, uint64(opts.universe-1))
			}
			i := 0
			burst := 0
			for int(submitted.Load()) < opts.bottles {
				shp.waitOnline(w, start)
				if shp.burstSize > 0 && burst >= shp.burstSize {
					burst = 0
					if shp.burstGap > 0 {
						time.Sleep(shp.burstGap)
					}
				}
				burst++
				raws, pkgs, err := buildBottles(rng, zipf, shp.opaque, opts, w, &i)
				if err != nil {
					failed.Add(int64(opts.batch))
					continue
				}
				if shp.loss > 0 && rng.Float64() < shp.loss {
					// A lossy access link: the batch never reaches the wire
					// and the submitter retries with fresh bottles.
					dropped.Add(int64(len(raws)))
					continue
				}
				t0 := time.Now()
				oks, racked := submit(ctx, workload, raws)
				subLat[w] = append(subLat[w], time.Since(t0))
				failed.Add(int64(len(raws) - racked))
				if racked == 0 {
					continue
				}
				// Only acknowledged bottles enter the drain set and the
				// checker's ledger — a rejected submit owes nobody anything.
				for j, ok := range oks {
					if !ok {
						continue
					}
					if opts.verifyReplies {
						allIDs[w] = append(allIDs[w], pkgs[j].ID)
					}
					if checker != nil {
						checker.TrackSubmit(fmt.Sprintf("sub-%d", w), pkgs[j].ID, pkgs[j])
					}
				}
				// Sample roughly every hundredth bottle for the fetch phase.
				if n := submitted.Add(int64(racked)); oks[0] && n%100 < int64(racked) {
					sampleIDs[w] = append(sampleIDs[w], pkgs[0].ID)
				}
			}
		}(w)
	}

	sweepLat := make([][]time.Duration, opts.sweepers)
	var wgSweep sync.WaitGroup
	for w := 0; w < opts.sweepers; w++ {
		wgSweep.Add(1)
		go func(w int) {
			defer wgSweep.Done()
			rng := rand.New(rand.NewSource(opts.seed + 1000 + int64(w)))
			sid := fmt.Sprintf("sweeper-%d", w)
			part, err := core.NewParticipant(randomProfile(rng, opts.universe, 6), core.ParticipantConfig{
				ID:               sid,
				Matcher:          core.MatcherConfig{AllowCollisionSkip: true},
				MinReplyInterval: time.Nanosecond,
				Rand:             rng,
			})
			if err != nil {
				return
			}
			scfg := sealedbottle.SweeperConfig{
				Participant: part,
				Limit:       opts.sweepLimit,
				SeenCap:     8192,
			}
			if checker != nil {
				// The checker holds this matcher to exactly-once coverage of
				// every passing bottle, so the seen window must outlast the
				// whole run — a recycled slot would re-evaluate. (Past
				// MaxSeenCap bottles it cannot; the checker then says so.)
				checker.RegisterSweeper(sid, part.Matcher().ResidueSet(core.DefaultPrime))
				scfg.SeenCap = min(4*opts.bottles+256, sealedbottle.MaxSeenCap)
				scfg.OnResult = func(pkg *core.RequestPackage, hr *core.HandleResult) {
					checker.ObserveEvaluation(sid, pkg.ID, hr.Dropped)
				}
			}
			sweeper, err := sealedbottle.NewSweeper(workload, scfg)
			if err != nil {
				return
			}
			// Once submitting stops, a checked run keeps ticking until every
			// promised evaluation has been observed and this sweeper's pending
			// reply posts flushed cleanly, bounded by a drain deadline.
			var drainUntil time.Time
			for {
				if !submitting.Load() {
					if checker == nil {
						break
					}
					if drainUntil.IsZero() {
						drainUntil = time.Now().Add(60 * time.Second)
					}
					if time.Now().After(drainUntil) {
						break
					}
				}
				shp.waitOnline(opts.submitters+w, start)
				t0 := time.Now()
				st, err := sweeper.Tick(ctx)
				if err != nil {
					return
				}
				sweepLat[w] = append(sweepLat[w], time.Since(t0))
				sweeps.Add(1)
				swept.Add(int64(st.Swept))
				replies.Add(int64(st.Replies))
				if !submitting.Load() && checker != nil && st.ReplyErrors == 0 && checker.AllObserved() {
					break
				}
			}
		}(w)
	}

	wgSub.Wait()
	elapsed := time.Since(start)
	submitting.Store(false)
	wgSweep.Wait()

	// Final phase: fetch replies for the sampled request IDs, batched. With
	// -verify-replies the drain covers every submitted ID instead — fetching
	// is destructive, so a full drain both measures and asserts: every reply
	// whose post was acknowledged must come back, or a matched friending was
	// lost.
	fetched := 0
	fetchIDs := sampleIDs
	if opts.verifyReplies {
		fetchIDs = allIDs
	}
	fetchDeadline := time.Now().Add(60 * time.Second)
	for w, ids := range fetchIDs {
		for start := 0; start < len(ids); start += 512 {
			end := min(start+512, len(ids))
			chunk := ids[start:end]
			var results []sealedbottle.FetchResult
			if opts.verifyReplies {
				// A secured cluster may shed fetches under the admission
				// quota; ErrOverload means retry after backoff, so the
				// verifying drain accumulates partial results until clean.
				results = cluster.DrainFetch(ctx, workload, chunk, fetchDeadline)
			} else {
				results = sealedbottle.FetchMany(ctx, workload, chunk)
			}
			for i, res := range results {
				if res.Err != nil {
					if checker != nil {
						checker.Violationf("fetch of request %s failed: %v", sealedbottle.UntagID(chunk[i]), res.Err)
					}
					continue
				}
				fetched += len(res.Replies)
				if checker != nil {
					checker.TrackFetch(fmt.Sprintf("sub-%d", w), chunk[i], res.Replies)
				}
			}
		}
	}

	if opts.scenario != "" {
		fmt.Printf("scenario   %s (burst=%d gap=%v churn=%v loss=%d dropped, zipf=%v opaque=%v)\n",
			opts.scenario, shp.burstSize, shp.burstGap, shp.timeline != nil,
			dropped.Load(), shp.zipf, shp.opaque)
	}
	fmt.Printf("submitted  %d bottles in %v (%.0f bottles/sec, %d failed, batch=%d)\n",
		submitted.Load(), elapsed.Round(time.Millisecond),
		float64(submitted.Load())/elapsed.Seconds(), failed.Load(), opts.batch)
	printLatencies("submit", flatten(subLat))
	fmt.Printf("swept      %d sweeps returned %d bottles, %d replies posted, %d fetched\n",
		sweeps.Load(), swept.Load(), replies.Load(), fetched)
	printLatencies("sweep ", flatten(sweepLat))
	if statsFn != nil {
		st, err := statsFn(ctx)
		if err != nil {
			return fmt.Errorf("fetching broker stats: %w", err)
		}
		fmt.Printf("rack       shards=%d workers=%d held=%d submitted=%d scanned=%d prefilter-reject=%.1f%% match=%.1f%% replies=%d\n",
			st.Shards, st.Workers, st.Held, st.Totals.Submitted, st.Totals.Scanned,
			100*st.PrefilterRejectRate(), 100*st.MatchRate(), st.Totals.RepliesIn)
		if opts.replication > 1 {
			fmt.Printf("replica    dedup=%d read-repairs=%d hints q/s/drop=%d/%d/%d handoff=%d\n",
				st.Replication.ReplicaDedup, st.Replication.ReadRepairs,
				st.Replication.HintsQueued, st.Replication.HintsStreamed,
				st.Replication.HintsDropped, st.Replication.HandoffApplied)
		}
		if opts.verifyCounts {
			// At R>1 every bottle is racked on R replicas, so the brokers'
			// summed submitted counters run at R times the workload's count.
			factor := uint64(1)
			if opts.replication > 1 {
				factor = uint64(opts.replication)
			}
			if got, want := st.Totals.Submitted, factor*uint64(submitted.Load()); got != want {
				return fmt.Errorf("count mismatch: brokers report %d bottles submitted, loadgen racked %d x R=%d", got, want/factor, factor)
			}
			fmt.Printf("verified   broker submitted counters match loadgen (%d bottles x R=%d)\n", submitted.Load(), factor)
		}
	}
	if opts.verifyReplies {
		// Distinct stored replies can exceed acknowledged posts (a timed-out
		// post may still have landed), never undershoot them.
		if int64(fetched) < replies.Load() {
			return fmt.Errorf("reply loss: %d replies posted but only %d drained back", replies.Load(), fetched)
		}
		fmt.Printf("verified   all %d acknowledged replies drained back (%d stored)\n", replies.Load(), fetched)
	}
	if checker != nil {
		if v := checker.Violations(); len(v) > 0 {
			for _, s := range v {
				fmt.Printf("violation  %s\n", s)
			}
			return fmt.Errorf("%d invariant violation(s)", len(v))
		}
		fmt.Printf("verified   %d expected evaluations observed, no invariant violations\n", checker.ExpectedEvaluations())
	}
	if int(submitted.Load()) < opts.bottles {
		return fmt.Errorf("only %d of %d bottles submitted", submitted.Load(), opts.bottles)
	}
	return nil
}

// submit racks one batch (or a single bottle) through the rendezvous; it
// returns a per-bottle acknowledged flag (same order as raws) plus the count.
func submit(ctx context.Context, courier sealedbottle.Backend, raws [][]byte) (oks []bool, racked int) {
	oks = make([]bool, len(raws))
	if len(raws) == 1 {
		if _, err := courier.Submit(ctx, raws[0]); err != nil {
			return oks, 0
		}
		oks[0] = true
		return oks, 1
	}
	results, err := courier.SubmitBatch(ctx, raws)
	if err != nil {
		return oks, 0
	}
	for i, res := range results {
		if res.Err == nil {
			oks[i] = true
			racked++
		}
	}
	return oks, racked
}

// connect stands up the rendezvous the workload drives: a courier for one
// TCP broker, a Ring of couriers for -addrs cluster mode, or — with no
// address — an in-process cluster of -racks racks, each behind its own
// framed server over an in-memory pipe listener.
func connect(opts options, tlsConf *tls.Config, token []byte) (rv sealedbottle.Backend, stats func(context.Context) (sealedbottle.Stats, error), cleanup func(), err error) {
	cfg := sealedbottle.CourierConfig{
		Conns:       opts.conns,
		CallTimeout: opts.timeout,
		TLS:         tlsConf,
		Token:       token,
	}
	if opts.addrs != "" {
		ring, err := sealedbottle.NewRing(sealedbottle.RingConfig{
			Addrs:       strings.Split(opts.addrs, ","),
			Courier:     cfg,
			Replication: opts.replication,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return ring, ring.Stats, func() { ring.Close() }, nil
	}
	if opts.addr != "" {
		courier, err := sealedbottle.Dial(sealedbottle.CourierConfig{
			Addr: opts.addr, Conns: cfg.Conns, CallTimeout: cfg.CallTimeout,
			TLS: cfg.TLS, Token: cfg.Token,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return courier, courier.Stats, func() { courier.Close() }, nil
	}

	// In-process: -racks tagged racks, each with its own pipe listener and
	// courier; a single rack skips the ring entirely. With -replication > 1
	// each rack is replica-wrapped (hint queues + handoff streaming over the
	// pipe transports), the same shape the cluster smoke test runs over TCP.
	n := opts.racks
	if n < 1 {
		n = 1
	}
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	// Listeners exist up front so every replica node's handoff dialer can
	// resolve any peer name from the start.
	listeners := make(map[string]*sealedbottle.PipeListener, n)
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rack-%d", i)
		listeners[name] = sealedbottle.ListenPipe()
		peers[name] = name
	}
	var backends []sealedbottle.RingBackend
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rack-%d", i)
		rcfg := sealedbottle.RackConfig{Shards: opts.shards}
		if n > 1 {
			rcfg.RackTag = fmt.Sprintf("r%d", i)
		}
		rack := sealedbottle.NewRack(rcfg)
		srvOpts := sealedbottle.ServerOptions{}
		closeRack := rack.Close
		if opts.replication > 1 && n > 1 {
			node := sealedbottle.WrapReplica(rack, sealedbottle.ReplicaConfig{
				Self:  name,
				Peers: peers,
				Dial: func(addr string) (sealedbottle.HandoffTarget, error) {
					l, ok := listeners[addr]
					if !ok {
						return nil, fmt.Errorf("unknown handoff peer %q", addr)
					}
					return sealedbottle.Dial(sealedbottle.CourierConfig{
						Conns:  1,
						Dialer: func() (net.Conn, error) { return l.Dial() },
					})
				},
			})
			srvOpts.Replica = node
			closeRack = node.Close
		}
		l := listeners[name]
		srv := sealedbottle.NewServer(rack, srvOpts)
		go srv.Serve(l)
		ccfg := cfg
		ccfg.Dialer = func() (net.Conn, error) { return l.Dial() }
		courier, err := sealedbottle.Dial(ccfg)
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		closers = append(closers, func() { courier.Close(); l.Close(); srv.Close(); closeRack() })
		backends = append(backends, sealedbottle.RingBackend{Name: name, Backend: courier})
	}
	if n == 1 {
		courier := backends[0].Backend.(*sealedbottle.Courier)
		return courier, courier.Stats, cleanup, nil
	}
	ring, err := sealedbottle.NewRing(sealedbottle.RingConfig{
		Backends:    backends,
		Replication: opts.replication,
	})
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	closers = append(closers, func() { ring.Close() })
	return ring, ring.Stats, cleanup, nil
}

// buildBottles constructs opts.batch marshalled request packages, advancing
// the worker's bottle counter.
func buildBottles(rng *rand.Rand, zipf *rand.Zipf, opaque bool, opts options, worker int, counter *int) ([][]byte, []*core.RequestPackage, error) {
	raws := make([][]byte, 0, opts.batch)
	pkgs := make([]*core.RequestPackage, 0, opts.batch)
	for len(raws) < opts.batch {
		raw, pkg, err := buildBottle(rng, zipf, opaque, opts, worker, *counter)
		*counter++
		if err != nil {
			return nil, nil, err
		}
		raws = append(raws, raw)
		pkgs = append(pkgs, pkg)
	}
	return raws, pkgs, nil
}

// drawAttr draws an attribute index: uniform by default, Zipf-skewed when a
// scenario preset crowds the popular head of the vocabulary.
func drawAttr(rng *rand.Rand, zipf *rand.Zipf, n int) int {
	if zipf != nil {
		return int(zipf.Uint64()) % n
	}
	return rng.Intn(n)
}

// buildBottle constructs one marshalled request package: one necessary group
// attribute plus four optional interests with β=2 (so γ=2 exercises the hint
// matrix on both the build and sweep sides).
func buildBottle(rng *rand.Rand, zipf *rand.Zipf, opaque bool, opts options, worker, i int) ([]byte, *core.RequestPackage, error) {
	optional := make([]attr.Attribute, 0, 4)
	seen := make(map[int]struct{}, 4)
	for len(optional) < 4 {
		k := drawAttr(rng, zipf, opts.universe)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		optional = append(optional, attr.MustNew("interest", fmt.Sprintf("i%03d", k)))
	}
	spec := core.RequestSpec{
		Necessary:   []attr.Attribute{attr.MustNew("group", fmt.Sprintf("g%d", rng.Intn(8)))},
		Optional:    optional,
		MinOptional: 2,
	}
	mode := core.SealModeVerifiable
	if opaque {
		mode = core.SealModeOpaque
	}
	built, err := core.BuildRequest(spec, core.BuildOptions{
		Mode:     mode,
		Origin:   fmt.Sprintf("sub-%d-%d", worker, i),
		Validity: opts.validity,
		Rand:     rng,
	})
	if err != nil {
		return nil, nil, err
	}
	raw, err := built.Package.Marshal()
	if err != nil {
		return nil, nil, err
	}
	return raw, built.Package, nil
}

// randomProfile draws a sweeper profile over the same vocabulary the
// submitters use, so a realistic fraction of bottles passes the prefilter.
func randomProfile(rng *rand.Rand, universe, n int) *attr.Profile {
	p := attr.NewProfile(attr.MustNew("group", fmt.Sprintf("g%d", rng.Intn(8))))
	for p.Len() < n {
		p.Add(attr.MustNew("interest", fmt.Sprintf("i%03d", rng.Intn(universe))))
	}
	return p
}

// flatten merges per-worker latency slices.
func flatten(parts [][]time.Duration) []time.Duration {
	var out []time.Duration
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// printLatencies reports p50/p95/p99/max of a latency sample.
func printLatencies(label string, lat []time.Duration) {
	if len(lat) == 0 {
		fmt.Printf("%s     no samples\n", label)
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	fmt.Printf("%s     p50=%v p95=%v p99=%v max=%v (%d samples)\n",
		label, pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), lat[len(lat)-1].Round(time.Microsecond), len(lat))
}
