package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"sealedbottle"
	internalclient "sealedbottle/internal/client"
)

// Shape of every run. The counts are noise controls: a single set-up sample
// or a run that ends before the sweepers' seen windows are full measures the
// host or the run length, not the code.
const (
	// Cold starts are timed, after one that is discarded, until
	// setupBudget is spent: at least minSetupCycles, at most maxSetupCycles.
	// A cold start takes 0.03 to 0.7 s depending on the workload, and the
	// median of five short ones still moves by a tenth between runs.
	minSetupCycles = 5
	maxSetupCycles = 30
	setupBudget    = 3 * time.Second
	// segments split the measured time; throughput is the median segment's.
	segments = 10
	// warmupShare of the measured time is spent on untimed operations after
	// the seen windows are full.
	warmupShare = 0.15
	// traceShare of the measured time is what the traced run spends with
	// spans on, and again with spans off, in alternating segments.
	traceShare = 0.2
	// maxFailedShare of operations may fail before the run is incorrect.
	maxFailedShare = 0.001
)

// options are the run's command-line settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale divides the workload's sizes: 1 for a real run, 100 in the smoke
	// tests.
	scale int
	// workdir holds the racks' data directories and the span file.
	workdir string
}

// runner carries one run of one workload.
type runner struct {
	w       workload
	opt     options
	corpus  *corpus
	creds   *credentials
	sys     *system
	clients []*client
	tracers []*tracer
	// preloaded and preremoved count what set-up and ageing racked and took
	// down, beside the clients' own tallies.
	preloaded, preremoved int
	// problems collects failed checks; any makes the run incorrect.
	problems []string
	opErrs   []string
	mu       sync.Mutex
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// opFailed keeps the first few operation errors for the report.
func (r *runner) opFailed(c *client, err error) {
	r.mu.Lock()
	if len(r.opErrs) < 5 {
		r.opErrs = append(r.opErrs, fmt.Sprintf("client %d: %v", c.idx, err))
	}
	r.mu.Unlock()
}

// seenTarget is the seen-window length a candidate is aged to.
func (r *runner) seenTarget() int { return max(1, internalclient.DefaultSeenCap/r.opt.scale) }

// start brings the deployment up under dir, loads the standing population and
// gives every client its candidate, which then sweeps the rack dry. It is the
// cold start setup_s times.
func (r *runner) start(dir string, wrap func(int, sealedbottle.Backend) sealedbottle.Backend) (*system, []*client, error) {
	sys, err := startSystem(dir, r.w.topo, r.creds, wrap)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	n, err := submitAll(ctx, sys.endpoints[0].backend, r.corpus.standing)
	if err != nil || n != len(r.corpus.standing) {
		sys.stop()
		return nil, nil, fmt.Errorf("preload: %d of %d racked: %w", n, len(r.corpus.standing), err)
	}
	clients := make([]*client, numClients)
	for i := range clients {
		c := &client{
			idx: i, w: &r.w, corpus: r.corpus, backend: sys.endpoints[i].backend,
			rng: newRand(r.opt.seed, 10+i), origin: fmt.Sprintf("client%d", i),
			profile: r.corpus.profiles[i].Attributes(),
		}
		if wrap != nil {
			c.tr = r.tracers[i]
			c.backend = &tracedBackend{inner: c.backend, tr: c.tr, prefix: "client."}
		}
		if r.w.fifo > 0 {
			c.queue = append([]string(nil), r.corpus.standingIDs[i*r.w.fifo:(i+1)*r.w.fifo]...)
		}
		if r.w.candidates {
			if c.cand, err = newCandidate(i, r.corpus, c.backend); err == nil {
				err = c.cand.drain(ctx)
			}
			if err != nil {
				sys.stop()
				return nil, nil, fmt.Errorf("candidate %d: %w", i, err)
			}
		}
		clients[i] = c
	}
	return sys, clients, nil
}

// setupSeconds times cold starts, each in a fresh directory, and returns the
// median of the timed ones.
func (r *runner) setupSeconds() (float64, error) {
	var times []float64
	began := time.Now()
	for i := 0; i <= maxSetupCycles && (i <= minSetupCycles || time.Since(began) < setupBudget); i++ {
		dir, err := os.MkdirTemp(r.opt.workdir, "setup-")
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		sys, _, err := r.start(dir, nil)
		if err == nil {
			err = sys.stop()
		}
		d := time.Since(t0)
		removeDir(dir)
		if err != nil {
			return 0, fmt.Errorf("set-up cycle %d: %w", i, err)
		}
		if i > 0 {
			times = append(times, d.Seconds())
		}
	}
	fmt.Printf("setup cycles (s, %d timed): %.3f\n", len(times), times)
	return median(times), nil
}

// age fills every candidate's seen window with the IDs of bottles that came,
// were evaluated and left, as a long-lived sweeper's is. A window still
// filling makes every later sweep query longer than the last, so a run that
// measured then would measure its own length.
func (r *runner) age(ctx context.Context) error {
	n := 0
	for _, c := range r.clients {
		if c.cand == nil {
			continue
		}
		hist := r.corpus.history[c.idx]
		for c.cand.seen < r.seenTarget() {
			want := min(preloadBatch, r.seenTarget()-c.cand.seen)
			ids := make([]string, want)
			raws := make([][]byte, want)
			for i := range raws {
				n++
				ids[i] = requestID(r.corpus.seed, streamHistory, n)
				raws[i] = hist[n%len(hist)].stamp(ids[i])
			}
			acked, err := submitAll(ctx, c.backend, raws)
			r.preloaded += acked
			if err != nil {
				return err
			}
			before := c.cand.seen
			if err := c.cand.drain(ctx); err != nil {
				return err
			}
			for _, id := range ids {
				held, err := c.backend.Remove(ctx, id)
				if err != nil || !held {
					return fmt.Errorf("ageing: remove %s: held=%v: %w", id, held, err)
				}
				r.preremoved++
			}
			if c.cand.seen == before {
				return errors.New("ageing: the candidate's seen window stopped growing")
			}
		}
	}
	return nil
}

// runFor lets both clients repeat the operation until the deadline and
// returns their operation latencies.
func (r *runner) runFor(ctx context.Context, d time.Duration) (ops, failed int, lat []float64, wall time.Duration) {
	var wg sync.WaitGroup
	perClient := make([][]float64, len(r.clients))
	fails := make([]int, len(r.clients))
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline); {
				sp := c.tr.begin("op")
				err := r.w.op(ctx, c)
				c.tr.end(sp)
				end := time.Now()
				perClient[i] = append(perClient[i], float64(end.Sub(now))/1e6)
				now = end
				if err != nil {
					fails[i]++
					r.opFailed(c, err)
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	for i := range perClient {
		ops += len(perClient[i])
		failed += fails[i]
		lat = append(lat, perClient[i]...)
	}
	return ops, failed, lat, wall
}

// segment runs the clients for d and adds the result to the phase: the host
// calibrated and the counters read before and after, the racks maintained
// last, untimed.
func (r *runner) segment(ctx context.Context, d time.Duration, ph *phase) error {
	ph.calibrate()
	before, err := readCounters(r.sys)
	if err != nil {
		return err
	}
	ops, failed, lat, wall := r.runFor(ctx, d)
	after, err := readCounters(r.sys)
	if err != nil {
		return err
	}
	ph.delta.add(before, after)
	ph.ops += ops
	ph.failed += failed
	ph.wall += wall
	ph.latencies = append(ph.latencies, lat...)
	ph.calibrate()
	ph.segRates = append(ph.segRates, float64(ops)/wall.Seconds())
	ph.segCPU = append(ph.segCPU, float64(after.cpu-before.cpu)/1e6/float64(max(1, ops)))
	return r.sys.maintain(r.w.compact)
}

// tally sums the clients' counts of what the racks acknowledged.
func (r *runner) tally() (acked, removed, fetched int) {
	acked, removed = r.preloaded, r.preremoved
	for _, c := range r.clients {
		acked += c.acked
		removed += c.removed
		fetched += c.fetched
	}
	return
}

// reconcile compares the racks' counters, read through a client's backend,
// with what the clients saw acknowledged.
func (r *runner) reconcile(ctx context.Context) {
	st, err := r.sys.endpoints[0].backend.Stats(ctx)
	if err != nil {
		r.problem("stats: %v", err)
		return
	}
	acked, removed, fetched := r.tally()
	rep := uint64(r.w.topo.replication)
	if st.Totals.Submitted != uint64(acked)*rep {
		r.problem("racks count %d submitted, clients saw %d acknowledged x %d replicas", st.Totals.Submitted, acked, rep)
	}
	if st.Totals.RepliesOut != uint64(fetched)*rep {
		r.problem("racks count %d replies out, clients fetched %d x %d replicas", st.Totals.RepliesOut, fetched, rep)
	}
	if want := (acked - removed) * int(rep); st.Held != want {
		r.problem("racks hold %d, clients expect %d", st.Held, want)
	}
	if r.sys.admission != nil && r.sys.admission.Shed() != 0 {
		r.problem("admission shed %d calls", r.sys.admission.Shed())
	}
}

// sampleHeld lists IDs that must still be on the racks: the clients' queues
// and the standing bottles no queue started with.
func (r *runner) sampleHeld() []string {
	var ids []string
	for _, c := range r.clients {
		ids = append(ids, c.queue[:min(32, len(c.queue))]...)
	}
	rest := r.corpus.standingIDs[numClients*r.w.fifo:]
	for i := 0; i < len(rest) && i < 64; i++ {
		ids = append(ids, rest[i*len(rest)/min(64, len(rest))])
	}
	return ids
}

// restartCheck stops the deployment, reopens every rack's directory and
// checks that each recovers what it held and that the sampled bottles are
// still on exactly as many racks as replicate them. It returns the time the
// reopening took.
func (r *runner) restartCheck(ctx context.Context) time.Duration {
	held := make([]int, len(r.sys.racks))
	for i, p := range r.sys.racks {
		st, err := p.rack.Stats(ctx)
		if err != nil {
			r.problem("stats %s: %v", p.name, err)
			return 0
		}
		held[i] = st.Held
	}
	sample := r.sampleHeld()
	if err := r.sys.stop(); err != nil {
		r.problem("stop: %v", err)
		return 0
	}
	var replay time.Duration
	found := make(map[string]int, len(sample))
	for i, p := range r.sys.racks {
		t0 := time.Now()
		rack, err := sealedbottle.OpenRack(p.cfg)
		replay += time.Since(t0)
		if err != nil {
			r.problem("reopen %s: %v", p.name, err)
			continue
		}
		st, err := rack.Stats(ctx)
		if err != nil || st.Recovered != uint64(held[i]) {
			r.problem("%s recovered %d bottles, held %d before the restart (%v)", p.name, st.Recovered, held[i], err)
		}
		for _, id := range sample {
			if _, err := rack.Fetch(ctx, id); err == nil {
				found[id]++
			} else if !errors.Is(err, sealedbottle.ErrUnknownBottle) {
				r.problem("%s: fetch %s after restart: %v", p.name, id, err)
			}
		}
		if err := rack.Close(); err != nil {
			r.problem("close %s: %v", p.name, err)
		}
	}
	for _, id := range sample {
		if found[id] != r.w.topo.replication {
			r.problem("bottle %s is on %d racks after the restart, want %d", id, found[id], r.w.topo.replication)
		}
	}
	return replay
}

// result is what a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload is one whole run: corpus, set-up cycles, the deployment under
// test, ageing and warm-up, the measured phase, the checks.
func runWorkload(w workload, opt options) (result, error) {
	r := &runner{w: w.scaled(opt.scale), opt: opt}
	res := result{Metrics: map[string]metric{}}
	var err error
	if r.corpus, err = newCorpus(opt.seed, r.w.distinct, r.w.standing); err != nil {
		return res, err
	}
	if r.w.topo.secured {
		if r.creds, err = newCredentials(); err != nil {
			return res, err
		}
	}
	printEnvironment(r)

	// The traced run reports no set-up time and skips the cycles.
	setup := 0.0
	var wrap func(int, sealedbottle.Backend) sealedbottle.Backend
	if opt.trace {
		for i := 0; i < numClients; i++ {
			r.tracers = append(r.tracers, newTracer())
		}
		wrap = func(c int, b sealedbottle.Backend) sealedbottle.Backend {
			return &tracedBackend{inner: b, tr: r.tracers[c], prefix: "rack.", aside: true}
		}
	} else if setup, err = r.setupSeconds(); err != nil {
		return res, err
	}

	dir, err := os.MkdirTemp(opt.workdir, "run-")
	if err != nil {
		return res, err
	}
	defer removeDir(dir)
	if r.sys, r.clients, err = r.start(dir, wrap); err != nil {
		return res, err
	}
	stopped := false
	defer func() {
		if !stopped {
			r.sys.stop()
		}
	}()
	r.preloaded = len(r.corpus.standing)
	ctx := context.Background()
	if err := r.age(ctx); err != nil {
		return res, err
	}
	total := time.Duration(opt.seconds * float64(time.Second))
	res.Attempted, res.Failed, _, _ = r.runFor(ctx, time.Duration(warmupShare*float64(total)))
	fmt.Printf("warm-up: %d ops untimed, %d failed\n", res.Attempted, res.Failed)

	var ph phase
	if opt.trace {
		if res.Metrics, ph, err = r.tracedPhases(ctx, total); err != nil {
			return res, err
		}
	} else {
		// The racks hold their own copies; the generator's should not count
		// as the system's live heap.
		r.corpus.standing = nil
		runtime.GC()
		for s := 0; s < segments; s++ {
			if err := r.segment(ctx, total/segments, &ph); err != nil {
				return res, err
			}
		}
		printPhase(ph)
		res.Metrics = endToEnd(&ph, setup)
	}
	res.Attempted += ph.ops
	res.Failed += ph.failed
	r.reconcile(ctx)
	stopped = true
	replay := r.restartCheck(ctx)
	if opt.trace {
		res.Metrics["wal.replay_s"] = metric{replay.Seconds(), "s"}
	}

	if float64(res.Failed) > maxFailedShare*float64(res.Attempted) {
		r.problem("%d of %d operations failed", res.Failed, res.Attempted)
	}
	for _, e := range r.opErrs {
		fmt.Println("failed op:", e)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res.Correct = len(r.problems) == 0
	fmt.Printf("ops_attempted %d\nops_failed %d\n", res.Attempted, res.Failed)
	printMetrics(res.Metrics)
	return res, nil
}

// endToEnd turns a measured phase into the eight end-to-end metrics. The live
// heap is read last, with the deployment still up and the latency samples
// dropped.
func endToEnd(ph *phase, setup float64) map[string]metric {
	ops := float64(ph.ops)
	host := ph.host()
	p50 := median(ph.latencies)
	ph.latencies = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]metric{
		"setup_s":           {setup, "s"},
		"op_per_s":          {median(ph.segRates) * host, "1/s"},
		"op_p50_ms":         {p50 / host, "ms"},
		"cpu_ms_per_op":     {median(ph.segCPU) / host, "ms"},
		"allocs_per_op":     {float64(ph.delta.mallocs) / ops, "count"},
		"wire_bytes_per_op": {float64(ph.delta.in+ph.delta.out) / ops, "bytes"},
		"wal_bytes_per_op":  {float64(ph.delta.walBytes) / ops, "bytes"},
		"live_heap_mb":      {float64(ms.HeapAlloc) / (1 << 20), "MiB"},
	}
}

func printEnvironment(r *runner) {
	fmt.Printf("workload %s seed %d seconds %g trace %v scale 1/%d\n", r.w.name, r.opt.seed, r.opt.seconds, r.opt.trace, r.opt.scale)
	fmt.Printf("go %s GOMAXPROCS %d nproc %d fsync interval transport loopback-TCP (no real link) clients %d closed-loop\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), numClients)
	fmt.Printf("racks %d replication %d secured %v shards 16 standing %d distinct %d\n",
		r.w.topo.racks, r.w.topo.replication, r.w.topo.secured, r.w.standing, r.w.distinct)
	fmt.Printf("corpus sha256 %s\n", r.corpus.sha)
	for i, h := range r.corpus.history {
		fmt.Printf("candidate %d: %d of %d distinct requests pass its prefilter\n", i, len(h), len(r.corpus.templates))
	}
}

func printPhase(ph phase) {
	fmt.Printf("measured: %d ops (%d latency samples) in %d segments, %.2f s\n", ph.ops, len(ph.latencies), len(ph.segRates), ph.wall.Seconds())
	fmt.Printf("segment op/s, as this host read: %.0f\n", ph.segRates)
	fmt.Printf("segment cpu ms/op, as this host read: %.4f\n", ph.segCPU)
	fmt.Printf("as this host read: op_per_s %.1f, op_p50_ms %.4f, cpu_ms_per_op %.4f\n", median(ph.segRates), median(ph.latencies), median(ph.segCPU))
	fmt.Printf("host.calib_ms %.3f (median of %d spins; reference %.1f; the three timings are scaled by %.3f)\n",
		median(ph.spins), len(ph.spins), calibRefMS, ph.host())
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}
