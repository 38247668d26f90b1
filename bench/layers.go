package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sealedbottle"
)

// Per-layer metrics come from outside the program: spans the benchmark
// records around its own calls into each layer, counters the program already
// exports, and probes that replay recorded inputs against one layer's public
// functions. A metric of a layer the workload does not touch reads 0.

// serverLatency reads the servers' per-opcode dispatch histograms from the
// registry's exposition: seconds summed and calls counted, by opcode.
func serverLatency(reg *sealedbottle.ObsRegistry) (sum map[string]float64, count map[string]float64, err error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, nil, err
	}
	sum, count = map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "sealedbottle_op_latency_seconds_")
		if !ok {
			continue
		}
		kind, rest, _ := strings.Cut(rest, `{op="`)
		op, value, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		switch kind {
		case "sum":
			sum[op] = v
		case "count":
			count[op] = v
		}
	}
	return sum, count, sc.Err()
}

// wireCalls maps a span's call name to the opcodes that serve it.
var wireCalls = map[string][]string{
	"submit": {"submit", "submit_batch"},
	"sweep":  {"sweep"},
	"reply":  {"reply", "reply_batch"},
	"fetch":  {"fetch", "fetch_batch"},
	"remove": {"remove"},
}

// spanStats indexes the clients' spans by name.
type spanStats struct {
	dur  map[string][]float64 // microseconds
	self map[string][]float64 // microseconds
	// slowestChild is, per span of a name, its longest child's duration.
	slowestChild map[string][]float64
}

func indexSpans(tracers []*tracer) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}, slowestChild: map[string][]float64{}}
	for _, t := range tracers {
		self := selfTimes(t.spans)
		slowest := make(map[int]float64)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				slowest[s.Parent] = max(slowest[s.Parent], float64(s.dur())/1e3)
			}
		}
		for i, s := range t.spans {
			st.dur[s.Name] = append(st.dur[s.Name], float64(s.dur())/1e3)
			st.self[s.Name] = append(st.self[s.Name], float64(self[i])/1e3)
			if d, ok := slowest[i]; ok {
				st.slowestChild[s.Name] = append(st.slowestChild[s.Name], d)
			}
		}
	}
	return st
}

// clientTotals sums the clients' running tallies.
type clientTotals struct {
	acked, removed, fetched, extraTicks, evaluated, matches, submittedBytes int
	seen                                                                    float64
	dedup, repairs                                                          uint64
}

func (r *runner) clientTotals(ctx context.Context) (clientTotals, error) {
	var t clientTotals
	for i, c := range r.clients {
		t.acked += c.acked
		t.removed += c.removed
		t.fetched += c.fetched
		t.extraTicks += c.extraTicks
		t.submittedBytes += c.submittedBytes
		if c.cand != nil {
			t.evaluated += c.cand.evaluated
			t.matches += c.cand.matches
			t.seen += float64(c.cand.seen) / float64(len(r.clients))
		}
		if ring := r.sys.endpoints[i].ring; ring != nil {
			st, err := ring.Stats(ctx)
			if err != nil {
				return t, err
			}
			// Rack-side replication counters come back once per client; the
			// ring's own dedup and repair counts are what differ.
			t.dedup += st.Replication.ReplicaDedup
			t.repairs += st.Replication.ReadRepairs
		}
	}
	return t, nil
}

// tracedPhases runs the traced run's measured segments, spans off and spans
// on in turn, then the probes, and returns the per-layer metrics and a phase
// that counts the operations of both kinds of segment.
func (r *runner) tracedPhases(ctx context.Context, total time.Duration) (map[string]metric, phase, error) {
	const segs = 5
	d := time.Duration(traceShare*float64(total)) / segs
	sum0, count0, err := serverLatency(r.sys.registry)
	if err != nil {
		return nil, phase{}, err
	}
	tot0, err := r.clientTotals(ctx)
	if err != nil {
		return nil, phase{}, err
	}
	// Spans off and spans on alternate segment by segment, so that a host
	// that speeds up or slows down during the run does so for both. Metrics
	// read from spans cover the traced segments; metrics read from counters
	// cover both kinds.
	var plain, traced phase
	runtime.GC()
	for s := 0; s < segs; s++ {
		if err := r.segment(ctx, d, &plain); err != nil {
			return nil, traced, err
		}
		for _, t := range r.tracers {
			t.setOn(true)
		}
		err := r.segment(ctx, d, &traced)
		for _, t := range r.tracers {
			t.setOn(false)
		}
		if err != nil {
			return nil, traced, err
		}
	}
	sum1, count1, err := serverLatency(r.sys.registry)
	if err != nil {
		return nil, traced, err
	}
	tot1, err := r.clientTotals(ctx)
	if err != nil {
		return nil, traced, err
	}
	delta := plain.delta
	delta.add(counters{}, traced.delta) // both kinds of segment
	spanFile := filepath.Join(r.opt.workdir, fmt.Sprintf("spans-%s-%d.json", r.w.name, r.opt.seed))
	if err := writeSpans(spanFile, r.tracers); err != nil {
		return nil, traced, err
	}
	fmt.Printf("spans written to %s\n", spanFile)
	fmt.Printf("untraced phase: %d ops, traced phase: %d ops, %d latency samples\n", plain.ops, traced.ops, len(traced.latencies))

	st := indexSpans(r.tracers)
	ops := float64(plain.ops + traced.ops)
	ringed := r.w.topo.racks > 1
	wire := "client." // the spans that are wire calls
	if ringed {
		wire = "rack."
	}
	// server is the mean dispatch latency of the opcodes behind a call, in
	// microseconds.
	server := func(call string) float64 {
		var s, n float64
		for _, op := range wireCalls[call] {
			s += sum1[op] - sum0[op]
			n += count1[op] - count0[op]
		}
		return ratio(s*1e6, n)
	}
	overhead := func(call string) float64 {
		if len(st.dur[wire+call]) == 0 {
			return 0
		}
		return mean(st.dur[wire+call]) - server(call)
	}
	us := func(v float64) metric { return metric{v, "us"} }
	count := func(v float64) metric { return metric{v, "count"} }
	share := func(v float64) metric { return metric{v, "ratio"} }

	m := map[string]metric{}
	// core: the initiator's and the candidate's own computation.
	evaluated := float64(tot1.evaluated - tot0.evaluated)
	m["core.build_us"] = us(median(st.dur["core.build"]))
	m["core.evaluate_us"] = us(ratio(sum(st.self["client.tick"]), evaluated))
	m["core.verify_us"] = us(median(st.dur["core.verify"]))
	m["core.evaluated_per_op"] = count(evaluated / ops)
	m["core.match_ratio"] = share(ratio(float64(tot1.matches-tot0.matches), evaluated))

	// client: what the benchmark's calls into the SDK take, as called.
	for _, call := range []string{"submit", "sweep", "reply", "fetch", "remove"} {
		m["client."+call+"_us"] = us(median(st.dur["client."+call]))
	}
	m["client.tick_us"] = us(median(st.dur["client.tick"]))
	m["client.op_p99_ms"] = metric{percentile(traced.latencies, 0.99), "ms"}
	m["client.extra_ticks_per_op"] = count(float64(tot1.extraTicks-tot0.extraTicks) / ops)
	m["client.seen_window_len"] = count(tot1.seen)

	// transport: a wire call as the client sees it, less the server's own
	// dispatch time for it; means, because the server exports no median.
	m["transport.submit_overhead_us"] = us(overhead("submit"))
	m["transport.sweep_overhead_us"] = us(overhead("sweep"))
	m["transport.fetch_overhead_us"] = us(overhead("fetch"))
	m["transport.server_submit_us"] = us(server("submit"))
	m["transport.server_sweep_us"] = us(server("sweep"))
	m["transport.server_reply_batch_us"] = us(server("reply"))
	m["transport.server_fetch_us"] = us(server("fetch"))
	m["transport.bytes_out_per_op"] = metric{float64(delta.out) / ops, "bytes"}
	m["transport.bytes_in_per_op"] = metric{float64(delta.in) / ops, "bytes"}

	// shard: the racks' own sweep counters.
	sweeps := count1["sweep"] - count0["sweep"]
	m["shard.scanned_per_sweep"] = count(ratio(float64(delta.scanned), sweeps))
	m["shard.returned_per_sweep"] = count(ratio(float64(delta.returned), sweeps))
	m["shard.prefilter_reject_ratio"] = share(ratio(float64(delta.rejected), float64(delta.scanned)))

	// wal: every acknowledged submit, reply, fetch and remove is one record
	// on each replica, and every fetched reply was posted once and drained
	// once.
	fetched := tot1.fetched - tot0.fetched
	records := (tot1.acked - tot0.acked) + (tot1.removed - tot0.removed) + 2*fetched
	m["wal.bytes_per_record"] = metric{ratio(float64(delta.walBytes), float64(records*r.w.topo.replication)), "bytes"}
	m["wal.write_amplification"] = share(ratio(float64(delta.walBytes), float64(tot1.submittedBytes-tot0.submittedBytes)))

	// ring: the ring's own share of a call, and its fan-out.
	ringSelf := func(call string) float64 {
		if !ringed {
			return 0
		}
		return median(st.self["client."+call])
	}
	m["ring.submit_self_us"] = us(ringSelf("submit"))
	m["ring.sweep_self_us"] = us(ringSelf("sweep"))
	m["ring.fetch_self_us"] = us(ringSelf("fetch"))
	rackCalls := 0
	for call := range wireCalls {
		rackCalls += len(st.dur["rack."+call])
	}
	m["ring.sweep_slowest_rack_us"] = us(median(st.slowestChild["client.sweep"]))
	m["ring.rack_calls_per_op"] = count(float64(rackCalls) / float64(traced.ops))
	m["ring.replica_dedup_per_op"] = count(float64(tot1.dedup-tot0.dedup) / ops)
	m["ring.read_repairs_total"] = count(float64(tot1.repairs))

	// runtime
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.gc_cpu_share"] = share(ratio(delta.gcCPU, delta.cpu.Seconds()))
	m["runtime.gc_cycles"] = count(float64(delta.numGC))
	m["runtime.heap_peak_mb"] = metric{float64(ms.HeapSys) / (1 << 20), "MiB"}

	// budget: the part of an operation's wall time no layer's span covers is
	// the benchmark's own glue and the scheduler's gaps.
	m["budget.unaccounted_share"] = share(ratio(sum(st.self["op"]), sum(st.dur["op"])))
	m["trace.overhead_share"] = share(1 - ratio(median(traced.segRates), median(plain.segRates)))
	m["host.calib_ms"] = metric{median(append(plain.spins, traced.spins...)), "ms"}

	m["auth.shed_total"] = count(0)
	if r.sys.admission != nil {
		m["auth.shed_total"] = count(float64(r.sys.admission.Shed()))
	}
	if err := r.probes(ctx, m); err != nil {
		return nil, traced, err
	}
	traced.ops += plain.ops
	traced.failed += plain.failed
	return m, traced, nil
}
