package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"sync/atomic"
	"testing"

	"sealedbottle/internal/core"
)

func TestPercentile(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(values, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if values[0] != 5 {
		t.Error("percentile reordered its argument")
	}
	if got := median([]float64{10, 20}); got != 15 {
		t.Errorf("median of two = %v, want 15", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A slow segment must not move the reported throughput: it is the median
// segment's.
func TestSegmentMedianIgnoresOneStall(t *testing.T) {
	ph := phase{segRates: []float64{100, 101, 99, 100, 12, 100, 102, 98, 100, 100}}
	if got := median(ph.segRates); got != 100 {
		t.Errorf("median segment rate = %v, want 100", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "call", Start: 0, End: 100, Parent: -1},
		{Name: "rack", Start: 10, End: 60, Parent: 0},
		{Name: "rack", Start: 40, End: 80, Parent: 0},  // overlaps the first
		{Name: "rack", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "leaf", Start: 20, End: 30, Parent: 1},
	}
	self := selfTimes(spans)
	// Children cover [10,80] and [90,100] of the parent: 80 of 100.
	if self[0] != 20 {
		t.Errorf("parent self time = %d, want 20", self[0])
	}
	if self[1] != 40 || self[2] != 40 || self[4] != 10 {
		t.Errorf("self times = %v", self)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("nothing")) // a nil tracer records nothing and does not panic
	tr := newTracer()
	if tr.begin("off") != -1 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.setOn(true)
	op := tr.begin("op")
	call := tr.begin("client.sweep")
	a, b := tr.beginAside("rack.sweep"), tr.beginAside("rack.sweep")
	tr.end(a)
	tr.end(b)
	tr.end(call)
	next := tr.begin("client.fetch")
	tr.end(next)
	tr.end(op)
	want := []int{-1, op, call, call, op}
	for i, s := range tr.spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s) has parent %d, want %d", i, s.Name, s.Parent, want[i])
		}
		if s.Op != 1 || s.End < s.Start {
			t.Errorf("span %d: op %d, [%d,%d]", i, s.Op, s.Start, s.End)
		}
	}
}

func TestCountingConnTotals(t *testing.T) {
	a, b := net.Pipe()
	var in, out atomic.Int64
	c := countingConn{Conn: a, in: &in, out: &out}
	go func() {
		io.CopyN(io.Discard, b, 1000)
		b.Write(make([]byte, 300))
		b.Close()
	}()
	if _, err := c.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(c); err != nil {
		t.Fatal(err)
	}
	if in.Load() != 300 || out.Load() != 1000 {
		t.Errorf("counted %d in, %d out; want 300 and 1000", in.Load(), out.Load())
	}
}

func TestCorpusIsMadeFromTheSeedAlone(t *testing.T) {
	a, err := newCorpus(7, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newCorpus(7, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.sha != b.sha {
		t.Errorf("one seed, two corpora: %s and %s", a.sha, b.sha)
	}
	other, err := newCorpus(8, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	if other.sha == a.sha {
		t.Error("two seeds gave one corpus")
	}
	ids := map[string]bool{}
	for i, raw := range a.standing {
		v, err := core.UnmarshalPackageView(raw)
		if err != nil {
			t.Fatalf("standing bottle %d does not parse: %v", i, err)
		}
		if v.ID != a.standingIDs[i] || ids[v.ID] {
			t.Fatalf("standing bottle %d carries ID %q, want the unique %q", i, v.ID, a.standingIDs[i])
		}
		ids[v.ID] = true
	}
	for c, hist := range a.history {
		if len(hist) == 0 {
			t.Errorf("candidate %d has no history template", c)
		}
	}
}

// Every workload runs end to end at a hundredth of its size, spans off and
// spans on, passes its own correctness gate under two seeds, and prints the
// metrics BENCHMARK.json promises.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Skipf("no benchmark contract beside the package: %v", err)
	}
	var spec struct {
		benchmarkSpec
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%s names %d workloads, the benchmark has %d", benchmarkFile, len(spec.Workloads), len(workloads))
	}
	for i, named := range spec.Workloads {
		w, err := findWorkload(named.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			opt := options{seed: int64(1 + i%2), seconds: 0.2, trace: trace, scale: 100, workdir: t.TempDir()}
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				// Predictions: a layer off the workload's path reads 0, a
				// layer on it does not.
				value := func(name string) float64 { return res.Metrics[name].Value }
				if ringed := w.topo.racks > 1; (value("ring.rack_calls_per_op") > 0) != ringed || (value("ring.replica_dedup_per_op") > 0) != ringed {
					t.Errorf("%s: ring metrics %v/%v, ringed=%v", w.name, value("ring.rack_calls_per_op"), value("ring.replica_dedup_per_op"), ringed)
				}
				if (value("client.tick_us") > 0) != w.candidates || (!w.candidates && value("core.evaluated_per_op") != 0) {
					t.Errorf("%s: core.evaluated_per_op %v, client.tick_us %v, candidates=%v", w.name, value("core.evaluated_per_op"), value("client.tick_us"), w.candidates)
				}
				if (value("auth.handshake_ms") > 0) != w.topo.secured || value("auth.shed_total") != 0 {
					t.Errorf("%s: auth.handshake_ms %v, auth.shed_total %v, secured=%v", w.name, value("auth.handshake_ms"), value("auth.shed_total"), w.topo.secured)
				}
				if value("client.submit_us") <= 0 || value("wal.bytes_per_record") <= 0 || value("wal.replay_s") <= 0 {
					t.Errorf("%s: client.submit_us %v, wal.bytes_per_record %v, wal.replay_s %v", w.name, value("client.submit_us"), value("wal.bytes_per_record"), value("wal.replay_s"))
				}
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %s lists %d", w.name, trace, len(res.Metrics), benchmarkFile, len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s: printed %v (unit %q), want unit %q", w.name, trace, name, ok, got.Unit, unit)
				}
			}
		}
	}
}
