package transport

import (
	"strings"
	"testing"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/obs"
)

func TestOpNames(t *testing.T) {
	for op := byte(1); op <= OpAdmin; op++ {
		name := OpName(op)
		if name == "unknown" || name == "" {
			t.Errorf("OpName(%d) = %q, want a real name", op, name)
		}
	}
	if OpName(0) != "unknown" || OpName(OpAdmin+1) != "unknown" {
		t.Error("out-of-range opcodes must map to unknown")
	}
}

// TestMetricsRecordAllocFree pins the instrumentation wrappers to zero
// allocations: metrics on the hot path must not cost what they measure.
func TestMetricsRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	reg := obs.NewRegistry()
	sm := NewServerMetrics(reg)
	cm := NewClientMetrics(reg)
	start := time.Now()

	requireZeroAllocs(t, "server record ok", func() {
		sm.record(OpSubmit, start, 512, 16, nil)
	})
	requireZeroAllocs(t, "server record error", func() {
		sm.record(OpSubmit, start, 512, 16, broker.ErrDraining)
	})
	requireZeroAllocs(t, "client record ok", func() {
		cm.record(OpSweep, start, nil)
	})
	requireZeroAllocs(t, "client record error", func() {
		cm.record(OpSweep, start, broker.ErrOverload)
	})
}

// TestServerMetricsEndToEnd drives a metrics-mounted server over the wire and
// checks the per-opcode series and refusal counters show up in the
// exposition.
func TestServerMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
	l := ListenPipe()
	srv := NewServer(rack, ServerOptions{Metrics: NewServerMetrics(reg)})
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Close()
		rack.Close()
	})
	m := dialMuxPipe(t, l, Options{Metrics: NewClientMetrics(reg)})

	raw, _ := buildRaw(t, 7)
	if _, err := m.Submit(t.Context(), raw); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(t.Context(), raw); err == nil {
		t.Fatal("duplicate submit succeeded")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`sealedbottle_op_requests_total{op="submit"} 2`,
		`sealedbottle_op_errors_total{op="submit"} 1`,
		`sealedbottle_client_op_errors_total{op="submit"} 1`,
		`sealedbottle_op_latency_seconds_count{op="submit"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
