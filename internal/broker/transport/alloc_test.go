package transport

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"sealedbottle/internal/broker"
)

// Allocation budgets for the steady-state framing paths. Frames ride pooled
// buffers, so a warmed write is alloc-free; the server-side pooled read is
// alloc-free too. The client's resumable decoder (frameReader) is
// deliberately NOT pinned at zero: it allocates one buffer per response by
// design, because body ownership passes to the caller whose zero-copy
// decodes alias it indefinitely. Its length prefix lives on the Mux, so that
// buffer is all it allocates.

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestFramingAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	body := bytes.Repeat([]byte{0xcd}, 900)

	w := newMuxWriter(discardConn{}, func() time.Time { return time.Time{} }, func(err error) { t.Fatal(err) })
	requireZeroAllocs(t, "mux frame write", func() {
		w.send(newMuxFrame(7, OpSubmit, body), true)
	})

	encoded := *newMuxFrame(9, OpReply, body)
	rd := bytes.NewReader(encoded)
	requireZeroAllocs(t, "mux frame pooled read", func() {
		rd.Reset(encoded)
		seq, tag, got, buf, err := readMuxFramePooled(rd)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 9 || tag != OpReply || !bytes.Equal(got, body) {
			t.Fatal("pooled read corrupted the frame")
		}
		putMuxBuf(buf)
	})
}

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// noDeadlineConn ignores deadlines: net.Pipe arms a timer per deadline set,
// which a TCP connection does not, and that is not the Mux's to budget.
type noDeadlineConn struct{ net.Conn }

func (noDeadlineConn) SetReadDeadline(time.Time) error  { return nil }
func (noDeadlineConn) SetWriteDeadline(time.Time) error { return nil }

// muxRoundTripAllocs is the budget for one Remove round trip over a Mux with
// a per-call timeout, client and server together. The writers, frames,
// request buffers and the call's channel and timer are pooled, and the
// request ID's bytes stay on the caller's stack; what is left is the
// response body the caller owns and the server's one-byte response.
const muxRoundTripAllocs = 2

func TestMuxRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
	defer rack.Close()
	l := ListenPipe()
	defer l.Close()
	srv := NewServer(rack)
	defer srv.Close()
	go srv.Serve(l)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(noDeadlineConn{conn}, Options{CallTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	avg := testing.AllocsPerRun(500, func() {
		if _, err := m.Remove(ctx, "nope"); err != nil {
			t.Fatal(err)
		}
	})
	if avg > muxRoundTripAllocs {
		t.Errorf("Mux round trip: %v allocs, want ≤ %d", avg, muxRoundTripAllocs)
	}
}
