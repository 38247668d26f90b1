package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/core"
)

// assertGoroutinesReturn waits (with retries — runtime teardown is
// asynchronous) for the goroutine count to come back to the baseline
// captured before the test created anything.
func assertGoroutinesReturn(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scriptMuxServer serves raw multiplexed framing on accepted connections:
// OpSweep requests are swallowed (never answered — a stuck heavy query),
// everything else gets an immediate empty-ish success, so a call abandoned by
// its context can be followed by a working call on the same connection.
func scriptMuxServer(t *testing.T, l *transport.PipeListener) {
	t.Helper()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var magic [4]byte
				if _, err := io.ReadFull(conn, magic[:]); err != nil {
					return
				}
				for {
					var lenBuf [4]byte
					if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
						return
					}
					frame := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
					if _, err := io.ReadFull(conn, frame); err != nil {
						return
					}
					seq, op := binary.BigEndian.Uint64(frame[:8]), frame[8]
					if op == transport.OpSweep {
						continue // scripted stall: never answer this one
					}
					var body []byte
					if op == transport.OpStats {
						body = broker.MarshalStats(broker.Stats{})
					}
					resp := make([]byte, 0, 13+len(body))
					resp = binary.BigEndian.AppendUint32(resp, uint32(9+len(body)))
					resp = binary.BigEndian.AppendUint64(resp, seq)
					resp = append(resp, 0) // statusOK
					resp = append(resp, body...)
					if _, err := conn.Write(resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
}

// TestCourierCancelMidSweep is the headline cancellation contract: canceling
// a context mid-Sweep returns promptly (well under the call timeout), the
// abandoned call does not poison the pooled multiplexed connection — the
// very next call reuses it and succeeds — and closing everything returns the
// goroutine count to baseline.
func TestCourierCancelMidSweep(t *testing.T) {
	baseline := runtime.NumGoroutine()

	l := transport.ListenPipe()
	scriptMuxServer(t, l)
	var dials atomic.Int32
	c, err := Dial(Config{
		Dialer:      func() (net.Conn, error) { dials.Add(1); return l.Dial() },
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Sweep(ctx, broker.SweepQuery{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Sweep = %v, want errors.Is context.Canceled", err)
	}
	var ab *transport.AbandonedError
	if !errors.As(err, &ab) {
		t.Fatalf("canceled Sweep = %v, want AbandonedError (connection must survive)", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("canceled Sweep took %v, want prompt return (well under the 30s call timeout)", elapsed)
	}

	// The connection remains usable for the next call, on the same dial.
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats after canceled Sweep: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("courier redialed after a canceled call: %d dials, want 1", got)
	}

	c.Close()
	l.Close()
	assertGoroutinesReturn(t, baseline)
}

// TestCourierPerCallTimeoutLeavesConnection proves the per-call timeout
// abandons only the slow call while the connection keeps serving: background
// traffic keeps flowing (renewing the progress deadline), the stalled Sweep
// alone errors — wrapping ErrCallTimeout inside an AbandonedError — and the
// next call reuses the same dial. (Without any other traffic a stalled call
// and a dead peer are indistinguishable, and the progress deadline correctly
// fails the whole connection instead.)
func TestCourierPerCallTimeoutLeavesConnection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	l := transport.ListenPipe()
	scriptMuxServer(t, l)
	var dials atomic.Int32
	c, err := Dial(Config{
		Dialer:      func() (net.Conn, error) { dials.Add(1); return l.Dial() },
		CallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Background pinger: responses keep arriving, so the connection-level
	// progress deadline keeps renewing while the Sweep stalls.
	pingerDone := make(chan struct{})
	stopPing := make(chan struct{})
	go func() {
		defer close(pingerDone)
		for {
			select {
			case <-stopPing:
				return
			case <-time.After(15 * time.Millisecond):
				c.Stats(context.Background())
			}
		}
	}()

	_, err = c.Sweep(context.Background(), broker.SweepQuery{})
	close(stopPing)
	<-pingerDone
	if !errors.Is(err, transport.ErrCallTimeout) {
		t.Fatalf("stalled Sweep = %v, want errors.Is ErrCallTimeout", err)
	}
	var ab *transport.AbandonedError
	if !errors.As(err, &ab) {
		t.Fatalf("stalled Sweep = %v, want AbandonedError (per-call bound, not connection death)", err)
	}
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats after per-call timeout: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("courier redialed after a per-call timeout: %d dials, want 1", got)
	}
	c.Close()
	l.Close()
	assertGoroutinesReturn(t, baseline)
}

// blockingBackend blocks Sweep and both forms of Submit, Reply and Fetch
// until the caller's context ends, standing in for an arbitrarily slow
// rack; everything else delegates to a real in-process rack.
type blockingBackend struct {
	*broker.Rack
}

func (b *blockingBackend) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	<-ctx.Done()
	return broker.SweepResult{}, ctx.Err()
}

func (b *blockingBackend) Submit(ctx context.Context, raw []byte) (string, error) {
	<-ctx.Done()
	return "", ctx.Err()
}

func (b *blockingBackend) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (b *blockingBackend) Reply(ctx context.Context, id string, raw []byte) error {
	<-ctx.Done()
	return ctx.Err()
}

func (b *blockingBackend) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (b *blockingBackend) Fetch(ctx context.Context, id string) ([][]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (b *blockingBackend) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestRingCancelMidFanout cancels a context while Ring fan-outs are blocked
// on a slow rack: Sweep and the lists must return promptly with the
// context's error — a one-item SubmitBatch reaches the rack as its single
// Submit, two-item ReplyBatch and FetchBatch as its list calls, and every
// item of those carries the context's error — the rack must not be ejected
// (a canceled call is not a rack fault), and closing the ring returns the
// goroutine count to baseline.
func TestRingCancelMidFanout(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	ring, err := NewRing(RingConfig{
		ProbeInterval: -1,
		Backends:      []RingBackend{{Name: "slow", Backend: &blockingBackend{rack}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// each checks that every item of a list carries the context's error.
	each := func(errs ...error) error {
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("item %d = %v, want context.Canceled", i, err)
			}
		}
		return nil
	}
	ids := []string{"1111111111111111", "2222222222222222"}

	for _, op := range []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"Sweep", func(ctx context.Context) error {
			_, err := ring.Sweep(ctx, broker.SweepQuery{Residues: chessResidues(t)})
			return err
		}},
		{"SubmitBatch", func(ctx context.Context) error {
			raw, _ := buildRaw(t, 31_000)
			res, err := ring.SubmitBatch(ctx, [][]byte{raw})
			if e := each(res[0].Err); e != nil {
				return e
			}
			return err
		}},
		{"ReplyBatch", func(ctx context.Context) error {
			reply := (&core.Reply{RequestID: ids[0], From: "bob", SentAt: time.Now()}).Marshal()
			errs, err := ring.ReplyBatch(ctx, []broker.ReplyPost{{RequestID: ids[0], Raw: reply}, {RequestID: ids[1], Raw: reply}})
			if e := each(errs...); e != nil {
				return e
			}
			return err
		}},
		{"FetchBatch", func(ctx context.Context) error {
			res, err := ring.FetchBatch(ctx, ids)
			if e := each(res[0].Err, res[1].Err); e != nil {
				return e
			}
			return err
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		err := op.call(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under cancellation = %v, want context.Canceled", op.name, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%s took %v after cancellation, want prompt return", op.name, elapsed)
		}
	}
	if h := ring.Health(); h[0].Down || h[0].ConsecutiveFails != 0 {
		t.Fatalf("canceled calls counted against rack health: %+v", h)
	}

	ring.Close()
	rack.Close()
	assertGoroutinesReturn(t, baseline)
}
