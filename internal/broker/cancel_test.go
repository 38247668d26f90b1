package broker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRackHonorsCanceledContext proves every Backend method returns the
// context's error instead of touching the rack once the context has ended,
// and that a batch canceled partway marks unapplied items with the error.
func TestRackHonorsCanceledContext(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 4)
	defer rack.Close()
	rng := rand.New(rand.NewSource(61))
	raw, _ := buildRawPackage(t, rng, clock, "alice", interests("chess"), nil, 0)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw2, _ := buildRawPackage(t, rng, clock, "bob", interests("go"), nil, 0)
	if _, err := rack.Submit(ctx, raw2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v", err)
	}
	if _, err := rack.Sweep(ctx, SweepQuery{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep = %v", err)
	}
	if err := rack.Reply(ctx, "x", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reply = %v", err)
	}
	if _, err := rack.Fetch(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fetch = %v", err)
	}
	if _, err := rack.Remove(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Remove = %v", err)
	}
	if _, err := rack.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stats = %v", err)
	}
	if _, err := rack.SubmitBatch(ctx, [][]byte{raw}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitBatch = %v", err)
	}
	if _, err := rack.ReplyBatch(ctx, []ReplyPost{{RequestID: "x"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplyBatch = %v", err)
	}
	if _, err := rack.FetchBatch(ctx, []string{"x"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FetchBatch = %v", err)
	}

	// Nothing above touched the rack: exactly one bottle remains.
	st, err := rack.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Held != 1 || st.Totals.Submitted != 1 {
		t.Fatalf("canceled calls mutated the rack: %+v", st.Totals)
	}
}

// goroutinesWith counts the goroutines whose stacks name every one of fns.
func goroutinesWith(fns ...string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		all := true
		for _, fn := range fns {
			all = all && strings.Contains(g, fn)
		}
		if all {
			count++
		}
	}
	return count
}

// waitUntil polls cond until it holds, failing the test after ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepCancelReleasesHeldWindowOnce cancels a window sweep while a
// helping worker holds a claim — parked on a shard lock the test holds — and
// shards are still unclaimed. The caller must return at once, the window must
// stay busy until the worker reports its claim, and it must then be released
// exactly once: the next deltas are accepted, not resynced, and none finds
// the window stuck.
func TestSweepCancelReleasesHeldWindowOnce(t *testing.T) {
	clock := newTestClock()
	const n = 4000
	rack, rs, all := windowRack(t, Config{Shards: 4, Workers: 2, ReapInterval: -1, Now: clock.Now}, clock, n)
	defer rack.Close()
	const handle = 7
	query := func(base uint64, full bool, seen ...string) SweepQuery {
		return SweepQuery{Residues: rs, Limit: n, Window: handle, SeenBase: base, SeenFull: full, Seen: seen}
	}
	if res, err := rack.Sweep(context.Background(), query(0, true)); err != nil || res.Resync {
		t.Fatalf("full sweep: resync %v, %v", res.Resync, err)
	}
	rack.windows.mu.Lock()
	held := rack.windows.byKey[windowKey{handle: handle}]
	rack.windows.mu.Unlock()

	// Stacks print the receiver, so these match this rack's goroutines only.
	worker := fmt.Sprintf("broker.(*Rack).worker(%p", rack)
	caller := fmt.Sprintf("broker.(*Rack).Sweep(%p", rack)
	const scan, parked = "broker.(*shard).sweep", "lockSlow"
	base := uint64(0)
	// Shards 1 and 2 are held. The caller scans shard 0 (a thousand bottles)
	// while the worker it posted to wakes and claims shard 1; the caller then
	// parks on shard 2, is canceled, and is let through: it stops with shard
	// 3 unclaimed. If instead the caller claimed shard 1, that sweep is let
	// finish and the setup tried again.
	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			t.Skip("the worker never claimed shard 1 before the caller")
		}
		waitUntil(t, "idle workers", func() bool {
			return goroutinesWith(worker) == 2 && goroutinesWith(worker, scan) == 0
		})
		rack.shards[1].mu.Lock()
		rack.shards[2].mu.Lock()
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		q := query(base, false, all[base])
		go func() {
			_, err := rack.Sweep(ctx, q)
			errc <- err
		}()
		base++
		waitUntil(t, "the caller and the worker parked", func() bool {
			return goroutinesWith(worker, scan, parked) == 1 && goroutinesWith(caller, scan, parked) == 1
		})
		cancel()
		rack.shards[2].mu.Unlock()
		var err error
		waitUntil(t, "shard 2's claimant to move on", func() bool {
			select {
			case err = <-errc:
				return true
			default:
				return goroutinesWith(worker, scan, parked) == 0
			}
		})
		if goroutinesWith(worker, scan, parked) == 0 { // the worker had shard 2
			rack.shards[1].mu.Unlock()
			<-errc
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled sweep = %v", err)
		}
		if len(held.busy) != 1 {
			t.Fatal("window released while the worker still held a claim")
		}
		rack.shards[1].mu.Unlock()
		waitUntil(t, "the worker to report its claim", func() bool { return len(held.busy) == 0 })
		break
	}

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := rack.Sweep(ctx, query(base, false, all[base]))
		cancel()
		if err != nil || res.Resync {
			t.Fatalf("delta %d after the canceled sweep: resync %v, %v", i, res.Resync, err)
		}
		base++
		if got := len(res.Bottles); got != n-int(base) {
			t.Fatalf("delta %d swept %d bottles, want %d", i, got, n-int(base))
		}
		if len(held.busy) != 0 {
			t.Fatalf("delta %d left the window busy", i)
		}
	}
}
