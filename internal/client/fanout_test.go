package client

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/core"
)

// fanWorkers counts the goroutines running a ring's fan-out worker, of any
// ring.
func fanWorkers() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "client.(*Ring).fanWorker") {
			n++
		}
	}
	return n
}

// waitFanWorkers polls until at most want fan-out workers run.
func waitFanWorkers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := fanWorkers()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fan-out workers running, want at most %d", n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRingEachRunsEveryIndexOnce covers the fan-out's edge sizes: none, the
// caller's index alone, and more indexes than the park cap.
func TestRingEachRunsEveryIndexOnce(t *testing.T) {
	ring, _, _ := testCluster(t, 1, 1)
	for _, n := range []int{0, 1, 2, 3, fanPark + 3} {
		hits := make([]atomic.Int32, n)
		ring.each(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("each(%d): index %d ran %d times", n, i, got)
			}
		}
	}
}

// TestRingEachBurstKeepsParkCap runs more concurrent fan-outs than the park
// cap, all in flight at once: every one completes, and once they have, no
// more than fanPark workers stay parked.
func TestRingEachBurstKeepsParkCap(t *testing.T) {
	ring, _, _ := testCluster(t, 1, 1)
	const callers = 4 * fanPark
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(callers * 2) // every index but each call's last runs on a worker
	var done sync.WaitGroup
	var ran atomic.Int32
	for range callers {
		done.Add(1)
		go func() {
			defer done.Done()
			ring.each(3, func(i int) {
				if i < 2 {
					started.Done()
					<-release
				}
				ran.Add(1)
			})
		}()
	}
	started.Wait()
	if n := fanWorkers(); n < callers*2 {
		t.Fatalf("%d fan-out workers with %d jobs blocked, want one per job", n, callers*2)
	}
	close(release)
	done.Wait()
	if got := ran.Load(); got != callers*3 {
		t.Fatalf("%d indexes ran, want %d", got, callers*3)
	}
	waitFanWorkers(t, fanPark)
	if p := ring.parked.Load(); p > fanPark {
		t.Fatalf("%d workers parked, cap %d", p, fanPark)
	}
	// The parked workers take the next burst without starting new ones.
	ring.each(3, func(int) {})
	if n := fanWorkers(); n > fanPark {
		t.Fatalf("%d fan-out workers after a small fan-out, want at most %d", n, fanPark)
	}
}

// TestRingParkedWorkerHoldsNoJob proves a parked worker pins nothing of the
// last fan-out it ran: a page the job's closure held is collectable once
// the call has returned.
func TestRingParkedWorkerHoldsNoJob(t *testing.T) {
	ring, _, _ := testCluster(t, 1, 1)
	var page weak.Pointer[[64]broker.SweptBottle]
	func() {
		bottles := new([64]broker.SweptBottle)
		page = weak.Make(bottles)
		ring.each(3, func(i int) { bottles[i].Seq = uint64(i) })
	}()
	for deadline := time.Now().Add(3 * time.Second); ring.parked.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the call's workers did not park")
		}
	}
	for range 10 {
		runtime.GC()
		if page.Value() == nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("a parked fan-out worker keeps the last job's page alive")
}

// TestRingNestedAsBackend runs a ring whose members are rings: an inner
// ring's fan-out runs on the outer ring's workers and starts its own.
func TestRingNestedAsBackend(t *testing.T) {
	inner := func() *Ring {
		ring, _, _ := testCluster(t, 2, 1)
		return ring
	}
	outer, err := NewRing(RingConfig{ProbeInterval: -1, Backends: []RingBackend{
		{Name: "east", Backend: inner()},
		{Name: "west", Backend: inner()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer outer.Close()
	ctx := context.Background()
	var ids []string
	for i := range 6 {
		raw, pkg := buildRaw(t, int64(44_000+i))
		if _, err := outer.Submit(ctx, raw); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pkg.ID)
	}
	res, err := outer.Sweep(ctx, broker.SweepQuery{Residues: chessResidues(t)})
	if err != nil || len(res.Bottles) != len(ids) {
		t.Fatalf("nested sweep: %d bottles, %v; want %d", len(res.Bottles), err, len(ids))
	}
	reply := (&core.Reply{RequestID: ids[0], From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()
	if err := outer.Reply(ctx, ids[0], reply); err != nil {
		t.Fatal(err)
	}
	if raws, err := outer.Fetch(ctx, ids[0]); err != nil || len(raws) != 1 {
		t.Fatalf("nested fetch: %d replies, %v; want 1", len(raws), err)
	}
	for _, id := range ids {
		if held, err := outer.Remove(ctx, id); err != nil || !held {
			t.Fatalf("nested remove %s: %v, %v", id, held, err)
		}
	}
}

// TestRingCloseStopsFanWorkers proves Close leaves no fan-out worker behind,
// and that a fan-out after Close still completes without parking one.
func TestRingCloseStopsFanWorkers(t *testing.T) {
	waitFanWorkers(t, 0)
	ring, _, _ := testCluster(t, 3, 2)
	ctx := context.Background()
	raw, _ := buildRaw(t, 45_000)
	if _, err := ring.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.Sweep(ctx, broker.SweepQuery{Residues: chessResidues(t)}); err != nil {
		t.Fatal(err)
	}
	if fanWorkers() == 0 {
		t.Fatal("no fan-out worker parked after a fan-out")
	}
	ring.Close()
	waitFanWorkers(t, 0)
	if res, err := ring.Sweep(ctx, broker.SweepQuery{Residues: chessResidues(t)}); err != nil || len(res.Bottles) != 1 {
		t.Fatalf("sweep after Close: %d bottles, %v; want 1", len(res.Bottles), err)
	}
	waitFanWorkers(t, 0)
}

// TestRingAllocsPerOperation pins what each Backend operation of a 3-rack
// ring over in-process racks allocates at R = 1 and R = 2, the racks' own
// work included. Every verb runs one list body: a one-item list costs its
// single call plus the result slice it returns, and the single calls cost no
// more than they did as a path of their own. The fan-out takes parked
// workers and a pooled join, a call keeps its routing in one object, and
// the merges build their holder lists on the stack: a goroutine and its
// closure per rack call, or a heap slice per item or per merge, would show
// here.
func TestRingAllocsPerOperation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	// Ceilings, at R = 1 and R = 2, are the counts measured with the parked
	// workers, plus one for a pool miss; a fresh goroutine per rack call
	// adds two to every operation.
	ceilings := map[string][2]float64{
		"Submit":         {11, 16},
		"SubmitBatch/1":  {11, 16},
		"SubmitBatch/32": {251, 417},
		"Sweep":          {125, 132},
		"Reply":          {10, 17},
		"ReplyBatch/1":   {11, 18},
		"ReplyBatch/32":  {244, 474},
		"Fetch":          {5, 5},
		"FetchBatch/1":   {6, 6},
		"FetchBatch/32":  {77, 83},
		"Remove":         {3, 3},
	}
	forEachR(t, func(t *testing.T, rf int) {
		ring, _, _ := testCluster(t, 3, rf)
		ctx := context.Background()
		// AllocsPerRun calls its function once more than runs; every call
		// takes items of its own.
		const runs, longRuns, long = 50, 10, 32
		seed := int64(46_000)
		// bottles builds n bottles with a reply to each.
		bottles := func(n int) (raws [][]byte, ids []string, posts []broker.ReplyPost) {
			for range n {
				raw, pkg := buildRaw(t, seed)
				seed++
				raws, ids = append(raws, raw), append(ids, pkg.ID)
				posts = append(posts, broker.ReplyPost{RequestID: pkg.ID, Raw: (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()})
			}
			return raws, ids, posts
		}
		measure := func(op string, runs, per int, fn func(i, j int) error) {
			t.Helper()
			k := 0
			avg := testing.AllocsPerRun(runs, func() {
				if err := fn(k*per, (k+1)*per); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				k++
			})
			ceiling := ceilings[op][rf-1]
			t.Logf("%s: %.1f allocs", op, avg)
			if avg > ceiling {
				t.Errorf("%s: %.1f allocs, ceiling %.0f", op, avg, ceiling)
			}
		}
		q := broker.SweepQuery{Residues: chessResidues(t), Limit: 16}

		raws, ids, posts := bottles(runs + 1)
		if _, err := ring.SubmitBatch(ctx, raws); err != nil {
			t.Fatal(err)
		}
		fresh, _, _ := bottles(runs + 1)
		measure("Submit", runs, 1, func(i, _ int) error {
			_, err := ring.Submit(ctx, fresh[i])
			return err
		})
		measure("Sweep", runs, 1, func(int, int) error {
			_, err := ring.Sweep(ctx, q)
			return err
		})
		measure("Reply", runs, 1, func(i, _ int) error {
			return ring.Reply(ctx, ids[i], posts[i].Raw)
		})
		measure("Fetch", runs, 1, func(i, _ int) error {
			_, err := ring.Fetch(ctx, ids[i])
			return err
		})
		measure("Remove", runs, 1, func(i, _ int) error {
			_, err := ring.Remove(ctx, ids[i])
			return err
		})

		for _, c := range []struct {
			runs, per int
		}{{runs, 1}, {longRuns, long}} {
			raws, ids, posts := bottles((c.runs + 1) * c.per)
			measure(fmt.Sprintf("SubmitBatch/%d", c.per), c.runs, c.per, func(i, j int) error {
				res, err := ring.SubmitBatch(ctx, raws[i:j])
				for _, r := range res {
					err = cmp.Or(err, r.Err)
				}
				return err
			})
			measure(fmt.Sprintf("ReplyBatch/%d", c.per), c.runs, c.per, func(i, j int) error {
				errs, err := ring.ReplyBatch(ctx, posts[i:j])
				return cmp.Or(err, cmp.Or(errs...))
			})
			measure(fmt.Sprintf("FetchBatch/%d", c.per), c.runs, c.per, func(i, j int) error {
				res, err := ring.FetchBatch(ctx, ids[i:j])
				for _, r := range res {
					err = cmp.Or(err, r.Err)
				}
				return err
			})
		}
	})
}
