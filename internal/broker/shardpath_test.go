package broker

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/core"
)

// drainBatch drains the queues of the items at idxs on one shard as
// FetchBatch's visit of that shard does: under one lock (shard.visit), each
// queue through drainLocked, which spends the budget. It returns the budget
// left; TestDrainBatchBudget drives the shard's budget rule with it.
func (s *shard) drainBatch(ids []string, idxs []int, results []FetchResult, budget int, caller string) int {
	keys := make([]uint64, len(idxs))
	for j, i := range idxs {
		keys[j] = uint64(i)
	}
	s.visit(keys, func(sh *shard, i int) {
		results[i].Replies, results[i].Err = sh.drainLocked(ids[i], caller, &budget)
	})
	return budget
}

// TestFetchListBudget proves the rack's fetch path spends its byte budget
// across a list: on a one-shard rack with room for one queue, the first item
// drains and the second is refused with ErrFetchBudget and stays queued.
func TestFetchListBudget(t *testing.T) {
	clock := newTestClock()
	rng := rand.New(rand.NewSource(9))
	rack := newTestRack(clock, 1)
	defer rack.Close()
	ctx := context.Background()
	rawA, pkgA := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	rawB, pkgB := buildRawPackage(t, rng, clock, "b", interests("y"), nil, 0)
	if _, err := rack.SubmitBatch(ctx, [][]byte{rawA, rawB}); err != nil {
		t.Fatal(err)
	}
	replyA := (&core.Reply{RequestID: pkgA.ID, From: "bob", SentAt: clock.Now(), Acks: [][]byte{make([]byte, 64)}}).Marshal()
	replyB := (&core.Reply{RequestID: pkgB.ID, From: "bob", SentAt: clock.Now(), Acks: [][]byte{make([]byte, 64)}}).Marshal()
	if _, err := rack.ReplyBatch(ctx, []ReplyPost{{pkgA.ID, replyA}, {pkgB.ID, replyB}}); err != nil {
		t.Fatal(err)
	}
	results := make([]FetchResult, 2)
	if err := rack.fetch(ctx, []string{pkgA.ID, pkgB.ID}, results, len(replyA)+10); err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || len(results[0].Replies) != 1 {
		t.Fatalf("first item = %+v, want drained", results[0])
	}
	if !errors.Is(results[1].Err, ErrFetchBudget) {
		t.Fatalf("second item err = %v, want ErrFetchBudget", results[1].Err)
	}
	if _, _, q, _ := rack.PeekBottle(pkgB.ID); len(q) != 1 {
		t.Fatalf("refused item left %d replies queued, want 1", len(q))
	}
}

// TestRackCallAllocs pins what one call costs the rack in allocations (16
// shards): a single Submit, Reply, Fetch and Remove, and the same call as a
// one-item list, which may cost its single plus the result slice it returns
// and nothing more — grouping one item by shard is free. A durable rack, at
// either fsync policy, costs exactly what an in-memory rack does: its log
// stages each record into a reused buffer.
func TestRackCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	for _, rc := range []struct {
		name    string
		durable bool
		policy  wal.Policy
	}{{"memory", false, 0}, {"interval", true, wal.PolicyInterval}, {"always", true, wal.PolicyAlways}} {
		t.Run(rc.name, func(t *testing.T) {
			clock := newTestClock()
			cfg := Config{Shards: 16, ReapInterval: -1, Now: clock.Now}
			if rc.durable {
				cfg.Durability = &DurabilityConfig{Dir: t.TempDir(), Fsync: rc.policy}
			}
			rack, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rack.Close()
			testRackCallAllocs(t, clock, rack)
		})
	}
}

func testRackCallAllocs(t *testing.T, clock *testClock, rack *Rack) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(47))
	// A rack already holding a thousand bottles, so a submit meets grown
	// maps and prime groups: the growth it still meets is well under one
	// allocation per call on average, which AllocsPerRun truncates away.
	const runs, held = 50, 1000
	raws := make([][]byte, held+2*(runs+1)) // runs+1: AllocsPerRun warms up once
	ids := make([]string, len(raws))
	for i := range raws {
		var pkg *core.RequestPackage
		raws[i], pkg = buildRawPackage(t, rng, clock, "alloc", interests("x"), nil, 0)
		ids[i] = pkg.ID
	}
	if _, err := rack.SubmitBatch(ctx, raws[:held]); err != nil {
		t.Fatal(err)
	}
	_, pkg := buildRawPackage(t, rng, clock, "alloc", interests("x"), nil, 0)
	raw, _ := pkg.Marshal()
	if _, err := rack.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	reply := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: clock.Now(), Acks: [][]byte{{1}}}).Marshal()
	idFrame := []byte(pkg.ID)
	// Each loop is followed by a Fetch, so no loop meets a queue another
	// filled.
	n, gone := held, held
	for _, c := range []struct {
		name string
		max  float64
		call func()
	}{
		{"Submit", 4, func() {
			if _, err := rack.Submit(ctx, raws[n]); err != nil {
				t.Fatal(err)
			}
			n++
		}},
		{"SubmitBatch of one", 5, func() {
			if res, err := rack.SubmitBatch(ctx, raws[n:n+1]); err != nil || res[0].Err != nil {
				t.Fatal(err, res)
			}
			n++
		}},
		{"Reply", 6, func() {
			if err := rack.Reply(ctx, pkg.ID, reply); err != nil {
				t.Fatal(err)
			}
		}},
		{"ReplyBatch of one", 7, func() {
			if errs, err := rack.ReplyBatch(ctx, []ReplyPost{{RequestID: pkg.ID, Raw: reply}}); err != nil || errs[0] != nil {
				t.Fatal(err, errs)
			}
		}},
		// The ID converted from a frame, as a server's handler passes it: a
		// Fetch that let its ID escape would make the conversion allocate.
		{"Fetch", 0, func() {
			if _, err := rack.Fetch(ctx, string(idFrame)); err != nil {
				t.Fatal(err)
			}
		}},
		{"FetchBatch of one", 1, func() {
			if res, err := rack.FetchBatch(ctx, []string{pkg.ID}); err != nil || res[0].Err != nil {
				t.Fatal(err, res)
			}
		}},
		// Removes the bottles the Submit loop racked.
		{"Remove", 0, func() {
			if ok, err := rack.Remove(ctx, ids[gone]); err != nil || !ok {
				t.Fatal(ok, err)
			}
			gone++
		}},
	} {
		got := testing.AllocsPerRun(runs, c.call)
		t.Logf("%s: %v allocs/call", c.name, got)
		if got > c.max {
			t.Errorf("%s: %v allocs/call, want at most %v", c.name, got, c.max)
		}
		if _, err := rack.Fetch(ctx, pkg.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// cutContext is a context whose Err turns context.Canceled from its k-th
// call on: a list call canceled at a chosen point of its shard walk.
type cutContext struct {
	context.Context
	calls atomic.Int64
	k     int64
}

func (c *cutContext) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestListCancelCutsAtShardBoundary proves a list call canceled part way is
// applied up to a shard boundary: the applied items are exactly the items of
// a prefix of the shards the list touches, in shard-index order, and every
// other item carries context.Canceled and left the rack untouched. As the
// context ends later (at its k-th Err call, for growing k), the prefix never
// shrinks and takes every length from none to all of the touched shards: the
// rack checks ctx before each shard it visits.
func TestListCancelCutsAtShardBoundary(t *testing.T) {
	clock := newTestClock()
	rng := rand.New(rand.NewSource(71))
	const shards, items = 8, 24
	raws := make([][]byte, items)
	pkgs := make([]*core.RequestPackage, items)
	for i := range raws {
		raws[i], pkgs[i] = buildRawPackage(t, rng, clock, "cut", interests("x"), nil, 0)
	}
	// The shards the list touches, in the order the rack visits them.
	probe := newTestRack(clock, shards)
	probe.Close()
	rank := make([]int, items) // rank of each item's shard among the touched
	var touched []uint64
	for i := range pkgs {
		touched = append(touched, probe.shardIndex(pkgs[i].ID))
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	if len(touched) < 4 {
		t.Fatalf("the list touches %d shards; the test needs several", len(touched))
	}
	for i := range pkgs {
		rank[i] = slices.Index(touched, probe.shardIndex(pkgs[i].ID))
	}
	reply := func(i int) []byte {
		return (&core.Reply{RequestID: pkgs[i].ID, From: "bob", SentAt: clock.Now(), Acks: [][]byte{{1}}}).Marshal()
	}
	ids := make([]string, items)
	posts := make([]ReplyPost, items)
	for i := range ids {
		ids[i] = pkgs[i].ID
		posts[i] = ReplyPost{RequestID: ids[i], Raw: reply(i)}
	}

	// prefix checks one call's outcome against the contract and returns the
	// number of touched shards it applied. applied(i) reads the rack; errOf(i)
	// is item i's error, or the call's when it returned no items.
	prefix := func(verb string, k int, callErr error, applied func(i int) bool, errOf func(i int) error) int {
		t.Helper()
		p := 0
		for p < len(touched) {
			all := true
			for i := range rank {
				all = all && (rank[i] != p || applied(i))
			}
			if !all {
				break
			}
			p++
		}
		for i := range rank {
			if want := rank[i] < p; applied(i) != want {
				t.Fatalf("k=%d %s: item %d (shard rank %d) applied = %v with a prefix of %d shards", k, verb, i, rank[i], !want, p)
			}
			if err := errOf(i); rank[i] < p && err != nil || rank[i] >= p && !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d %s: item %d (shard rank %d, prefix %d) err = %v", k, verb, i, rank[i], p, err)
			}
		}
		if (p < len(touched)) != errors.Is(callErr, context.Canceled) {
			t.Fatalf("k=%d %s: call err = %v with a prefix of %d of %d shards", k, verb, callErr, p, len(touched))
		}
		return p
	}
	itemErr := func(callErr error, n int, item func(i int) error) func(i int) error {
		return func(i int) error {
			if n == 0 {
				return callErr
			}
			return item(i)
		}
	}
	cut := func(k int) context.Context { return &cutContext{Context: context.Background(), k: int64(k)} }

	verbs := []string{"SubmitBatch", "ReplyBatch", "FetchBatch"}
	last := make([]int, len(verbs))
	seen := make([]map[int]bool, len(verbs))
	for v := range seen {
		seen[v] = map[int]bool{}
	}
	for k := 1; last[0] < len(touched) || last[1] < len(touched) || last[2] < len(touched); k++ {
		if k > 4*len(touched)+8 {
			t.Fatalf("k=%d: a late enough cancellation still cuts a list (prefixes %v of %d)", k, last, len(touched))
		}
		var got [3]int

		// SubmitBatch on an empty rack: an applied item is held.
		rack := newTestRack(clock, shards)
		results, err := rack.SubmitBatch(cut(k), raws)
		got[0] = prefix(verbs[0], k, err,
			func(i int) bool { _, _, _, held := rack.PeekBottle(ids[i]); return held },
			itemErr(err, len(results), func(i int) error { return results[i].Err }))
		rack.Close()

		// ReplyBatch and FetchBatch on a rack holding every bottle.
		rack = newTestRack(clock, shards)
		if _, err := rack.SubmitBatch(context.Background(), raws); err != nil {
			t.Fatal(err)
		}
		queued := func(i int) int { _, _, q, _ := rack.PeekBottle(ids[i]); return len(q) }
		errs, err := rack.ReplyBatch(cut(k), posts)
		got[1] = prefix(verbs[1], k, err,
			func(i int) bool { return queued(i) == 1 },
			itemErr(err, len(errs), func(i int) error { return errs[i] }))
		// Queue a reply on every bottle, so a drain shows.
		for i := range ids {
			if queued(i) == 0 {
				if err := rack.Reply(context.Background(), ids[i], reply(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		fetched, err := rack.FetchBatch(cut(k), ids)
		got[2] = prefix(verbs[2], k, err,
			func(i int) bool {
				if queued(i) != 0 {
					return false
				}
				if len(fetched) == 0 || len(fetched[i].Replies) != 1 {
					t.Fatalf("k=%d FetchBatch: item %d drained without returning its reply", k, i)
				}
				return true
			},
			itemErr(err, len(fetched), func(i int) error { return fetched[i].Err }))
		rack.Close()

		for v, p := range got {
			if p < last[v] {
				t.Fatalf("k=%d %s: prefix shrank from %d to %d shards", k, verbs[v], last[v], p)
			}
			last[v] = p
			seen[v][p] = true
		}
	}
	for v := range verbs {
		for p := 0; p <= len(touched); p++ {
			if !seen[v][p] {
				t.Errorf("%s: no cancellation left a prefix of %d shards (seen %v)", verbs[v], p, seen[v])
			}
		}
	}
}
