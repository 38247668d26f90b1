package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/core"
)

// Compile-time proof the ring is a drop-in rack: it satisfies the same
// surface it routes over, so rings compose and every Backend consumer
// scales out unchanged.
var _ broker.Backend = (*Ring)(nil)

// errRackDown simulates a dead rack endpoint (transport-level fault).
var errRackDown = errors.New("dial tcp: connection refused (simulated)")

// unstableBackend wraps a rack with a kill switch; while dead every
// operation fails at the "transport" level, like a crashed bottlerack. calls
// counts every operation routed to it, dead or alive.
type unstableBackend struct {
	rack  *broker.Rack
	dead  atomic.Bool
	calls atomic.Int32
	// shed is how many of a sweeper's next sweeps (those that carry a
	// cursor) are refused as over quota: the rack is up, it just does not
	// serve them.
	shed atomic.Int32
}

// down counts one call and reports whether the rack is dead for it.
func (u *unstableBackend) down() bool {
	u.calls.Add(1)
	return u.dead.Load()
}

func (u *unstableBackend) Submit(ctx context.Context, raw []byte) (string, error) {
	if u.down() {
		return "", errRackDown
	}
	return u.rack.Submit(ctx, raw)
}

func (u *unstableBackend) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	if u.down() {
		return broker.SweepResult{}, errRackDown
	}
	if len(q.Cursors) > 0 && u.shed.Load() > 0 {
		u.shed.Add(-1)
		return broker.SweepResult{}, broker.ErrOverload
	}
	return u.rack.Sweep(ctx, q)
}

func (u *unstableBackend) Reply(ctx context.Context, id string, raw []byte) error {
	if u.down() {
		return errRackDown
	}
	return u.rack.Reply(ctx, id, raw)
}

func (u *unstableBackend) Fetch(ctx context.Context, id string) ([][]byte, error) {
	if u.down() {
		return nil, errRackDown
	}
	return u.rack.Fetch(ctx, id)
}

func (u *unstableBackend) Remove(ctx context.Context, id string) (bool, error) {
	if u.down() {
		return false, errRackDown
	}
	return u.rack.Remove(ctx, id)
}

func (u *unstableBackend) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	if u.down() {
		return nil, errRackDown
	}
	return u.rack.SubmitBatch(ctx, raws)
}

func (u *unstableBackend) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	if u.down() {
		return nil, errRackDown
	}
	return u.rack.ReplyBatch(ctx, posts)
}

func (u *unstableBackend) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	if u.down() {
		return nil, errRackDown
	}
	return u.rack.FetchBatch(ctx, ids)
}

func (u *unstableBackend) Stats(ctx context.Context) (broker.Stats, error) {
	if u.down() {
		return broker.Stats{}, errRackDown
	}
	return u.rack.Stats(ctx)
}

func (u *unstableBackend) Close() error { return nil }

// testCluster stands up n tagged in-process racks behind kill switches and a
// ring at R=rf over them (no background prober — tests drive Probe
// deterministically).
func testCluster(t *testing.T, n, rf int) (*Ring, []*unstableBackend, []*broker.Rack) {
	t.Helper()
	racks := make([]*broker.Rack, n)
	backs := make([]*unstableBackend, n)
	cfg := RingConfig{ProbeInterval: -1, Replication: rf}
	for i := 0; i < n; i++ {
		racks[i] = broker.New(broker.Config{
			Shards: 4, ReapInterval: -1,
			RackTag: fmt.Sprintf("r%d", i),
		})
		backs[i] = &unstableBackend{rack: racks[i]}
		cfg.Backends = append(cfg.Backends, RingBackend{Name: fmt.Sprintf("rack-%d", i), Backend: backs[i]})
	}
	ring, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ring.Close()
		for _, r := range racks {
			r.Close()
		}
	})
	return ring, backs, racks
}

// forEachR runs a routing test at R=1 and R=2: R=1 is the degenerate replica
// set, so both go down the one path and both must hold the contract.
func forEachR(t *testing.T, test func(t *testing.T, rf int)) {
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", rf), func(t *testing.T) { test(t, rf) })
	}
}

// chessResidues builds the sweep query residues matching buildRaw's bottles.
func chessResidues(t *testing.T) []core.ResidueSet {
	t.Helper()
	matcher, err := core.NewMatcher(attr.NewProfile(
		attr.MustNew("interest", "chess"),
		attr.MustNew("interest", "go"),
	), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return []core.ResidueSet{matcher.ResidueSet(core.DefaultPrime)}
}

// TestRingRoutingDeterminism proves placement is a pure function of the
// request ID and the membership: an independent ring over the same racks
// routes every bottle to the rack that actually holds it.
func TestRingRoutingDeterminism(t *testing.T) {
	forEachR(t, func(t *testing.T, rf int) {
		ring, _, racks := testCluster(t, 3, rf)
		ring2, _, _ := testCluster(t, 3, rf) // same names, fresh racks — only the hash matters

		tagToRack := map[string]int{"r0": 0, "r1": 1, "r2": 2}
		usedRacks := map[string]bool{}
		for i := 0; i < 30; i++ {
			raw, pkg := buildRaw(t, int64(1000+i))
			id, err := ring.Submit(context.Background(), raw)
			if err != nil {
				t.Fatal(err)
			}
			tag, rest := broker.SplitTaggedID(id)
			if rest != pkg.ID {
				t.Fatalf("submit returned %q, want tagged %s", id, pkg.ID)
			}
			rackIdx, ok := tagToRack[tag]
			if !ok {
				t.Fatalf("submit returned unknown tag %q", tag)
			}
			usedRacks[tag] = true
			// The rack named by the tag really holds the bottle.
			if _, err := racks[rackIdx].Fetch(context.Background(), pkg.ID); err != nil {
				t.Fatalf("rack %d does not hold %s: %v", rackIdx, pkg.ID, err)
			}
			// An independent ring agrees on placement.
			if got := rank(nil, ring2.healthy(), pkg.ID)[0].name; got != fmt.Sprintf("rack-%d", rackIdx) {
				t.Fatalf("ring2 routes %s to %s, ring1 placed it on rack-%d", pkg.ID, got, rackIdx)
			}
		}
		if len(usedRacks) != 3 {
			t.Fatalf("30 bottles landed on %d racks, want all 3 (degenerate hash?)", len(usedRacks))
		}
	})
}

// TestRingBatchEquivalence proves a batched cluster submit racks exactly the
// same bottles a single rack would, spread across the racks, and that a
// cluster sweep returns them all.
func TestRingBatchEquivalence(t *testing.T) {
	ring, _, racks := testCluster(t, 3, 1)
	single := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
	defer single.Close()

	const n = 40
	raws := make([][]byte, n)
	want := make(map[string]bool, n)
	for i := range raws {
		raw, pkg := buildRaw(t, int64(2000+i))
		raws[i] = raw
		want[pkg.ID] = true
	}
	results, err := ring.SubmitBatch(context.Background(), raws)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch item %d: %v", i, res.Err)
		}
	}
	if _, err := single.SubmitBatch(context.Background(), raws); err != nil {
		t.Fatal(err)
	}

	held := 0
	for _, r := range racks {
		st, err := r.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held += st.Held
	}
	if held != n {
		t.Fatalf("cluster holds %d bottles, want %d", held, n)
	}

	swept, err := ring.Sweep(context.Background(), broker.SweepQuery{Residues: chessResidues(t), Limit: n})
	if err != nil {
		t.Fatal(err)
	}
	sweptSingle, err := single.Sweep(context.Background(), broker.SweepQuery{Residues: chessResidues(t), Limit: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(swept.Bottles) != len(sweptSingle.Bottles) || len(swept.Bottles) != n {
		t.Fatalf("cluster swept %d, single rack %d, want %d", len(swept.Bottles), len(sweptSingle.Bottles), n)
	}
	for _, b := range swept.Bottles {
		if !want[broker.UntagID(b.ID)] {
			t.Fatalf("cluster sweep returned unexpected bottle %s", b.ID)
		}
		delete(want, broker.UntagID(b.ID))
	}
	if len(want) != 0 {
		t.Fatalf("cluster sweep missed %d bottles", len(want))
	}

	// Aggregated stats line up with the per-rack ground truth.
	st, err := ring.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Held != n || st.Totals.Submitted != n {
		t.Fatalf("ring stats held=%d submitted=%d, want %d/%d", st.Held, st.Totals.Submitted, n, n)
	}
}

// TestRingSweepLimit proves the fan-out merge respects the query limit.
func TestRingSweepLimit(t *testing.T) {
	ring, _, _ := testCluster(t, 3, 1)
	for i := 0; i < 30; i++ {
		raw, _ := buildRaw(t, int64(3000+i))
		if _, err := ring.Submit(context.Background(), raw); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ring.Sweep(context.Background(), broker.SweepQuery{Residues: chessResidues(t), Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bottles) != 10 || !res.Truncated {
		t.Fatalf("cluster sweep = %d bottles truncated=%v, want 10/true", len(res.Bottles), res.Truncated)
	}
	distinct := map[string]bool{}
	for _, b := range res.Bottles {
		distinct[b.ID] = true
	}
	if len(distinct) != 10 {
		t.Fatalf("cluster sweep returned %d distinct bottles, want 10", len(distinct))
	}
	// Following the cursors, the cut pages come back from where they were
	// cut: every bottle in the sweeps the limit needs, once at R=1; at R=2 a
	// copy met on either side of a cut may come twice (the sweeper's window
	// drops it), but no more.
	for _, rf := range []int{1, 2} {
		ring, _, _ := testCluster(t, 3, rf)
		for i := 0; i < 30; i++ {
			raw, _ := buildRaw(t, int64(3100+i))
			if _, err := ring.Submit(context.Background(), raw); err != nil {
				t.Fatal(err)
			}
		}
		q := broker.SweepQuery{Residues: chessResidues(t), Limit: 7}
		seen := map[string]int{}
		for sweeps := 1; ; sweeps++ {
			if sweeps > rf*(30/7+1) {
				t.Fatalf("R=%d: %d sweeps and still truncated", rf, sweeps)
			}
			res, err := ring.Sweep(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range res.Bottles {
				seen[broker.UntagID(b.ID)]++
			}
			q.Cursors = broker.MergeCursors(q.Cursors, res.Cursors)
			if !res.Truncated {
				break
			}
		}
		again := 0
		for id, n := range seen {
			if n > rf {
				t.Fatalf("R=%d: bottle %s returned %d times", rf, id, n)
			}
			again += n - 1
		}
		t.Logf("R=%d: %d bottles returned twice", rf, again)
		if len(seen) != 30 {
			t.Fatalf("R=%d: %d of 30 bottles returned", rf, len(seen))
		}
	}
}

// TestRingRepliesRouteAcrossRacks runs the full sweep→reply→fetch loop over
// the cluster: the sweeper teaches the ring which rack holds each bottle and
// the replies land on the right racks with no fan-out guesswork left to
// verify fetch-side.
func TestRingRepliesRouteAcrossRacks(t *testing.T) {
	ring, _, _ := testCluster(t, 3, 1)
	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		raw, pkg := buildRaw(t, int64(4000+i))
		if _, err := ring.Submit(context.Background(), raw); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pkg.ID) // untagged, as msn tracks them
	}
	sweeper, err := NewSweeper(ring, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go", "tennis"),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Swept != 12 || st.Replies != 12 || st.ReplyErrors != 0 {
		t.Fatalf("cluster tick = %+v, want 12 swept and replied", st)
	}
	fetched := 0
	for _, res := range FetchMany(context.Background(), ring, ids) {
		if res.Err != nil {
			t.Fatalf("FetchMany: %v", res.Err)
		}
		fetched += len(res.Replies)
	}
	if fetched != 12 {
		t.Fatalf("fetched %d replies, want 12", fetched)
	}
}

// TestRingFindsBottlesItNeverPlaced proves an ID issued outside this ring —
// before a client restart, or by another client — still routes: the ring
// finds the bottle even when it lives on a rack the rendezvous hash would try
// last. On four racks about three in four planted bottles at R=1, and half at
// R=2, sit outside their intent set, and only the last resort reaches them.
func TestRingFindsBottlesItNeverPlaced(t *testing.T) {
	forEachR(t, func(t *testing.T, rf int) {
		ring, _, racks := testCluster(t, 4, rf)

		// Rack bottles directly on every rack — placements the ring never saw.
		type planted struct {
			taggedID string
			pkgID    string
		}
		var all []planted
		for i, rack := range racks {
			raw, pkg := buildRaw(t, int64(5000+i))
			id, err := rack.Submit(context.Background(), raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := rack.Reply(context.Background(), pkg.ID, (&core.Reply{
				RequestID: pkg.ID, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}},
			}).Marshal()); err != nil {
				t.Fatal(err)
			}
			all = append(all, planted{taggedID: id, pkgID: pkg.ID})
		}
		// The "restarted" ring knows nothing; only the tags in the IDs survive.
		for _, p := range all {
			raws, err := ring.Fetch(context.Background(), p.taggedID)
			if err != nil || len(raws) != 1 {
				t.Fatalf("fresh ring Fetch(%s) = %d replies, %v", p.taggedID, len(raws), err)
			}
		}
		// Unknown IDs still come back ErrUnknownBottle after the full fan-out.
		if _, err := ring.Fetch(context.Background(), "r1@ffffffffffffffffffffffffffffffff"); !errors.Is(err, broker.ErrUnknownBottle) {
			t.Fatalf("Fetch of unknown id = %v, want unknown-bottle", err)
		}
	})
}

// TestRingRackFailureMidLoad kills one rack mid-load and demands: the rack is
// ejected after the failure threshold, submits keep succeeding on the
// survivors, sweeps and fetches keep serving every bottle on healthy racks,
// and the rack is re-admitted by a probe once it returns. At R=1 the submits
// hashed to the dead rack fail until its ejection; at R=2 their other
// replica takes each of them, and every bottle keeps a copy on a survivor.
func TestRingRackFailureMidLoad(t *testing.T) {
	forEachR(t, func(t *testing.T, rf int) {
		ring, backs, racks := testCluster(t, 3, rf)

		surviving := make([]string, 0, 64) // pkg IDs with a copy on racks 0 or 2
		submit := func(seed int64) (rackTag string) {
			raw, pkg := buildRaw(t, seed)
			id, err := ring.Submit(context.Background(), raw)
			if err != nil {
				return ""
			}
			tag, _ := broker.SplitTaggedID(id)
			if tag != "r1" || rf > 1 {
				surviving = append(surviving, pkg.ID)
			}
			return tag
		}
		for i := 0; i < 40; i++ {
			if tag := submit(int64(6000 + i)); tag == "" {
				t.Fatal("submit failed with all racks healthy")
			}
		}

		backs[1].dead.Store(true)
		// Keep loading. At R=1 submits hashed to the dead rack fail until its
		// ejection (FailThreshold consecutive faults), then everything routes
		// around it.
		failures := 0
		for i := 0; i < 200; i++ {
			if tag := submit(int64(7000 + i)); tag == "" {
				failures++
			}
		}
		minFail, maxFail := 1, DefaultFailThreshold
		if rf > 1 {
			minFail, maxFail = 0, 0
		}
		if failures < minFail || failures > maxFail {
			t.Fatalf("saw %d failed submits around ejection, want %d..%d", failures, minFail, maxFail)
		}
		h := ring.Health()
		if !h[1].Down || h[0].Down || h[2].Down {
			t.Fatalf("health after kill = %+v, want only rack-1 down", h)
		}
		// With the rack ejected every submit must succeed.
		for i := 0; i < 40; i++ {
			if tag := submit(int64(8000 + i)); tag == "" {
				t.Fatal("submit failed after ejection")
			} else if tag == "r1" {
				t.Fatal("submit routed to the ejected rack")
			}
		}

		// Sweeps keep serving the healthy racks' bottles.
		res, err := ring.Sweep(context.Background(), broker.SweepQuery{Residues: chessResidues(t), Limit: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bottles) != len(surviving) {
			t.Fatalf("degraded sweep returned %d bottles, want %d", len(res.Bottles), len(surviving))
		}
		// Every bottle on a healthy rack is still fetchable (none lost).
		for _, id := range surviving {
			if _, err := ring.Fetch(context.Background(), id); err != nil {
				t.Fatalf("lost bottle %s on a healthy rack: %v", id, err)
			}
		}

		// Revive and probe: the rack is re-admitted and receives load again.
		backs[1].dead.Store(false)
		ring.Probe(context.Background())
		if h := ring.Health(); h[1].Down {
			t.Fatalf("rack-1 still down after probe: %+v", h)
		}
		beforeStats, err := racks[1].Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		before := beforeStats.Totals.Submitted
		for i := 0; i < 40; i++ {
			if tag := submit(int64(9000 + i)); tag == "" {
				t.Fatal("submit failed after re-admission")
			}
		}
		afterStats, err := racks[1].Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if afterStats.Totals.Submitted == before {
			t.Fatal("re-admitted rack received no submits")
		}
	})
}

// TestRingRoutedPrefersFaultOverUnknown proves a routed operation whose
// holding racks are all unreachable reports the fault, not the other racks'
// unknown-bottle answers: "unknown" reads as a definitive broker answer and
// would make callers (the Sweeper's reply retry queue in particular) drop
// work that is merely delayed, not dead.
func TestRingRoutedPrefersFaultOverUnknown(t *testing.T) {
	forEachR(t, func(t *testing.T, rf int) {
		ring, backs, _ := testCluster(t, 3, rf)
		raw, pkg := buildRaw(t, 12_000)
		if _, err := ring.Submit(context.Background(), raw); err != nil {
			t.Fatal(err)
		}
		var holders []*unstableBackend
		for _, b := range backs {
			if _, _, _, ok := b.rack.PeekBottle(pkg.ID); ok {
				holders = append(holders, b)
			}
		}
		for _, b := range holders {
			b.dead.Store(true)
		}

		reply := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()
		err := ring.Reply(context.Background(), pkg.ID, reply)
		if err == nil {
			t.Fatal("Reply succeeded with the owning rack dead")
		}
		if errors.Is(err, broker.ErrUnknownBottle) || !rackFault(err) {
			t.Fatalf("Reply with owning rack dead = %v; want the rack fault, not a definitive unknown-bottle", err)
		}
		// Once the racks return, the same reply goes through.
		for _, b := range holders {
			b.dead.Store(false)
		}
		if err := ring.Reply(context.Background(), pkg.ID, reply); err != nil {
			t.Fatalf("Reply after rack recovery: %v", err)
		}
		if raws, err := ring.Fetch(context.Background(), pkg.ID); err != nil || len(raws) != 1 {
			t.Fatalf("Fetch after recovery = %d replies, %v", len(raws), err)
		}
	})
}

// TestRingCallsPerOperation pins the one path's "no extra call" rule: on a
// healthy ring Submit, Reply, Fetch and Remove each call exactly the R racks
// of the bottle's intent set, and a list, of one item or of items on
// different intent sets, calls each rack of their intent sets once. The
// last resort costs a call only when every intent rack answers "unknown" —
// one per remaining healthy rack, so an ID no rack holds costs one call per
// healthy rack through every form. A bottle submitted past an ejected
// intent member is found again once the member is back: the last resort
// walks the same rank order the submit extended along, and Remove walks it
// on until R holders answered, so no copy outlives it. A malformed package
// fails before any rack is called.
func TestRingCallsPerOperation(t *testing.T) {
	forEachR(t, func(t *testing.T, rf int) {
		ring, backs, _ := testCluster(t, 3, rf)
		ctx := context.Background()
		calls := func(op string, want int, do func() error) {
			t.Helper()
			var before, after int32
			for _, b := range backs {
				before += b.calls.Load()
			}
			if err := do(); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			for _, b := range backs {
				after += b.calls.Load()
			}
			if got := int(after - before); got != want {
				t.Fatalf("%s made %d rack calls, want %d", op, got, want)
			}
		}
		raw, pkg := buildRaw(t, 13_000)
		var id string
		calls("Submit", rf, func() (err error) {
			id, err = ring.Submit(ctx, raw)
			return err
		})
		reply := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()
		calls("Reply", rf, func() error { return ring.Reply(ctx, pkg.ID, reply) })
		calls("Fetch", rf, func() error {
			raws, err := ring.Fetch(ctx, id)
			if err == nil && len(raws) != 1 {
				err = fmt.Errorf("%d replies, want 1", len(raws))
			}
			return err
		})
		calls("Remove", rf, func() error {
			held, err := ring.Remove(ctx, id)
			if err == nil && !held {
				err = errors.New("bottle was not held")
			}
			return err
		})
		unknown := "ffffffffffffffffffffffffffffffff"
		unknownReply := (&core.Reply{RequestID: unknown, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()
		isUnknown := func(err error) error {
			if !errors.Is(err, broker.ErrUnknownBottle) {
				return fmt.Errorf("err = %v, want unknown-bottle", err)
			}
			return nil
		}
		calls("Fetch of an unknown ID", len(backs), func() error {
			_, err := ring.Fetch(ctx, unknown)
			return isUnknown(err)
		})
		calls("Reply to an unknown ID", len(backs), func() error {
			return isUnknown(ring.Reply(ctx, unknown, unknownReply))
		})
		calls("Remove of an unknown ID", len(backs), func() error {
			held, err := ring.Remove(ctx, unknown)
			if err == nil && held {
				err = errors.New("an unknown bottle was held")
			}
			return err
		})
		calls("FetchBatch of an unknown ID", len(backs), func() error {
			res, err := ring.FetchBatch(ctx, []string{unknown})
			return isUnknown(cmp.Or(err, res[0].Err))
		})
		calls("ReplyBatch to an unknown ID", len(backs), func() error {
			errs, err := ring.ReplyBatch(ctx, []broker.ReplyPost{{RequestID: unknown, Raw: unknownReply}})
			return isUnknown(cmp.Or(err, errs[0]))
		})

		// Lists of one item, and of two items on different intent sets: each
		// rack of their intent sets is called once.
		type list struct {
			raws  [][]byte
			ids   []string
			racks []*rackNode
		}
		build := func(seed int64) ([]byte, string, []*rackNode) {
			raw, pkg := buildRaw(t, seed)
			return raw, pkg.ID, rank(nil, ring.members(), pkg.ID)[:rf]
		}
		raw1, id1, set1 := build(13_100)
		raw2, id2, set2 := build(13_101)
		lists := []list{{[][]byte{raw1}, []string{id1}, set1}, {[][]byte{raw2}, []string{id2}, set2}}
		for seed := int64(13_102); len(lists[1].ids) < 2; seed++ {
			raw, id, set := build(seed)
			if extra := slices.DeleteFunc(set, func(n *rackNode) bool { return slices.Contains(lists[1].racks, n) }); len(extra) > 0 {
				l := &lists[1]
				l.raws, l.ids, l.racks = append(l.raws, raw), append(l.ids, id), append(l.racks, extra...)
			}
		}
		for _, l := range lists {
			n := len(l.ids)
			posts := make([]broker.ReplyPost, n)
			for i, id := range l.ids {
				posts[i] = broker.ReplyPost{RequestID: id, Raw: (&core.Reply{RequestID: id, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()}
			}
			calls(fmt.Sprintf("SubmitBatch of %d", n), len(l.racks), func() error {
				res, err := ring.SubmitBatch(ctx, l.raws)
				for _, r := range res {
					err = cmp.Or(err, r.Err)
				}
				return err
			})
			calls(fmt.Sprintf("ReplyBatch of %d", n), len(l.racks), func() error {
				errs, err := ring.ReplyBatch(ctx, posts)
				return cmp.Or(err, cmp.Or(errs...))
			})
			calls(fmt.Sprintf("FetchBatch of %d", n), len(l.racks), func() error {
				res, err := ring.FetchBatch(ctx, l.ids)
				for _, r := range res {
					if r.Err == nil && len(r.Replies) != 1 {
						r.Err = fmt.Errorf("%d replies, want 1", len(r.Replies))
					}
					err = cmp.Or(err, r.Err)
				}
				return err
			})
		}

		calls("Submit of a malformed package", 0, func() error {
			if _, err := ring.Submit(ctx, raw[:len(raw)-1]); !errors.Is(err, core.ErrMalformedPackage) {
				return fmt.Errorf("err = %v, want malformed package", err)
			}
			return nil
		})

		raw, pkg = buildRaw(t, 13_001)
		home := rank(nil, ring.members(), pkg.ID)[0]
		home.down.Store(true)
		calls("Submit past an ejected member", rf, func() (err error) {
			id, err = ring.Submit(ctx, raw)
			return err
		})
		ring.Probe(ctx)
		if home.down.Load() {
			t.Fatal("intent member not readmitted")
		}
		if _, _, _, ok := backs[home.idx].rack.PeekBottle(pkg.ID); ok {
			t.Fatal("the readmitted member holds the bottle before any handoff")
		}
		// R = 1: the home rack answers unknown, the last resort's first rack
		// holds it. R = 2: the intent set's second member holds it.
		calls("Fetch after readmission", 2, func() error {
			_, err := ring.Fetch(ctx, id)
			return err
		})
		calls("FetchBatch after readmission", 2, func() error {
			res, err := ring.FetchBatch(ctx, []string{id})
			return cmp.Or(err, res[0].Err)
		})
		// R = 1: as Fetch. R = 2: the second member holds one copy, fewer
		// than R, so the remove goes on to the third rack, which holds the
		// extension copy.
		calls("Remove after readmission", rf+1, func() error {
			held, err := ring.Remove(ctx, id)
			if err == nil && !held {
				err = errors.New("bottle was not held")
			}
			return err
		})
		calls("Fetch after the remove", len(backs), func() error {
			if _, err := ring.Fetch(ctx, id); !errors.Is(err, broker.ErrUnknownBottle) {
				return fmt.Errorf("err = %v, want unknown-bottle: a copy outlived the remove", err)
			}
			return nil
		})
		calls("FetchBatch after the remove", len(backs), func() error {
			res, err := ring.FetchBatch(ctx, []string{id})
			if err != nil {
				return err
			}
			if !errors.Is(res[0].Err, broker.ErrUnknownBottle) {
				return fmt.Errorf("err = %v, want unknown-bottle: a copy outlived the remove", res[0].Err)
			}
			return nil
		})
	})
}

// TestRingAllRacksDown proves a fully dead cluster reports
// ErrNoHealthyRacks instead of hanging or misreporting — from every
// operation, the ID-addressed ones included.
func TestRingAllRacksDown(t *testing.T) {
	forEachR(t, func(t *testing.T, rf int) {
		ring, backs, _ := testCluster(t, 2, rf)
		ctx := context.Background()
		for _, b := range backs {
			b.dead.Store(true)
		}
		raw, pkg := buildRaw(t, 10_000)
		// Trip the ejection threshold on both racks.
		for i := 0; ; i++ {
			_, err := ring.Submit(ctx, raw)
			if err == nil {
				t.Fatal("submit succeeded against dead racks")
			}
			if errors.Is(err, ErrNoHealthyRacks) {
				break
			}
			if i == 2*DefaultFailThreshold+2 {
				t.Fatal("ring never reported ErrNoHealthyRacks")
			}
		}
		if _, err := ring.Sweep(ctx, broker.SweepQuery{Residues: chessResidues(t)}); !errors.Is(err, ErrNoHealthyRacks) {
			t.Fatalf("sweep on dead cluster = %v", err)
		}
		reply := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now()}).Marshal()
		if err := ring.Reply(ctx, pkg.ID, reply); !errors.Is(err, ErrNoHealthyRacks) {
			t.Fatalf("reply on dead cluster = %v", err)
		}
		if _, err := ring.Fetch(ctx, pkg.ID); !errors.Is(err, ErrNoHealthyRacks) {
			t.Fatalf("fetch on dead cluster = %v", err)
		}
		if _, err := ring.Remove(ctx, pkg.ID); !errors.Is(err, ErrNoHealthyRacks) {
			t.Fatalf("remove on dead cluster = %v", err)
		}
		errs, err := ring.ReplyBatch(ctx, []broker.ReplyPost{{RequestID: pkg.ID, Raw: reply}})
		if err != nil || !errors.Is(errs[0], ErrNoHealthyRacks) {
			t.Fatalf("reply batch on dead cluster = %v, %v", errs, err)
		}
		res, err := ring.FetchBatch(ctx, []string{pkg.ID})
		if err != nil || !errors.Is(res[0].Err, ErrNoHealthyRacks) {
			t.Fatalf("fetch batch on dead cluster = %+v, %v", res, err)
		}
	})
}

// countingCourier is a ring backend over a real courier that counts the
// submit, reply and fetch calls, in either form, and the hints routed to it.
type countingCourier struct {
	*Courier
	calls, hints atomic.Int32
}

func (c *countingCourier) Submit(ctx context.Context, raw []byte) (string, error) {
	c.calls.Add(1)
	return c.Courier.Submit(ctx, raw)
}

func (c *countingCourier) Reply(ctx context.Context, id string, raw []byte) error {
	c.calls.Add(1)
	return c.Courier.Reply(ctx, id, raw)
}

func (c *countingCourier) Fetch(ctx context.Context, id string) ([][]byte, error) {
	c.calls.Add(1)
	return c.Courier.Fetch(ctx, id)
}

func (c *countingCourier) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	c.calls.Add(1)
	return c.Courier.SubmitBatch(ctx, raws)
}

func (c *countingCourier) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	c.calls.Add(1)
	return c.Courier.ReplyBatch(ctx, posts)
}

func (c *countingCourier) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	c.calls.Add(1)
	return c.Courier.FetchBatch(ctx, ids)
}

func (c *countingCourier) Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	c.hints.Add(1)
	return c.Courier.Hint(ctx, dest, recs)
}

// TestRingStopsHintingThroughNonReplicatingRack runs R=1 over racks served
// without replication, the loadgen setup. A bottle submitted while its home
// rack is ejected lands on the next rack; once the home rack is back, reads
// and replies ask both (the intent set, then the last resort), and the home
// rack's "unknown" would ask for a read repair. The holder refused the
// submit's hint, so it is never asked to relay again and nothing is counted
// as repaired.
func TestRingStopsHintingThroughNonReplicatingRack(t *testing.T) {
	cfg := RingConfig{ProbeInterval: -1, Replication: 1}
	backs := make([]*countingCourier, 3)
	for i := range backs {
		ccfg, _, stop := testServer(t)
		t.Cleanup(stop)
		c, err := Dial(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		backs[i] = &countingCourier{Courier: c}
		cfg.Backends = append(cfg.Backends, RingBackend{Name: fmt.Sprintf("rack-%d", i), Backend: backs[i]})
	}
	ring, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	ctx := context.Background()
	count := func() (calls, hints int32) {
		for _, b := range backs {
			calls += b.calls.Load()
			hints += b.hints.Load()
		}
		return calls, hints
	}

	raw, pkg := buildRaw(t, 14_000)
	home := rank(nil, ring.members(), pkg.ID)[0]
	home.down.Store(true)
	id, err := ring.Submit(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	if calls, hints := count(); calls != 1 || hints != 1 {
		t.Fatalf("submit past the ejected home rack: %d calls, %d hints; want 1 call and the refused hint", calls, hints)
	}
	ring.Probe(ctx) // readmits the home rack
	if home.down.Load() {
		t.Fatal("home rack not readmitted")
	}

	base, _ := count()
	reply := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now()}).Marshal()
	for round := int32(1); round <= 3; round++ {
		if err := ring.Reply(ctx, id, reply); err != nil {
			t.Fatal(err)
		}
		got, err := ring.Fetch(ctx, id)
		if err != nil || len(got) != 1 {
			t.Fatalf("Fetch = %d replies, %v; want the reply", len(got), err)
		}
		if calls, hints := count(); calls-base != 4*round || hints != 1 {
			t.Fatalf("after %d reply+fetch rounds: %d calls, %d hints; want %d calls (holder and home rack) and no new hint",
				round, calls-base, hints, 4*round)
		}
	}
	st, err := ring.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.ReadRepairs != 0 {
		t.Fatalf("ReadRepairs = %d; nothing can be repaired through racks without replication", st.Replication.ReadRepairs)
	}
}

// TestRingConfigValidation covers the constructor preconditions.
func TestRingConfigValidation(t *testing.T) {
	if _, err := NewRing(RingConfig{}); !errors.Is(err, ErrNoRacks) {
		t.Fatalf("empty config = %v, want ErrNoRacks", err)
	}
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	_, err := NewRing(RingConfig{
		Addrs:    []string{"127.0.0.1:1"},
		Backends: []RingBackend{{Backend: rack}},
	})
	if err == nil {
		t.Fatal("NewRing accepted both Addrs and Backends")
	}
	if _, err := NewRing(RingConfig{Backends: []RingBackend{{}}}); err == nil {
		t.Fatal("NewRing accepted a nil backend")
	}
}

// shortBackend answers every list call with its last outcome dropped, as a
// rack, nested ring or fake with a broken list path would.
type shortBackend struct{ broker.Backend }

func (s shortBackend) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	rs, err := s.Backend.SubmitBatch(ctx, raws)
	return rs[:len(rs)-1], err
}

func (s shortBackend) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	errs, err := s.Backend.ReplyBatch(ctx, posts)
	return errs[:len(errs)-1], err
}

func (s shortBackend) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	rs, err := s.Backend.FetchBatch(ctx, ids)
	return rs[:len(rs)-1], err
}

// TestRingRefusesShortListAnswer: a rack whose list answer is one outcome
// short fails every item it was sent with broker.ErrMalformedFrame, for
// each list verb, instead of panicking the ring on the missing outcome.
func TestRingRefusesShortListAnswer(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	ring, err := NewRing(RingConfig{
		Backends:      []RingBackend{{Name: "short", Backend: shortBackend{rack}}},
		FailThreshold: 100,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	ctx := context.Background()
	rawA, pkgA := buildRaw(t, 1)
	rawB, pkgB := buildRaw(t, 2)
	ids := []string{pkgA.ID, pkgB.ID}
	want := func(verb string, i int, err error) {
		t.Helper()
		if !errors.Is(err, broker.ErrMalformedFrame) {
			t.Errorf("%s item %d: err = %v, want ErrMalformedFrame", verb, i, err)
		}
	}
	subs, _ := ring.SubmitBatch(ctx, [][]byte{rawA, rawB})
	for i, r := range subs {
		want("SubmitBatch", i, r.Err)
	}
	errs, _ := ring.ReplyBatch(ctx, []broker.ReplyPost{{RequestID: ids[0], Raw: []byte("r")}, {RequestID: ids[1], Raw: []byte("r")}})
	for i, err := range errs {
		want("ReplyBatch", i, err)
	}
	fetched, _ := ring.FetchBatch(ctx, ids)
	for i, r := range fetched {
		want("FetchBatch", i, r.Err)
	}
}
