package client

import (
	"context"
	"errors"
	"fmt"
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
// operation fails at the "transport" level, like a crashed bottlerack.
type unstableBackend struct {
	rack *broker.Rack
	dead atomic.Bool
	// shed is how many of a sweeper's next sweeps (those that name a window)
	// are refused as over quota: the rack is up, it just does not serve them.
	shed atomic.Int32
}

func (u *unstableBackend) Submit(ctx context.Context, raw []byte) (string, error) {
	if u.dead.Load() {
		return "", errRackDown
	}
	return u.rack.Submit(ctx, raw)
}

func (u *unstableBackend) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	if u.dead.Load() {
		return broker.SweepResult{}, errRackDown
	}
	if q.Window != 0 && u.shed.Load() > 0 {
		u.shed.Add(-1)
		return broker.SweepResult{}, broker.ErrOverload
	}
	return u.rack.Sweep(ctx, q)
}

func (u *unstableBackend) Reply(ctx context.Context, id string, raw []byte) error {
	if u.dead.Load() {
		return errRackDown
	}
	return u.rack.Reply(ctx, id, raw)
}

func (u *unstableBackend) Fetch(ctx context.Context, id string) ([][]byte, error) {
	if u.dead.Load() {
		return nil, errRackDown
	}
	return u.rack.Fetch(ctx, id)
}

func (u *unstableBackend) Remove(ctx context.Context, id string) (bool, error) {
	if u.dead.Load() {
		return false, errRackDown
	}
	return u.rack.Remove(ctx, id)
}

func (u *unstableBackend) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	if u.dead.Load() {
		return nil, errRackDown
	}
	return u.rack.SubmitBatch(ctx, raws)
}

func (u *unstableBackend) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	if u.dead.Load() {
		return nil, errRackDown
	}
	return u.rack.ReplyBatch(ctx, posts)
}

func (u *unstableBackend) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	if u.dead.Load() {
		return nil, errRackDown
	}
	return u.rack.FetchBatch(ctx, ids)
}

func (u *unstableBackend) Stats(ctx context.Context) (broker.Stats, error) {
	if u.dead.Load() {
		return broker.Stats{}, errRackDown
	}
	return u.rack.Stats(ctx)
}

func (u *unstableBackend) Close() error { return nil }

// testCluster stands up n tagged in-process racks and a ring over them (no
// background prober — tests drive Probe deterministically).
func testCluster(t *testing.T, n int) (*Ring, []*unstableBackend, []*broker.Rack) {
	t.Helper()
	racks := make([]*broker.Rack, n)
	backs := make([]*unstableBackend, n)
	cfg := RingConfig{ProbeInterval: -1}
	for i := 0; i < n; i++ {
		racks[i] = broker.New(broker.Config{
			Shards: 4, Workers: 2, ReapInterval: -1,
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
// request ID and the healthy rack set: an independent ring over the same
// racks routes every bottle to the rack that actually holds it.
func TestRingRoutingDeterminism(t *testing.T) {
	ring, _, racks := testCluster(t, 3)
	ring2, _, _ := testCluster(t, 3) // same names, fresh racks — only the hash matters

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
		if got := pickHRW(ring2.healthy(), pkg.ID).name; got != fmt.Sprintf("rack-%d", rackIdx) {
			t.Fatalf("ring2 routes %s to %s, ring1 placed it on rack-%d", pkg.ID, got, rackIdx)
		}
	}
	if len(usedRacks) != 3 {
		t.Fatalf("30 bottles landed on %d racks, want all 3 (degenerate hash?)", len(usedRacks))
	}
}

// TestRingBatchEquivalence proves a batched cluster submit racks exactly the
// same bottles a single rack would, spread across the racks, and that a
// cluster sweep returns them all.
func TestRingBatchEquivalence(t *testing.T) {
	ring, _, racks := testCluster(t, 3)
	single := broker.New(broker.Config{Shards: 4, Workers: 2, ReapInterval: -1})
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
	ring, _, _ := testCluster(t, 3)
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
}

// TestRingRepliesRouteAcrossRacks runs the full sweep→reply→fetch loop over
// the cluster: the sweeper teaches the ring which rack holds each bottle and
// the replies land on the right racks with no fan-out guesswork left to
// verify fetch-side.
func TestRingRepliesRouteAcrossRacks(t *testing.T) {
	ring, _, _ := testCluster(t, 3)
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

// TestRingTagRoutingSurvivesRestart proves the rack-tag prefix alone routes
// an ID issued before the client restarted: a fresh ring with an empty
// table finds the bottle (learning the tag along the way), even when it
// lives on a rack the rendezvous hash would try last.
func TestRingTagRoutingSurvivesRestart(t *testing.T) {
	ring, backs, racks := testCluster(t, 3)
	_ = backs

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
}

// TestRingRackFailureMidLoad kills one rack mid-load and demands: the rack is
// ejected after the failure threshold, submits keep succeeding on the
// survivors, sweeps and fetches keep serving every bottle on healthy racks,
// and the rack is re-admitted by a probe once it returns.
func TestRingRackFailureMidLoad(t *testing.T) {
	ring, backs, racks := testCluster(t, 3)

	surviving := make([]string, 0, 64) // pkg IDs on racks 0 and 2
	submit := func(seed int64) (rackTag string) {
		raw, pkg := buildRaw(t, seed)
		id, err := ring.Submit(context.Background(), raw)
		if err != nil {
			return ""
		}
		tag, _ := broker.SplitTaggedID(id)
		if tag != "r1" {
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
	// Keep loading. Submits hashed to the dead rack fail until its ejection
	// (FailThreshold consecutive faults), then everything routes around it.
	failures := 0
	for i := 0; i < 200; i++ {
		if tag := submit(int64(7000 + i)); tag == "" {
			failures++
		}
	}
	if failures == 0 || failures > DefaultFailThreshold {
		t.Fatalf("saw %d failed submits around ejection, want 1..%d", failures, DefaultFailThreshold)
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
}

// TestRingRoutedPrefersFaultOverUnknown proves a routed operation whose
// owning rack is unreachable reports the fault, not the other racks'
// unknown-bottle answers: "unknown" reads as a definitive broker answer and
// would make callers (the Sweeper's reply retry queue in particular) drop
// work that is merely delayed, not dead.
func TestRingRoutedPrefersFaultOverUnknown(t *testing.T) {
	ring, backs, _ := testCluster(t, 3)
	raw, pkg := buildRaw(t, 12_000)
	id, err := ring.Submit(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := broker.SplitTaggedID(id)
	holder := int(tag[1] - '0')
	backs[holder].dead.Store(true)

	reply := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()
	err = ring.Reply(context.Background(), pkg.ID, reply)
	if err == nil {
		t.Fatal("Reply succeeded with the owning rack dead")
	}
	if errors.Is(err, broker.ErrUnknownBottle) || !rackFault(err) {
		t.Fatalf("Reply with owning rack dead = %v; want the rack fault, not a definitive unknown-bottle", err)
	}
	// Once the rack returns, the same reply goes through.
	backs[holder].dead.Store(false)
	if err := ring.Reply(context.Background(), pkg.ID, reply); err != nil {
		t.Fatalf("Reply after rack recovery: %v", err)
	}
	if raws, err := ring.Fetch(context.Background(), pkg.ID); err != nil || len(raws) != 1 {
		t.Fatalf("Fetch after recovery = %d replies, %v", len(raws), err)
	}
}

// TestRingAllRacksDown proves a fully dead cluster reports
// ErrNoHealthyRacks instead of hanging or misreporting.
func TestRingAllRacksDown(t *testing.T) {
	ring, backs, _ := testCluster(t, 2)
	for _, b := range backs {
		b.dead.Store(true)
	}
	raw, _ := buildRaw(t, 10_000)
	// Trip the ejection threshold on both racks.
	for i := 0; i < 2*DefaultFailThreshold+2; i++ {
		_, err := ring.Submit(context.Background(), raw)
		if err == nil {
			t.Fatal("submit succeeded against dead racks")
		}
		if errors.Is(err, ErrNoHealthyRacks) {
			if _, err := ring.Sweep(context.Background(), broker.SweepQuery{Residues: chessResidues(t)}); !errors.Is(err, ErrNoHealthyRacks) {
				t.Fatalf("sweep on dead cluster = %v", err)
			}
			return
		}
	}
	t.Fatal("ring never reported ErrNoHealthyRacks")
}

// TestRingConfigValidation covers the constructor preconditions.
func TestRingConfigValidation(t *testing.T) {
	if _, err := NewRing(RingConfig{}); !errors.Is(err, ErrNoRacks) {
		t.Fatalf("empty config = %v, want ErrNoRacks", err)
	}
	rack := broker.New(broker.Config{Shards: 2, Workers: 1, ReapInterval: -1})
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

// TestRingIDTableBounded proves the routing table evicts FIFO at its cap and
// routing falls back gracefully for evicted IDs.
func TestRingIDTableBounded(t *testing.T) {
	ring, _, _ := testCluster(t, 2)
	ring.idTab = newIDTable(8)
	var ids []string
	for i := 0; i < 24; i++ {
		raw, pkg := buildRaw(t, int64(11_000+i))
		if _, err := ring.Submit(context.Background(), raw); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pkg.ID)
	}
	if n := len(ring.idTab.m); n > 8 {
		t.Fatalf("id table grew to %d entries (cap 8)", n)
	}
	// Evicted IDs still route (hash-order fan-out finds the rack).
	for _, id := range ids {
		if held, err := ring.Remove(context.Background(), id); err != nil || !held {
			t.Fatalf("Remove(%s) after eviction = %v, %v", id, held, err)
		}
	}
}
