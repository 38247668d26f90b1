package client

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/core"
)

// windowClock is the racks' clock in the window tests: idle windows are
// reaped by it, and the bottles are built to outlive the jumps.
type windowClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *windowClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *windowClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// lastingRaw is buildRaw with a day's validity on the test clock.
func lastingRaw(tb testing.TB, clock *windowClock, seed int64) []byte {
	tb.Helper()
	built, err := core.BuildRequest(core.RequestSpec{
		Necessary: []attr.Attribute{attr.MustNew("interest", "chess")},
		Optional:  []attr.Attribute{attr.MustNew("interest", "go"), attr.MustNew("interest", "shogi")},
	}, core.BuildOptions{
		Origin:   "alice",
		Rand:     &detReader{rng: rand.New(rand.NewSource(seed))},
		Now:      clock.Now,
		Validity: 24 * time.Hour,
	})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := built.Package.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// faultyLink sits between the sweeper and the backend under test, plays the
// faults of the differential test and keeps what the sweeper sent and was
// handed.
type faultyLink struct {
	broker.Backend
	// lose delivers the next sweep and then loses its answer; twice delivers
	// it twice, as a retry on a fresh connection does, and answers with the
	// second.
	lose, twice bool
	// sent holds the cursors of the last query, answered the IDs of the last
	// answer delivered.
	sent     []broker.SweepCursor
	answered []string
}

func (f *faultyLink) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	f.sent = slices.Clone(q.Cursors)
	if f.twice {
		f.twice = false
		if _, err := f.Backend.Sweep(ctx, q); err != nil {
			return broker.SweepResult{}, err
		}
	}
	res, err := f.Backend.Sweep(ctx, q)
	if f.lose {
		f.lose = false
		return broker.SweepResult{}, context.Canceled
	}
	if err == nil {
		f.answered = sweptIDs(res)
	}
	return res, err
}

func sweptIDs(res broker.SweepResult) []string {
	ids := make([]string, 0, len(res.Bottles))
	for _, b := range res.Bottles {
		ids = append(ids, broker.UntagID(b.ID))
	}
	slices.Sort(ids)
	return slices.Compact(ids) // a ring at R=2 may hand one bottle over twice
}

// windowHistory is the differential test's driver: every tick it changes the
// population, asks the backend statelessly — one sweep without a cursor, the
// way every sweep of a fresh sweeper works — and demands that the sweeper's
// own tick evaluates exactly the passing bottles it has not evaluated
// before: each one once, whatever the racks' cursors, restarts and copies.
type windowHistory struct {
	t       *testing.T
	clock   *windowClock
	link    *faultyLink
	sweeper *Sweeper
	rng     *rand.Rand
	held    []string
	raws    map[string][]byte
	built   int64
	// handled is every ID the sweeper evaluated, ticked the IDs evaluated
	// in the current tick; stateless is the reference of the last tick.
	handled, stateless map[string]bool
	ticked             []string
}

func newWindowHistory(t *testing.T, clock *windowClock, b broker.Backend, limit int) *windowHistory {
	h := &windowHistory{
		t: t, clock: clock, link: &faultyLink{Backend: b}, rng: rand.New(rand.NewSource(5)),
		raws: make(map[string][]byte), handled: make(map[string]bool),
	}
	var err error
	h.sweeper, err = NewSweeper(h.link, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go"),
		Limit:       limit,
		OnResult: func(pkg *core.RequestPackage, _ *core.HandleResult) {
			h.ticked = append(h.ticked, pkg.ID)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// churn removes bottles down to a population of 28 and submits a few new
// ones through the backend.
func (h *windowHistory) churn(name string) {
	h.t.Helper()
	ctx := context.Background()
	for len(h.held) > 28 {
		k := h.rng.Intn(len(h.held))
		if _, err := h.link.Backend.Remove(ctx, h.held[k]); err != nil {
			h.t.Fatalf("%s: remove: %v", name, err)
		}
		h.held = slices.Delete(h.held, k, k+1)
	}
	for i := 2 + h.rng.Intn(4); i > 0; i-- {
		h.built++
		raw := lastingRaw(h.t, h.clock, h.built)
		if id, err := h.link.Backend.Submit(ctx, raw); err == nil {
			h.held = append(h.held, id)
			h.raws[broker.UntagID(id)] = raw
		}
	}
}

// tick runs one step of the history — churn unless quiet — and returns the
// sweeper's stats. A step whose answer is lost is repeated, as a sweeper's
// owner would. A truncated tick must evaluate a part of what is new, an
// untruncated one all of it.
func (h *windowHistory) tick(name string, quiet bool) TickStats {
	h.t.Helper()
	ctx := context.Background()
	if !quiet {
		h.churn(name)
	}
	ref, err := h.link.Backend.Sweep(ctx, broker.SweepQuery{Residues: h.sweeper.residues, Limit: 1 << 16})
	if err != nil || ref.Truncated {
		h.t.Fatalf("%s: stateless reference sweep: truncated %v, %v", name, ref.Truncated, err)
	}
	h.stateless = make(map[string]bool)
	var want []string
	for _, id := range sweptIDs(ref) {
		h.stateless[id] = true
		if !h.handled[id] {
			want = append(want, id)
		}
	}
	h.ticked = h.ticked[:0]
	lost := h.link.lose
	st, err := h.sweeper.Tick(ctx)
	if lost {
		if !errors.Is(err, context.Canceled) || len(h.ticked) > 0 {
			h.t.Fatalf("%s: tick with a lost answer = %v, evaluated %v", name, err, h.ticked)
		}
		st, err = h.sweeper.Tick(ctx)
	}
	if err != nil {
		h.t.Fatalf("%s: %v", name, err)
	}
	got := slices.Sorted(slices.Values(h.ticked))
	for _, id := range got {
		if h.handled[id] || !slices.Contains(want, id) {
			h.t.Fatalf("%s: evaluated %s, which was evaluated before or is not passing (handled %v)", name, id, h.handled[id])
		}
		h.handled[id] = true
	}
	if !st.Truncated && !slices.Equal(got, want) {
		h.t.Fatalf("%s: the sweeper evaluated %d bottles, the stateless sweep has %d new\n got %v\nwant %v",
			name, len(got), len(want), got, want)
	}
	return st
}

// steady runs n ticks.
func (h *windowHistory) steady(name string, n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		h.tick(name, false)
	}
}

// cursor is the sweeper's cursor for a member ("" for a lone rack).
func (h *windowHistory) cursor(member string) broker.SweepCursor {
	for _, c := range h.sweeper.cursors {
		if c.Member == member {
			return c
		}
	}
	return broker.SweepCursor{}
}

// TestSweeperDeltaMatchesStatelessRack is the differential test on one
// durable rack: steady state, a lost answer and a duplicated query (each
// repeats the cursor and moves nothing twice), and a restart, whose new
// epoch costs one sweep from zero.
func TestSweeperDeltaMatchesStatelessRack(t *testing.T) {
	clock := &windowClock{now: time.Date(2013, 7, 8, 0, 0, 0, 0, time.UTC)}
	cfg := broker.Config{
		Shards: 4, ReapInterval: -1, Now: clock.Now,
		Durability: &broker.DurabilityConfig{Dir: filepath.Join(t.TempDir(), "rack"), Fsync: wal.PolicyInterval},
	}
	rack, err := broker.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rack.Close() }()
	h := newWindowHistory(t, clock, rack, 0)
	h.steady("first ticks", 12)

	before := h.cursor("")
	h.link.lose = true
	h.tick("lost answer", false)
	if h.link.sent[0] != before {
		t.Fatalf("the tick after a lost answer sent %+v, want the cursor %+v", h.link.sent, before)
	}
	h.link.twice = true
	h.tick("duplicated query", false)
	h.steady("after the repeats", 3)

	if err := rack.Close(); err != nil {
		t.Fatal(err)
	}
	if rack, err = broker.Open(cfg); err != nil {
		t.Fatal(err)
	}
	h.link.Backend = rack
	h.tick("rack restarted", false)
	if !slices.Equal(h.link.answered, slices.Sorted(maps.Keys(h.stateless))) {
		t.Fatalf("the first sweep after the restart returned %d bottles, want all %d", len(h.link.answered), len(h.stateless))
	}
	if st, _ := rack.Stats(context.Background()); st.CursorResets != 1 {
		t.Fatalf("cursor resets = %d, want 1", st.CursorResets)
	}
	h.link.lose = true
	h.tick("lost answer right after the restart", false)
	h.steady("after the restart", 12)
}

// TestSweeperDeltaMatchesStatelessRing is the differential test through a
// 3-rack ring at R=2: a member dead for six ticks keeps its cursor and is
// swept from it when it returns, a member that sheds a sweep keeps its
// cursor too, a copy of an evaluated bottle racked later on another member
// (what hinted handoff does) is dropped by the sweeper's window, and at a
// limit the ring cuts pages under, the sweeper still evaluates everything
// once.
func TestSweeperDeltaMatchesStatelessRing(t *testing.T) {
	clock := &windowClock{now: time.Now()}
	ring, backs, racks := testCluster(t, 3, 2)
	h := newWindowHistory(t, clock, ring, 0)
	h.steady("first ticks", 10)

	backs[1].dead.Store(true)
	down := h.cursor("rack-1")
	for i := 0; i < 6; i++ {
		h.tick("member down", false)
	}
	if h.cursor("rack-1") != down {
		t.Fatalf("the dead member's cursor moved: %+v to %+v", down, h.cursor("rack-1"))
	}
	backs[1].dead.Store(false)
	ring.Probe(context.Background())
	h.steady("member back", 10)

	shed := h.cursor("rack-2")
	backs[2].shed.Store(1)
	h.tick("one member shedding", true)
	if h.cursor("rack-2") != shed {
		t.Fatalf("the shedding member's cursor moved: %+v to %+v", shed, h.cursor("rack-2"))
	}
	h.steady("all members answering again", 3)

	copied := 0
	for id := range h.handled {
		for _, r := range racks {
			if _, err := r.Submit(context.Background(), h.raws[id]); err == nil {
				copied++
				break
			}
		}
	}
	if copied == 0 {
		t.Fatal("no rack took a copy")
	}
	if st := h.tick("copies racked later", true); st.Duplicates < copied {
		t.Fatalf("the sweeper dropped %d of %d copies", st.Duplicates, copied)
	}

	ring, _, _ = testCluster(t, 3, 2)
	h = newWindowHistory(t, clock, ring, 2)
	for round := 0; round < 4; round++ {
		h.steady("arrivals at limit 2", 4)
		for i := 0; ; i++ {
			if i > 3*len(h.stateless) {
				t.Fatal("the sweeper never caught up at limit 2")
			}
			if st := h.tick("catching up at limit 2", true); !st.Truncated {
				break
			}
		}
		for id := range h.stateless {
			if !h.handled[id] {
				t.Fatalf("round %d: %s passes and was never evaluated", round, id)
			}
		}
	}
}

// pageRecorder keeps the IDs of the last page its backend answered.
type pageRecorder struct {
	broker.Backend
	last []string
}

func (p *pageRecorder) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	res, err := p.Backend.Sweep(ctx, q)
	if err == nil {
		p.last = sweptIDs(res)
	}
	return res, err
}

// TestSweeperDeltaMatchesStatelessNestedRing is the differential test
// through a ring whose members are a rack and a ring of two racks, at a
// limit the outer ring cuts the inner ring's page under: the inner ring's
// cursors then stay where they were, the page comes back, the sweeper drops
// what it already evaluated and still evaluates every passing bottle once
// and catches up.
func TestSweeperDeltaMatchesStatelessNestedRing(t *testing.T) {
	clock := &windowClock{now: time.Now()}
	inner, _, _ := testCluster(t, 2, 1)
	outerRack := broker.New(broker.Config{Shards: 4, ReapInterval: -1, RackTag: "o0"})
	defer outerRack.Close()
	page := &pageRecorder{Backend: inner}
	ring, err := NewRing(RingConfig{ProbeInterval: -1, Backends: []RingBackend{
		{Name: "outer", Backend: outerRack},
		{Name: "inner", Backend: page},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	h := newWindowHistory(t, clock, ring, 2)
	cuts := 0
	tick := func(name string, quiet bool) TickStats {
		st := h.tick(name, quiet)
		for _, id := range page.last {
			if !slices.Contains(h.link.answered, id) {
				cuts++
				break
			}
		}
		return st
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 4; i++ {
			tick("arrivals at limit 2", false)
		}
		for i := 0; ; i++ {
			if i > 3*len(h.stateless) {
				t.Fatal("the sweeper never caught up at limit 2")
			}
			if st := tick("catching up at limit 2", true); !st.Truncated {
				break
			}
		}
		for id := range h.stateless {
			if !h.handled[id] {
				t.Fatalf("round %d: %s passes and was never evaluated", round, id)
			}
		}
	}
	t.Logf("%d cut pages, %d bottles evaluated", cuts, len(h.handled))
	if cuts == 0 {
		t.Fatal("the outer ring never cut the inner ring's page")
	}
	for _, member := range []string{"outer", "inner/rack-0", "inner/rack-1"} {
		if h.cursor(member).Epoch == 0 {
			t.Fatalf("no cursor for %s: %+v", member, h.sweeper.cursors)
		}
	}
}

// TestSweeperSeenCapBound pins the constructor's side of the window bound:
// zero takes DefaultSeenCap, and any bound is the sweeper's own business —
// no rack holds the window.
func TestSweeperSeenCapBound(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 1, ReapInterval: -1})
	defer rack.Close()
	cfg := SweeperConfig{Participant: newParticipant(t, "bob", "chess")}
	s, err := NewSweeper(rack, cfg)
	if err != nil || s.cfg.SeenCap != DefaultSeenCap {
		t.Fatalf("SeenCap zero: %v, bound %d", err, s.cfg.SeenCap)
	}
	cfg.SeenCap = 1 << 20
	if _, err := NewSweeper(rack, cfg); err != nil {
		t.Fatalf("a large SeenCap: %v", err)
	}
}

// writeCounter counts the bytes a connection's client side writes.
type writeCounter struct {
	net.Conn
	out *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// relabel clones a marshalled package under a fresh request ID.
func relabel(tb testing.TB, raw []byte, n int64) []byte {
	tb.Helper()
	pkg, err := core.UnmarshalPackage(raw)
	if err != nil {
		tb.Fatal(err)
	}
	pkg.ID = fmt.Sprintf("%032x", n)
	out, err := pkg.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestSweeperSteadyTickBudget pins what a steady-state tick costs over the
// wire path (pipe listener, mux framing, server dispatch, rack) with a full
// 4096-ID window and nothing new on the rack: some fifteen allocations and a
// query of a few dozen bytes, where shipping the window cost 4096 strings on
// the server alone and 139 KB.
func TestSweeperSteadyTickBudget(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
	defer rack.Close()
	l := transport.ListenPipe()
	srv := transport.NewServer(rack)
	go srv.Serve(l)
	defer srv.Close()
	defer l.Close()
	var sent atomic.Int64
	courier, err := Dial(Config{Conns: 1, Dialer: func() (net.Conn, error) {
		nc, err := l.Dial()
		return writeCounter{Conn: nc, out: &sent}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer courier.Close()
	sweeper, err := NewSweeper(courier, SweeperConfig{Participant: newParticipant(t, "bob", "chess", "go")})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	template := lastingRaw(t, &windowClock{now: time.Now()}, 1)
	for i := int64(0); sweeper.seen.Len() < DefaultSeenCap; {
		raws := make([][]byte, 256)
		for j := range raws {
			i++
			raws[j] = relabel(t, template, i)
		}
		if _, err := courier.SubmitBatch(ctx, raws); err != nil {
			t.Fatal(err)
		}
		if _, err := sweeper.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	tick := func() {
		st, err := sweeper.Tick(ctx)
		if err != nil || st.Swept != 0 {
			t.Fatalf("steady tick: %+v, %v", st, err)
		}
	}
	tick() // the last fill's arrivals
	before := sent.Load()
	tick()
	if n := sent.Load() - before; n >= 100 {
		t.Errorf("steady-state tick wrote %d bytes, want under 100", n)
	}
	if raceEnabled {
		return // the race detector's bookkeeping allocates
	}
	// Measured 15; the slack is for scheduler-dependent pool misses.
	if avg := testing.AllocsPerRun(100, tick); avg > 20 {
		t.Errorf("steady-state tick: %v allocs, budget 20", avg)
	}
}
