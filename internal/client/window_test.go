package client

import (
	"context"
	"errors"
	"fmt"
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
// faults of the differential test and keeps what the sweeper was handed.
type faultyLink struct {
	broker.Backend
	// lose delivers the next sweep and then loses its answer; twice delivers
	// it twice, as a retry on a fresh connection does, and answers with the
	// second.
	lose, twice bool
	// answered holds the IDs of the last answer that was not a resync, and
	// full whether the query it answered carried the whole window.
	answered []string
	full     bool
}

func (f *faultyLink) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
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
	if err == nil && !res.Resync {
		f.answered, f.full = sweptIDs(res), q.SeenFull
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
// population, asks the backend statelessly — the sweeper's whole window as an
// ad-hoc list, the way every sweep worked before racks held windows — and
// demands that the sweeper's own delta-mode tick is handed exactly the same
// bottles.
type windowHistory struct {
	t       *testing.T
	clock   *windowClock
	link    *faultyLink
	sweeper *Sweeper
	rng     *rand.Rand
	held    []string
	built   int64
}

func newWindowHistory(t *testing.T, clock *windowClock, b broker.Backend) *windowHistory {
	h := &windowHistory{t: t, clock: clock, link: &faultyLink{Backend: b}, rng: rand.New(rand.NewSource(5))}
	var err error
	// A window shorter than the population: evicted bottles come back, so the
	// two sides have to evict in the same order to keep agreeing.
	h.sweeper, err = NewSweeper(h.link, SweeperConfig{Participant: newParticipant(t, "bob", "chess", "go"), SeenCap: 24})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// tick runs one step of the history and returns the sweeper's stats. A step
// whose answer is lost is repeated, as a sweeper's owner would.
func (h *windowHistory) tick(name string) TickStats {
	h.t.Helper()
	ctx := context.Background()
	// The population stays a little above the window, so that a tick's delta
	// stays below it.
	for len(h.held) > 28 {
		k := h.rng.Intn(len(h.held))
		if _, err := h.link.Backend.Remove(ctx, h.held[k]); err != nil {
			h.t.Fatalf("%s: remove: %v", name, err)
		}
		h.held = slices.Delete(h.held, k, k+1)
	}
	for i := 2 + h.rng.Intn(4); i > 0; i-- {
		h.built++
		if id, err := h.link.Backend.Submit(ctx, lastingRaw(h.t, h.clock, h.built)); err == nil {
			h.held = append(h.held, id)
		}
	}
	window := h.sweeper.seen.AppendNewest(nil, h.sweeper.seen.Len())
	ref, err := h.link.Backend.Sweep(ctx, broker.SweepQuery{Residues: h.sweeper.residues, Seen: window})
	if err != nil || ref.Truncated {
		h.t.Fatalf("%s: stateless reference sweep: truncated %v, %v", name, ref.Truncated, err)
	}
	lost := h.link.lose
	st, err := h.sweeper.Tick(ctx)
	if lost {
		if !errors.Is(err, context.Canceled) {
			h.t.Fatalf("%s: tick with a lost answer = %v", name, err)
		}
		st, err = h.sweeper.Tick(ctx)
	}
	if err != nil {
		h.t.Fatalf("%s: %v", name, err)
	}
	if want := sweptIDs(ref); !slices.Equal(h.link.answered, want) {
		h.t.Fatalf("%s: the sweeper was handed %d bottles, the stateless sweep %d\n got %v\nwant %v",
			name, len(h.link.answered), len(want), h.link.answered, want)
	}
	return st
}

// steady runs n uneventful ticks and demands that none of them resyncs.
func (h *windowHistory) steady(name string, n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if st := h.tick(name); st.Resyncs != 0 {
			h.t.Fatalf("%s: steady tick %d resynced", name, i)
		}
	}
}

// TestSweeperDeltaMatchesStatelessRack is the differential test on one
// durable rack: steady state, a lost answer, a duplicated query, the window
// reaped for idleness, and the rack restarted.
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
	h := newWindowHistory(t, clock, rack)
	h.steady("filling the window", 12)

	h.link.lose = true
	if st := h.tick("lost answer"); st.Resyncs != 0 {
		t.Fatal("the repeated delta after a lost answer cost a resync")
	}
	h.link.twice = true
	if st := h.tick("duplicated query"); st.Resyncs != 0 {
		t.Fatal("a duplicated query cost a resync")
	}
	h.steady("after the repeats", 3)

	clock.advance(time.Hour)
	rack.Reap()
	if st := h.tick("window reaped"); st.Resyncs != 1 {
		t.Fatalf("tick after the window was reaped: %d resyncs, want 1", st.Resyncs)
	}
	h.steady("after the eviction", 3)

	if err := rack.Close(); err != nil {
		t.Fatal(err)
	}
	if rack, err = broker.Open(cfg); err != nil {
		t.Fatal(err)
	}
	h.link.Backend = rack
	if st := h.tick("rack restarted"); st.Resyncs != 1 {
		t.Fatalf("tick after the restart: %d resyncs, want 1", st.Resyncs)
	}
	h.link.lose = true
	h.tick("lost answer right after a resync")
	h.steady("after the restart", 12)
}

// TestSweeperDeltaMatchesStatelessRing is the differential test through a
// 3-rack ring at R=2 with one member dead for several ticks: it misses the
// deltas the others applied, and its first answer back is a resync.
func TestSweeperDeltaMatchesStatelessRing(t *testing.T) {
	clock := &windowClock{now: time.Now()}
	ring, backs, _ := testReplicatedCluster(t, 3, 2)
	h := newWindowHistory(t, clock, ring)
	h.steady("filling the window", 10)

	backs[1].dead.Store(true)
	for i := 0; i < 6; i++ {
		h.tick("member down")
	}
	backs[1].dead.Store(false)
	ring.Probe(context.Background())
	if st := h.tick("member back"); st.Resyncs != 1 {
		t.Fatalf("tick after the member returned: %d resyncs, want 1", st.Resyncs)
	}
	h.steady("after the ejection", 10)

	// A member that sheds a sweep stays in the ring and misses the delta. The
	// ring says the sweep was partial and the next query carries the whole
	// window: the member catches up on the first query it admits, not on the
	// second of two in a row, which a rack that is shedding may never admit.
	backs[2].shed.Store(1)
	if st, err := h.sweeper.Tick(context.Background()); err != nil || st.Resyncs != 0 {
		t.Fatalf("tick with one member shedding: %d resyncs, %v", st.Resyncs, err)
	}
	if h.steady("after the shed sweep", 1); !h.link.full {
		t.Fatal("the query after a partial sweep did not carry the whole window")
	}
	if h.steady("all members answering again", 3); h.link.full {
		t.Fatal("the sweeper kept sending the whole window after every member had answered")
	}
}

// TestSweeperSeenCapBound pins the constructor's side of the window bound.
func TestSweeperSeenCapBound(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 1, ReapInterval: -1})
	defer rack.Close()
	cfg := SweeperConfig{Participant: newParticipant(t, "bob", "chess"), SeenCap: broker.MaxSeenCap}
	if _, err := NewSweeper(rack, cfg); err != nil {
		t.Fatalf("SeenCap at the bound: %v", err)
	}
	cfg.SeenCap++
	if _, err := NewSweeper(rack, cfg); err == nil {
		t.Fatal("NewSweeper accepted a SeenCap no rack would hold")
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
// 4096-ID window and nothing new on the rack: some two dozen allocations and
// a query of a few dozen bytes, where shipping the window cost 4096 strings on
// the server alone and 139 KB.
func TestSweeperSteadyTickBudget(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 4, Workers: 2, ReapInterval: -1})
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
		if err != nil || st.Swept != 0 || st.Resyncs != 0 {
			t.Fatalf("steady tick: %+v, %v", st, err)
		}
	}
	tick() // the last fill's delta
	before := sent.Load()
	tick()
	if n := sent.Load() - before; n >= 1000 {
		t.Errorf("steady-state tick wrote %d bytes, want under 1000", n)
	}
	if raceEnabled {
		return // the race detector's bookkeeping allocates
	}
	// Measured 25; the slack is for scheduler-dependent pool misses.
	if avg := testing.AllocsPerRun(100, tick); avg > 32 {
		t.Errorf("steady-state tick: %v allocs, budget 32", avg)
	}
}
