package broker

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/core"
)

// TestSeenWindowMatchesModel drives a SeenWindow and a plain slice model with
// the same seeded adds — repeats included — and demands the same membership,
// order and length after every step.
func TestSeenWindowMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 61, 300} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		w := NewSeenWindow(capacity)
		var model []string
		in := map[string]bool{}
		for step := 0; step < 12*capacity+50; step++ {
			// Draw from a pool a few times the bound: repeats of IDs inside
			// the window, repeats of evicted ones, fresh ones.
			id := fmt.Sprintf("id-%d", rng.Intn(3*capacity+2))
			fresh := !in[id]
			if fresh {
				in[id] = true
				if model = append(model, id); len(model) > capacity {
					delete(in, model[0])
					model = model[1:]
				}
			}
			if got := w.Add(id); got != fresh {
				t.Fatalf("cap %d step %d: Add(%s) = %v, want %v", capacity, step, id, got, fresh)
			}
			if w.Len() != len(model) {
				t.Fatalf("cap %d step %d: len %d, want %d", capacity, step, w.Len(), len(model))
			}
			for i := 0; i < 3*capacity+2; i++ {
				probe := fmt.Sprintf("id-%d", i)
				if got, want := w.Has(probe), in[probe]; got != want {
					t.Fatalf("cap %d step %d: Has(%s) = %v, want %v", capacity, step, probe, got, want)
				}
			}
			n := rng.Intn(len(model) + 2)
			want := model[max(0, len(model)-n):]
			if got := w.AppendNewest(nil, n); !slices.Equal(got, want) {
				t.Fatalf("cap %d step %d: newest %d = %v, want %v", capacity, step, n, got, want)
			}
		}
	}
}

// windowRack is a rack loaded with n bottles that one residue set passes.
func windowRack(t *testing.T, cfg Config, clock *testClock, n int) (*Rack, []core.ResidueSet, []string) {
	t.Helper()
	rack, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raws := rawBottles(t, clock, n)
	if _, err := rack.SubmitBatch(context.Background(), raws); err != nil {
		t.Fatal(err)
	}
	pkg, err := core.UnmarshalPackage(raws[0])
	if err != nil {
		t.Fatal(err)
	}
	all, err := rack.Sweep(context.Background(), SweepQuery{Residues: passAll(pkg.Prime), Limit: n})
	if err != nil || len(all.Bottles) != n {
		t.Fatalf("loaded rack sweeps %d of %d bottles: %v", len(all.Bottles), n, err)
	}
	return rack, passAll(pkg.Prime), sweptIDs(all)
}

// passAll is a residue set with every residue present: no bottle of the prime
// is rejected, so a sweep returns exactly what its cursor and exclusions let
// through.
func passAll(prime uint32) []core.ResidueSet {
	residues := make([]uint32, prime)
	for i := range residues {
		residues[i] = uint32(i)
	}
	return []core.ResidueSet{core.NewResidueSet(prime, residues)}
}

func sweptIDs(res SweepResult) []string {
	ids := make([]string, len(res.Bottles))
	for i, b := range res.Bottles {
		ids[i] = UntagID(b.ID)
	}
	slices.Sort(ids)
	return ids
}

// TestRackCursorProtocol walks a sweeper's cursor through the contract on a
// durable, tagged rack: the first sweep returns everything and the next
// nothing; arrivals come once; a lost answer or a duplicated query repeats
// the page and moves nothing; a restart draws a new epoch, and the old
// cursor costs exactly one sweep from zero.
func TestRackCursorProtocol(t *testing.T) {
	clock := newTestClock()
	cfg := durableConfig(clock, filepath.Join(t.TempDir(), "rack"), wal.PolicyInterval)
	cfg.RackTag = "r7"
	const n = 40
	rack, rs, all := windowRack(t, cfg, clock, n)
	defer func() { rack.Close() }()
	ctx := context.Background()
	sweep := func(name string, cursors []SweepCursor, want ...string) []SweepCursor {
		t.Helper()
		res, err := rack.Sweep(ctx, SweepQuery{Residues: rs, Limit: 2 * n, Cursors: cursors})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sweptIDs(res); !slices.Equal(got, want) || res.Truncated || res.Scanned != statsOf(rack).Held {
			t.Fatalf("%s: swept %v (truncated %v, scanned %d), want %v", name, got, res.Truncated, res.Scanned, want)
		}
		if len(res.Cursors) != 1 || res.Cursors[0].Member != "" || res.Cursors[0].Epoch != rack.epoch {
			t.Fatalf("%s: cursors %+v", name, res.Cursors)
		}
		return res.Cursors
	}
	c0 := sweep("first sweep", nil, all...)
	c1 := sweep("nothing new", c0)
	if c1[0] != c0[0] {
		t.Fatalf("an empty sweep moved the cursor: %+v to %+v", c0, c1)
	}
	raws := rawBottles(t, clock, n+3)[n:]
	var fresh []string
	for _, raw := range raws {
		id, err := rack.Submit(ctx, raw)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, UntagID(id))
	}
	slices.Sort(fresh)
	c2 := sweep("arrivals", c1, fresh...)
	sweep("the same cursor again, as after a lost answer", c1, fresh...)
	sweep("and once more, as a duplicated query", c1, fresh...)
	sweep("the answer's cursor", c2)

	if err := rack.Close(); err != nil {
		t.Fatal(err)
	}
	var err error
	if rack, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	everything := append(slices.Clone(all), fresh...)
	slices.Sort(everything)
	c3 := sweep("the old epoch's cursor after a restart", c2, everything...)
	sweep("the new epoch's", c3)
	if st := statsOf(rack); st.CursorResets != 1 {
		t.Fatalf("cursor resets = %d, want 1", st.CursorResets)
	}
}

// TestRackCursorTruncation is lowest-first truncation at limits 1–4 over 16
// shards and two primes: a sweeper that follows its cursor is handed, over
// its ticks, exactly the bottles one stateless sweep passes, none twice, and
// in as many ticks as the limit needs.
func TestRackCursorTruncation(t *testing.T) {
	ctx := context.Background()
	clock := newTestClock()
	rack := newTestRack(clock, 16)
	defer rack.Close()
	rng := rand.New(rand.NewSource(13))
	primes := []uint32{11, 67}
	now := clock.Now()
	for i := 0; i < 300; i++ {
		raw := synthPackage(t, rng, primes[i%2], fmt.Sprintf("b%03d", i), "", now, now.Add(time.Hour))
		if _, err := rack.Submit(ctx, raw); err != nil {
			t.Fatal(err)
		}
	}
	var residues []core.ResidueSet
	for _, p := range primes {
		residues = append(residues, synthResidues(rng, p, 0.8))
	}
	ref, err := rack.Sweep(ctx, SweepQuery{Residues: residues, Limit: 1000})
	if err != nil || ref.Truncated || len(ref.Bottles) < 20 {
		t.Fatalf("stateless sweep: %d bottles, truncated %v, %v", len(ref.Bottles), ref.Truncated, err)
	}
	want := sweptIDs(ref)
	for limit := 1; limit <= 4; limit++ {
		var cursors []SweepCursor
		var got []string
		ticks := 0
		for {
			ticks++
			if ticks > len(want)/limit+2 {
				t.Fatalf("limit %d: %d ticks and still truncated", limit, ticks)
			}
			res, err := rack.Sweep(ctx, SweepQuery{Residues: residues, Limit: limit, Cursors: cursors})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Bottles) > limit || res.Truncated && len(res.Bottles) != limit {
				t.Fatalf("limit %d tick %d: %d bottles, truncated %v", limit, ticks, len(res.Bottles), res.Truncated)
			}
			got = append(got, sweptIDs(res)...)
			cursors = res.Cursors
			if !res.Truncated {
				break
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("limit %d: the ticks handed over %d bottles, the stateless sweep passes %d\n got %v\nwant %v", limit, len(got), len(want), got, want)
		}
	}
}

// TestRackAdHocSeenList pins that a query's seen list is the stateless
// exclusion it always was: honoured for that query, nothing kept.
func TestRackAdHocSeenList(t *testing.T) {
	clock := newTestClock()
	rack, rs, all := windowRack(t, Config{Shards: 4, ReapInterval: -1, Now: clock.Now}, clock, 20)
	defer rack.Close()
	ctx := context.Background()
	res, err := rack.Sweep(ctx, SweepQuery{Residues: rs, Limit: 20, Seen: all[:5]})
	if err != nil || !slices.Equal(sweptIDs(res), all[5:]) {
		t.Fatalf("ad-hoc list: %d bottles, %v", len(res.Bottles), err)
	}
	if res, err = rack.Sweep(ctx, SweepQuery{Residues: rs, Limit: 20}); err != nil || len(res.Bottles) != 20 {
		t.Fatalf("the list outlived its query: %d bottles, %v", len(res.Bottles), err)
	}
}

// TestRackCursorRaces runs sweepers that follow their cursors at limits 1–4
// against concurrent submitters, with a canceled sweep now and then: every
// bottle a sweeper's residues pass is handed to it exactly once — none lost
// to a submit that raced the sweep, none twice. A cursor set to the highest
// sequence screened rather than the mark read before the scan would lose the
// bottles stamped mid-sweep in shards already scanned. Meant for -race
// -count=10; without it the exactness checks still run.
func TestRackCursorRaces(t *testing.T) {
	ctx := context.Background()
	clock := newTestClock()
	rack := New(Config{Shards: 16, ReapInterval: -1, Now: clock.Now})
	defer rack.Close()
	rng := rand.New(rand.NewSource(21))
	primes := []uint32{11, 67}
	now := clock.Now()
	const writers, perWriter = 2, 400
	raws := make([][][]byte, writers)
	for w := range raws {
		for i := 0; i < perWriter; i++ {
			id := fmt.Sprintf("w%d-%04d", w, i)
			raws[w] = append(raws[w], synthPackage(t, rng, primes[rng.Intn(2)], id, "", now, now.Add(time.Hour)))
		}
	}
	type sweeper struct {
		residues []core.ResidueSet
		cursors  []SweepCursor
		got      map[string]int
		rng      *rand.Rand
	}
	sweepers := make([]*sweeper, 2)
	for k := range sweepers {
		sw := &sweeper{got: make(map[string]int), rng: rand.New(rand.NewSource(int64(k)))}
		for _, p := range primes {
			sw.residues = append(sw.residues, synthResidues(rng, p, 0.7))
		}
		sweepers[k] = sw
	}
	// tick sweeps once at a random limit, abandoning one sweep in eight
	// somewhere between dispatch and the last shard; it reports truncation.
	tick := func(sw *sweeper) (bool, error) {
		q := SweepQuery{Residues: sw.residues, Limit: 1 + sw.rng.Intn(4), Cursors: sw.cursors}
		if sw.rng.Intn(8) == 0 {
			cctx, cancel := context.WithCancel(ctx)
			go cancel()
			rack.Sweep(cctx, q)
			cancel()
		}
		res, err := rack.Sweep(ctx, q)
		if err != nil {
			return false, err
		}
		for _, b := range res.Bottles {
			sw.got[b.ID]++
		}
		sw.cursors = res.Cursors
		return res.Truncated, nil
	}

	var wg sync.WaitGroup
	var writing sync.WaitGroup
	for w := range raws {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for _, raw := range raws[w] {
				if _, err := rack.Submit(ctx, raw); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { writing.Wait(); close(done) }()
	for _, sw := range sweepers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					// Drain: at most one bottle a tick left to hand over.
					for range writers*perWriter + 1 {
						more, err := tick(sw)
						if err != nil {
							t.Error(err)
							return
						}
						if !more {
							return
						}
					}
					t.Error("the sweeper never caught up")
					return
				default:
				}
				if _, err := tick(sw); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, sw := range sweepers {
		ref, err := rack.Sweep(ctx, SweepQuery{Residues: sw.residues, Limit: writers * perWriter})
		if err != nil || ref.Truncated {
			t.Fatalf("stateless sweep: truncated %v, %v", ref.Truncated, err)
		}
		for _, b := range ref.Bottles {
			if sw.got[b.ID] != 1 {
				t.Errorf("sweeper %d was handed %s %d times", k, b.ID, sw.got[b.ID])
			}
		}
		if len(sw.got) != len(ref.Bottles) {
			t.Errorf("sweeper %d was handed %d bottles, the stateless sweep passes %d", k, len(sw.got), len(ref.Bottles))
		}
	}
}

// TestSweepQueryDeltaSize pins what the cursor is for: whatever a sweeper
// has been handed, its steady-state query carries its position, not its
// history — a few dozen bytes where shipping a 4096-ID window took 139 KB.
func TestSweepQueryDeltaSize(t *testing.T) {
	q := SweepQuery{
		Residues: passAll(core.DefaultPrime), Limit: 64,
		Cursors: []SweepCursor{{Epoch: 0x9e3779b97f4a7c15, After: 1 << 40}},
	}
	if n := len(MarshalSweepQuery(q)); n >= 100 {
		t.Fatalf("steady-state query is %d bytes, want under 100", n)
	}
	got, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
	if err != nil || !reflect.DeepEqual(got, q) {
		t.Fatalf("query round trip: %v\n got %+v\nwant %+v", err, got, q)
	}
}
