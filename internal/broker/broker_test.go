package broker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
)

// testClock is a mutable, goroutine-safe clock for expiry tests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Date(2013, 7, 8, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// detReader adapts a seeded math/rand source to io.Reader for deterministic
// request building.
type detReader struct{ rng *rand.Rand }

func (d *detReader) Read(p []byte) (int, error) { return d.rng.Read(p) }

// buildRawPackage builds a marshalled request over the given attributes.
func buildRawPackage(tb testing.TB, rng *rand.Rand, clock *testClock, origin string, necessary, optional []attr.Attribute, minOptional int) ([]byte, *core.RequestPackage) {
	tb.Helper()
	built, err := core.BuildRequest(core.RequestSpec{
		Necessary:   necessary,
		Optional:    optional,
		MinOptional: minOptional,
	}, core.BuildOptions{
		Origin: origin,
		Rand:   &detReader{rng: rng},
		Now:    clock.Now,
	})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := built.Package.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return raw, built.Package
}

func interests(names ...string) []attr.Attribute {
	out := make([]attr.Attribute, len(names))
	for i, n := range names {
		out[i] = attr.MustNew("interest", n)
	}
	return out
}

func newTestRack(clock *testClock, shards int) *Rack {
	return New(Config{Shards: shards, ReapInterval: -1, Now: clock.Now})
}

func TestSubmitSweepReplyFetchLifecycle(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 4)
	defer rack.Close()
	rng := rand.New(rand.NewSource(1))

	raw, pkg := buildRawPackage(t, rng, clock, "alice",
		interests("chess"), interests("go", "shogi", "xiangqi"), 2)
	id, err := rack.Submit(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if id != pkg.ID {
		t.Fatalf("Submit returned id %q, want %q", id, pkg.ID)
	}

	// A sweeper owning every request attribute must get the bottle back.
	matcher, err := core.NewMatcher(attr.NewProfile(
		append(interests("chess", "go", "shogi"), attr.MustNew("city", "dallas"))...,
	), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs := matcher.ResidueSet(pkg.Prime)
	if !pkg.PrefilterMatch(rs) {
		t.Fatal("sweeper owning all attributes must pass the prefilter")
	}
	res, err := rack.Sweep(context.Background(), SweepQuery{Residues: []core.ResidueSet{rs}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bottles) != 1 || res.Bottles[0].ID != pkg.ID {
		t.Fatalf("Sweep returned %d bottles, want the submitted one", len(res.Bottles))
	}
	if got, err := core.UnmarshalPackage(res.Bottles[0].Raw); err != nil || got.ID != pkg.ID {
		t.Fatalf("swept payload does not decode to the submitted package: %v", err)
	}

	// The submitter's own sweep is excluded by origin.
	own, err := rack.Sweep(context.Background(), SweepQuery{Residues: []core.ResidueSet{rs}, ExcludeOrigin: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(own.Bottles) != 0 {
		t.Fatal("ExcludeOrigin must hide the origin's own bottles")
	}

	// Reply and fetch.
	reply := &core.Reply{RequestID: pkg.ID, From: "bob", SentAt: clock.Now(), Acks: [][]byte{{1, 2, 3}}}
	if err := rack.Reply(context.Background(), pkg.ID, reply.Marshal()); err != nil {
		t.Fatal(err)
	}
	raws, err := rack.Fetch(context.Background(), pkg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 1 {
		t.Fatalf("Fetch returned %d replies, want 1", len(raws))
	}
	if got, err := core.UnmarshalReply(raws[0]); err != nil || got.From != "bob" {
		t.Fatalf("fetched reply does not decode: %v", err)
	}
	// Fetch drains.
	if raws, err = rack.Fetch(context.Background(), pkg.ID); err != nil || len(raws) != 0 {
		t.Fatalf("second Fetch = %d replies, %v; want empty", len(raws), err)
	}

	st := statsOf(rack)
	if st.Held != 1 || st.Totals.Submitted != 1 || st.Totals.RepliesIn != 1 || st.Totals.RepliesOut != 1 {
		t.Fatalf("unexpected stats: %+v", st.Totals)
	}
	if len(st.Primes) != 1 || st.Primes[0] != pkg.Prime {
		t.Fatalf("Primes = %v, want [%d]", st.Primes, pkg.Prime)
	}

	if ok, err := rack.Remove(context.Background(), pkg.ID); err != nil || !ok {
		t.Fatalf("Remove = (%v, %v), must report the bottle was held", ok, err)
	}
	if ok, err := rack.Remove(context.Background(), pkg.ID); err != nil || ok {
		t.Fatalf("second Remove = (%v, %v), must report absence", ok, err)
	}
	if _, err := rack.Fetch(context.Background(), pkg.ID); !errors.Is(err, ErrUnknownBottle) {
		t.Fatalf("Fetch after Remove = %v, want ErrUnknownBottle", err)
	}
}

func TestSubmitRejectsGarbageDuplicatesAndExpired(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 2)
	defer rack.Close()
	rng := rand.New(rand.NewSource(2))

	if _, err := rack.Submit(context.Background(), []byte("not a package")); !errors.Is(err, core.ErrMalformedPackage) {
		t.Fatalf("garbage submit = %v, want ErrMalformedPackage", err)
	}
	raw, _ := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	if _, err := rack.Submit(context.Background(), raw); !errors.Is(err, ErrDuplicateBottle) {
		t.Fatalf("duplicate submit = %v, want ErrDuplicateBottle", err)
	}
	stale, _ := buildRawPackage(t, rng, clock, "a", interests("y"), nil, 0)
	clock.Advance(core.DefaultValidity + time.Second)
	if _, err := rack.Submit(context.Background(), stale); !errors.Is(err, core.ErrExpired) {
		t.Fatalf("expired submit = %v, want ErrExpired", err)
	}
	if st := statsOf(rack); st.Totals.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Totals.Duplicates)
	}
}

// TestSubmitRequestIDCap pins the request-ID bound at the one place bottles
// are made: an ID of maxRequestIDLen bytes is racked, one byte more is
// refused by Submit and SubmitBatch as a malformed package, and WAL replay
// drops such a record as it drops an unreadable one.
func TestSubmitRequestIDCap(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 2)
	defer rack.Close()
	ctx := context.Background()
	template, _ := buildRawPackage(t, rand.New(rand.NewSource(3)), clock, "a", interests("x"), nil, 0)
	withID := func(n int) []byte {
		pkg, err := core.UnmarshalPackage(template)
		if err != nil {
			t.Fatal(err)
		}
		pkg.ID = strings.Repeat(fmt.Sprint(n%10), n)
		raw, err := pkg.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if _, err := rack.Submit(ctx, withID(maxRequestIDLen)); err != nil {
		t.Fatalf("an ID at the cap: %v", err)
	}
	if _, err := rack.Submit(ctx, withID(maxRequestIDLen+1)); !errors.Is(err, core.ErrMalformedPackage) {
		t.Fatalf("an ID one byte over the cap: %v, want ErrMalformedPackage", err)
	}
	res, err := rack.SubmitBatch(ctx, [][]byte{withID(maxRequestIDLen - 1), withID(maxRequestIDLen + 1)})
	if err != nil || res[0].Err != nil || !errors.Is(res[1].Err, core.ErrMalformedPackage) {
		t.Fatalf("batch at and over the cap: %+v, %v", res, err)
	}
	if err := rack.apply(HandoffRecord{Type: RecSubmit, Payload: withID(maxRequestIDLen + 1)}, clock.Now()); !errors.Is(err, core.ErrMalformedPackage) {
		t.Fatalf("replaying an over-long ID: %v, want ErrMalformedPackage", err)
	}
	if st := statsOf(rack); st.Held != 2 {
		t.Fatalf("held %d bottles, want the 2 at or under the cap", st.Held)
	}
}

func TestLazyExpiryAndReap(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 2)
	defer rack.Close()
	rng := rand.New(rand.NewSource(3))

	raw1, pkg1 := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	if _, err := rack.Submit(context.Background(), raw1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	raw2, pkg2 := buildRawPackage(t, rng, clock, "b", interests("x"), nil, 0)
	if _, err := rack.Submit(context.Background(), raw2); err != nil {
		t.Fatal(err)
	}

	matcher, err := core.NewMatcher(attr.NewProfile(interests("x")...), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs := matcher.ResidueSet(pkg1.Prime)

	// Expire the first bottle only; a sweep must skip (and unlink) it.
	clock.Advance(core.DefaultValidity - 30*time.Second)
	res, err := rack.Sweep(context.Background(), SweepQuery{Residues: []core.ResidueSet{rs}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bottles) != 1 || res.Bottles[0].ID != pkg2.ID {
		t.Fatalf("sweep after partial expiry returned %v, want only %s", res.Bottles, pkg2.ID)
	}
	st := statsOf(rack)
	if st.Held != 1 || st.Totals.Expired != 1 {
		t.Fatalf("after lazy expiry: held=%d expired=%d, want 1/1", st.Held, st.Totals.Expired)
	}
	if _, err := rack.Fetch(context.Background(), pkg1.ID); !errors.Is(err, ErrUnknownBottle) {
		t.Fatalf("Fetch of lazily expired bottle = %v, want ErrUnknownBottle", err)
	}

	// Expire the second; the background-style Reap must collect it without
	// any sweep touching the shard.
	clock.Advance(core.DefaultValidity)
	if n := rack.Reap(); n != 1 {
		t.Fatalf("Reap = %d, want 1", n)
	}
	st = statsOf(rack)
	if st.Held != 0 || st.Totals.Expired != 2 {
		t.Fatalf("after reap: held=%d expired=%d, want 0/2", st.Held, st.Totals.Expired)
	}
	if primes := rack.Primes(); len(primes) != 0 {
		t.Fatalf("Primes after reap = %v, want empty", primes)
	}
}

func TestSweepLimitSeenAndDeterministicOrder(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 8)
	defer rack.Close()
	rng := rand.New(rand.NewSource(4))

	const n = 40
	for i := 0; i < n; i++ {
		raw, _ := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
		if _, err := rack.Submit(context.Background(), raw); err != nil {
			t.Fatal(err)
		}
	}
	matcher, err := core.NewMatcher(attr.NewProfile(interests("x")...), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs := []core.ResidueSet{matcher.ResidueSet(core.DefaultPrime)}

	first, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Bottles) != 10 || !first.Truncated {
		t.Fatalf("limited sweep: %d bottles truncated=%v, want 10/true", len(first.Bottles), first.Truncated)
	}
	// A truncated sweep returns exactly Limit distinct bottles, the Limit
	// stamped first; identical full-coverage queries on a quiescent rack must
	// return identical order.
	distinct := make(map[string]struct{}, len(first.Bottles))
	for _, b := range first.Bottles {
		distinct[b.ID] = struct{}{}
	}
	if len(distinct) != 10 {
		t.Fatalf("truncated sweep returned %d distinct bottles, want 10", len(distinct))
	}
	full, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs, Limit: n})
	if err != nil {
		t.Fatal(err)
	}
	again, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs, Limit: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Bottles) != n || full.Truncated {
		t.Fatalf("full sweep: %d bottles truncated=%v, want %d/false", len(full.Bottles), full.Truncated, n)
	}
	for i := range full.Bottles {
		if full.Bottles[i].ID != again.Bottles[i].ID {
			t.Fatalf("sweep order not deterministic at %d: %s vs %s",
				i, full.Bottles[i].ID, again.Bottles[i].ID)
		}
	}
	// Marking the first batch seen must surface fresh bottles only.
	var seen []string
	for _, b := range first.Bottles {
		seen = append(seen, b.ID)
	}
	rest, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs, Seen: seen})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest.Bottles) != n-10 {
		t.Fatalf("seen-filtered sweep returned %d, want %d", len(rest.Bottles), n-10)
	}
	got := make(map[string]struct{}, n)
	for _, id := range seen {
		got[id] = struct{}{}
	}
	for _, b := range rest.Bottles {
		if _, dup := got[b.ID]; dup {
			t.Fatalf("seen bottle %s returned again", b.ID)
		}
		got[b.ID] = struct{}{}
	}
	if len(got) != n {
		t.Fatalf("coverage %d of %d bottles", len(got), n)
	}
}

func TestSweepRejectsBadQuery(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 2)
	defer rack.Close()
	if _, err := rack.Sweep(context.Background(), SweepQuery{}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty query = %v, want ErrBadQuery", err)
	}
	bad := core.ResidueSet{Prime: 9, Bits: []uint64{1}}
	if _, err := rack.Sweep(context.Background(), SweepQuery{Residues: []core.ResidueSet{bad}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("invalid residue set = %v, want ErrBadQuery", err)
	}
	good := []core.ResidueSet{core.NewResidueSet(11, []uint32{1})}
	if _, err := rack.Sweep(context.Background(), SweepQuery{Residues: good, Seen: make([]string, maxSeenIDs)}); err != nil {
		t.Fatalf("%d seen IDs = %v, want accepted", maxSeenIDs, err)
	}
	if _, err := rack.Sweep(context.Background(), SweepQuery{Residues: good, Seen: make([]string, maxSeenIDs+1)}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("%d seen IDs = %v, want ErrBadQuery", maxSeenIDs+1, err)
	}
}

func TestReplyValidation(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 2)
	defer rack.Close()
	rng := rand.New(rand.NewSource(5))
	raw, pkg := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	if err := rack.Reply(context.Background(), pkg.ID, []byte("junk")); err == nil {
		t.Fatal("garbage reply must be rejected")
	}
	mismatched := &core.Reply{RequestID: "someone-else", From: "b", SentAt: clock.Now()}
	if err := rack.Reply(context.Background(), pkg.ID, mismatched.Marshal()); err == nil {
		t.Fatal("reply with mismatched request id must be rejected")
	}
	orphan := &core.Reply{RequestID: "ghost", From: "b", SentAt: clock.Now()}
	if err := rack.Reply(context.Background(), "ghost", orphan.Marshal()); !errors.Is(err, ErrUnknownBottle) {
		t.Fatalf("reply to unknown bottle = %v, want ErrUnknownBottle", err)
	}
}

func TestReplyQueueBound(t *testing.T) {
	clock := newTestClock()
	rack := New(Config{Shards: 1, ReapInterval: -1, Now: clock.Now, MaxRepliesPerBottle: 2})
	defer rack.Close()
	rng := rand.New(rand.NewSource(6))
	raw, pkg := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r := &core.Reply{RequestID: pkg.ID, From: fmt.Sprintf("p%d", i), SentAt: clock.Now()}
		if err := rack.Reply(context.Background(), pkg.ID, r.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	raws, err := rack.Fetch(context.Background(), pkg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 2 {
		t.Fatalf("queue bound: fetched %d, want 2", len(raws))
	}
	if st := statsOf(rack); st.Totals.RepliesDropped != 3 {
		t.Fatalf("RepliesDropped = %d, want 3", st.Totals.RepliesDropped)
	}
}

// TestSweepDeduplicatesQueryPrimes guards against the scan-amplification
// hole: repeating a prime in the query must not rescan its group or return
// duplicate bottles.
func TestSweepDeduplicatesQueryPrimes(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 2)
	defer rack.Close()
	rng := rand.New(rand.NewSource(11))
	raw, pkg := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	matcher, err := core.NewMatcher(attr.NewProfile(interests("x")...), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs := matcher.ResidueSet(pkg.Prime)
	res, err := rack.Sweep(context.Background(), SweepQuery{Residues: []core.ResidueSet{rs, rs, rs}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bottles) != 1 || res.Scanned != 1 {
		t.Fatalf("duplicated-prime sweep: %d bottles, %d scanned; want 1/1", len(res.Bottles), res.Scanned)
	}
}

// TestCloseDuringSweeps closes the rack while sweeps are in flight; under
// -race this guards the shutdown path against the send-on-closed-jobs panic.
func TestCloseDuringSweeps(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		clock := newTestClock()
		rack := New(Config{Shards: 8, ReapInterval: -1, Now: clock.Now})
		rng := rand.New(rand.NewSource(int64(trial)))
		raw, pkg := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
		if _, err := rack.Submit(context.Background(), raw); err != nil {
			t.Fatal(err)
		}
		matcher, err := core.NewMatcher(attr.NewProfile(interests("x")...), core.MatcherConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rs := []core.ResidueSet{matcher.ResidueSet(pkg.Prime)}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs}); errors.Is(err, ErrRackClosed) {
						return
					}
				}
			}()
		}
		rack.Close()
		wg.Wait()
	}
}

func TestClosedRack(t *testing.T) {
	rack := New(Config{Shards: 2, ReapInterval: -1})
	rack.Close()
	rack.Close() // idempotent
	if _, err := rack.Submit(context.Background(), nil); !errors.Is(err, ErrRackClosed) {
		t.Fatalf("Submit after Close = %v", err)
	}
	if _, err := rack.Sweep(context.Background(), SweepQuery{}); !errors.Is(err, ErrRackClosed) {
		t.Fatalf("Sweep after Close = %v", err)
	}
	if err := rack.Reply(context.Background(), "x", nil); !errors.Is(err, ErrRackClosed) {
		t.Fatalf("Reply after Close = %v", err)
	}
	if _, err := rack.Fetch(context.Background(), "x"); !errors.Is(err, ErrRackClosed) {
		t.Fatalf("Fetch after Close = %v", err)
	}
}

// TestRackConcurrent hammers every operation from many goroutines; its value
// is under -race, where any unsynchronized shard access trips the detector.
func TestRackConcurrent(t *testing.T) {
	clock := newTestClock()
	rack := New(Config{Shards: 8, ReapInterval: time.Millisecond, Now: clock.Now})
	defer rack.Close()

	matcher, err := core.NewMatcher(attr.NewProfile(interests("x", "y", "z")...), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs := []core.ResidueSet{matcher.ResidueSet(core.DefaultPrime)}

	const (
		submitters = 4
		sweepers   = 3
		perWorker  = 50
	)
	ids := make(chan string, submitters*perWorker)
	var producers, wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				raw, pkg := buildRawPackage(t, rng, clock, fmt.Sprintf("o%d", w),
					interests("x"), interests("y", "z", fmt.Sprintf("w%d-%d", w, i)), 1)
				if _, err := rack.Submit(context.Background(), raw); err != nil {
					t.Error(err)
					return
				}
				ids <- pkg.ID
			}
		}(w)
	}
	for w := 0; w < sweepers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs, Limit: 16}); err != nil {
					t.Error(err)
					return
				}
				statsOf(rack)
				if i%10 == 0 {
					clock.Advance(time.Second)
					rack.Reap()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // replier/fetcher
		defer wg.Done()
		n := 0
		for id := range ids {
			r := &core.Reply{RequestID: id, From: "rep", SentAt: clock.Now(), Acks: [][]byte{{1}}}
			// The bottle may have expired under the advancing clock; both
			// outcomes are fine, the point is exercising the paths.
			if err := rack.Reply(context.Background(), id, r.Marshal()); err == nil {
				if _, err := rack.Fetch(context.Background(), id); err != nil && !errors.Is(err, ErrUnknownBottle) {
					t.Error(err)
				}
			}
			if n++; n%7 == 0 {
				rack.Remove(context.Background(), id) //nolint:errcheck // closed-rack race is part of the churn
			}
		}
	}()
	// Close ids once every submitter has finished so the replier terminates.
	producers.Wait()
	close(ids)
	wg.Wait()
}

// statsOf snapshots a rack's counters, panicking on the impossible in-process
// error — test call sites keep their one-liner chaining.
func statsOf(r *Rack) Stats {
	st, err := r.Stats(context.Background())
	if err != nil {
		panic(err)
	}
	return st
}
