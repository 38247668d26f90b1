package broker

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
)

// TestSubmitBatchOutcomes proves per-item validation and shard-grouped
// insertion: good packages rack, garbage/duplicate/expired ones fail
// individually without failing the batch.
func TestSubmitBatchOutcomes(t *testing.T) {
	clock := newTestClock()
	rng := rand.New(rand.NewSource(1))
	rack := newTestRack(clock, 8)
	defer rack.Close()

	rawA, pkgA := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	rawB, pkgB := buildRawPackage(t, rng, clock, "b", interests("y"), nil, 0)
	results, err := rack.SubmitBatch(context.Background(), [][]byte{rawA, rawB, rawA, []byte("garbage")})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].ID != pkgA.ID {
		t.Fatalf("item 0 = %+v", results[0])
	}
	if results[1].Err != nil || results[1].ID != pkgB.ID {
		t.Fatalf("item 1 = %+v", results[1])
	}
	if !errors.Is(results[2].Err, ErrDuplicateBottle) {
		t.Fatalf("duplicate item err = %v", results[2].Err)
	}
	if results[3].Err == nil {
		t.Fatal("garbage item racked")
	}
	st := statsOf(rack)
	if st.Held != 2 || st.Totals.Submitted != 2 || st.Totals.Duplicates != 1 {
		t.Fatalf("stats after batch = %+v", st.Totals)
	}

	// A batch repeating a fresh ID twice must rack exactly one copy, whichever
	// shard both copies hash to.
	rawC, _ := buildRawPackage(t, rng, clock, "c", interests("z"), nil, 0)
	results, err = rack.SubmitBatch(context.Background(), [][]byte{rawC, rawC})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !errors.Is(results[1].Err, ErrDuplicateBottle) {
		t.Fatalf("intra-batch duplicate outcomes = %v / %v", results[0].Err, results[1].Err)
	}
}

// TestReplyBatchAndFetchBatch proves shard-grouped reply queueing and
// draining with per-item errors.
func TestReplyBatchAndFetchBatch(t *testing.T) {
	clock := newTestClock()
	rng := rand.New(rand.NewSource(2))
	rack := newTestRack(clock, 4)
	defer rack.Close()

	rawA, pkgA := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	rawB, pkgB := buildRawPackage(t, rng, clock, "b", interests("y"), nil, 0)
	if _, err := rack.SubmitBatch(context.Background(), [][]byte{rawA, rawB}); err != nil {
		t.Fatal(err)
	}

	mkReply := func(id, from string) []byte {
		return (&core.Reply{RequestID: id, From: from, SentAt: clock.Now(), Acks: [][]byte{{1}}}).Marshal()
	}
	errs, err := rack.ReplyBatch(context.Background(), []ReplyPost{
		{RequestID: pkgA.ID, Raw: mkReply(pkgA.ID, "bob")},
		{RequestID: pkgB.ID, Raw: mkReply(pkgB.ID, "bob")},
		{RequestID: pkgB.ID, Raw: mkReply(pkgA.ID, "mallory")}, // echoes wrong ID
		{RequestID: "ghost", Raw: mkReply("ghost", "carol")},   // unknown bottle
		{RequestID: pkgA.ID, Raw: []byte("garbage")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("valid replies rejected: %v %v", errs[0], errs[1])
	}
	if errs[2] == nil || errs[4] == nil {
		t.Fatalf("invalid replies accepted: %v %v", errs[2], errs[4])
	}
	if !errors.Is(errs[3], ErrUnknownBottle) {
		t.Fatalf("unknown bottle err = %v", errs[3])
	}

	results, err := rack.FetchBatch(context.Background(), []string{pkgA.ID, pkgB.ID, "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || len(results[0].Replies) != 1 {
		t.Fatalf("fetch A = %+v", results[0])
	}
	if results[1].Err != nil || len(results[1].Replies) != 1 {
		t.Fatalf("fetch B = %+v", results[1])
	}
	if !errors.Is(results[2].Err, ErrUnknownBottle) {
		t.Fatalf("fetch ghost err = %v", results[2].Err)
	}
	// Draining is destructive, exactly like Fetch.
	results, err = rack.FetchBatch(context.Background(), []string{pkgA.ID})
	if err != nil || results[0].Err != nil || len(results[0].Replies) != 0 {
		t.Fatalf("second drain = %+v, %v", results[0], err)
	}
}

// TestDrainBatchBudget proves the byte budget refuses (without draining)
// queues that would overflow it, so their replies survive for a retry.
func TestDrainBatchBudget(t *testing.T) {
	clock := newTestClock()
	rng := rand.New(rand.NewSource(9))
	rack := newTestRack(clock, 1)
	defer rack.Close()

	rawA, pkgA := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	rawB, pkgB := buildRawPackage(t, rng, clock, "b", interests("y"), nil, 0)
	if _, err := rack.SubmitBatch(context.Background(), [][]byte{rawA, rawB}); err != nil {
		t.Fatal(err)
	}
	mkReply := func(id string, size int) []byte {
		return (&core.Reply{RequestID: id, From: "bob", SentAt: clock.Now(), Acks: [][]byte{make([]byte, size)}}).Marshal()
	}
	if err := rack.Reply(context.Background(), pkgA.ID, mkReply(pkgA.ID, 64)); err != nil {
		t.Fatal(err)
	}
	if err := rack.Reply(context.Background(), pkgB.ID, mkReply(pkgB.ID, 64)); err != nil {
		t.Fatal(err)
	}

	// One shard, budget sized for exactly one queue: the first id drains, the
	// second is refused.
	budget := len(mkReply(pkgA.ID, 64)) + 10
	sh := rack.shards[0]
	results := make([]FetchResult, 2)
	ids := []string{pkgA.ID, pkgB.ID}
	left := sh.drainBatch(ids, []int{0, 1}, results, budget, "")
	if results[0].Err != nil || len(results[0].Replies) != 1 {
		t.Fatalf("first item = %+v, want drained", results[0])
	}
	if !errors.Is(results[1].Err, ErrFetchBudget) {
		t.Fatalf("second item err = %v, want ErrFetchBudget", results[1].Err)
	}
	if left >= budget {
		t.Fatalf("budget not spent: %d", left)
	}
	// The refused queue survives and is fetchable afterwards.
	raws, err := rack.Fetch(context.Background(), pkgB.ID)
	if err != nil || len(raws) != 1 {
		t.Fatalf("refetch of refused id = %d replies, %v", len(raws), err)
	}
}

// TestBatchOpsOnClosedRack proves the batch entry points respect Close.
func TestBatchOpsOnClosedRack(t *testing.T) {
	rack := New(Config{Shards: 2, ReapInterval: -1})
	rack.Close()
	if _, err := rack.SubmitBatch(context.Background(), [][]byte{{1}}); !errors.Is(err, ErrRackClosed) {
		t.Fatalf("SubmitBatch on closed rack = %v", err)
	}
	if _, err := rack.ReplyBatch(context.Background(), []ReplyPost{{RequestID: "x"}}); !errors.Is(err, ErrRackClosed) {
		t.Fatalf("ReplyBatch on closed rack = %v", err)
	}
	if _, err := rack.FetchBatch(context.Background(), []string{"x"}); !errors.Is(err, ErrRackClosed) {
		t.Fatalf("FetchBatch on closed rack = %v", err)
	}
}

// TestBatchEquivalence proves a batch submit leaves the rack in the same
// state as the equivalent singles: same held set, same sweep results.
func TestBatchEquivalence(t *testing.T) {
	clock := newTestClock()
	rng := rand.New(rand.NewSource(3))
	var raws [][]byte
	for i := 0; i < 20; i++ {
		raw, _ := buildRawPackage(t, rng, clock, "o", interests("x"), nil, 0)
		raws = append(raws, raw)
	}

	single := newTestRack(clock, 4)
	defer single.Close()
	for _, raw := range raws {
		if _, err := single.Submit(context.Background(), raw); err != nil {
			t.Fatal(err)
		}
	}
	batched := newTestRack(clock, 4)
	defer batched.Close()
	results, err := batched.SubmitBatch(context.Background(), raws)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch item %d: %v", i, res.Err)
		}
	}

	q := func(r *Rack) SweepResult {
		matcher := testMatcher(t, "x")
		res, err := r.Sweep(context.Background(), SweepQuery{Residues: []core.ResidueSet{matcher.ResidueSet(core.DefaultPrime)}, Limit: 100})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := q(single), q(batched)
	if len(a.Bottles) != len(b.Bottles) || a.Scanned != b.Scanned {
		t.Fatalf("single vs batched sweep: %d/%d bottles, %d/%d scanned",
			len(a.Bottles), len(b.Bottles), a.Scanned, b.Scanned)
	}
	for i := range a.Bottles {
		if a.Bottles[i].ID != b.Bottles[i].ID {
			t.Fatalf("bottle order diverges at %d: %s vs %s", i, a.Bottles[i].ID, b.Bottles[i].ID)
		}
	}
}

// TestCodecBatchRoundTrips round-trips the batch encodings, including error
// payloads, and sweeps truncations of each.
func TestCodecBatchRoundTrips(t *testing.T) {
	subs := []SubmitResult{
		{ID: "req-1"},
		{Err: errors.New("boom")},
		{ID: ""},
	}
	data := MarshalSubmitResults(subs)
	got, err := UnmarshalSubmitResults(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range subs {
		if (subs[i].Err == nil) != (got[i].Err == nil) || got[i].ID != subs[i].ID {
			t.Fatalf("submit result %d = %+v, want %+v", i, got[i], subs[i])
		}
	}
	if got[1].Err.Error() != "boom" {
		t.Fatalf("error text = %q", got[1].Err)
	}

	posts := []ReplyPost{
		{RequestID: "req-1", Raw: []byte("alpha")},
		{RequestID: "", Raw: nil},
	}
	gotPosts, err := UnmarshalReplyBatch(MarshalReplyBatch(posts))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPosts) != 2 || gotPosts[0].RequestID != "req-1" || string(gotPosts[0].Raw) != "alpha" {
		t.Fatalf("reply batch round trip = %+v", gotPosts)
	}

	errsIn := []error{nil, errors.New("nope"), nil}
	errsOut, err := UnmarshalErrorList(MarshalErrorList(errsIn))
	if err != nil {
		t.Fatal(err)
	}
	if errsOut[0] != nil || errsOut[1] == nil || errsOut[2] != nil {
		t.Fatalf("error list round trip = %v", errsOut)
	}

	ids := []string{"a", "", "c"}
	gotIDs, err := UnmarshalIDList(MarshalIDList(ids))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if gotIDs[i] != ids[i] {
			t.Fatalf("id list round trip = %v", gotIDs)
		}
	}

	fetches := []FetchResult{
		{Replies: [][]byte{[]byte("one"), []byte("two")}},
		{Err: errors.New("gone")},
		{Replies: nil},
	}
	gotFetches, err := UnmarshalFetchResults(MarshalFetchResults(fetches))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFetches[0].Replies) != 2 || string(gotFetches[0].Replies[1]) != "two" {
		t.Fatalf("fetch results round trip = %+v", gotFetches[0])
	}
	if gotFetches[1].Err == nil || gotFetches[2].Err != nil || len(gotFetches[2].Replies) != 0 {
		t.Fatalf("fetch results round trip = %+v", gotFetches)
	}

	// Truncation sweeps: every prefix must error, never panic or accept.
	for name, data := range map[string][]byte{
		"submit": MarshalSubmitResults(subs),
		"reply":  MarshalReplyBatch(posts),
		"errs":   MarshalErrorList(errsIn),
		"ids":    MarshalIDList(ids),
		"fetch":  MarshalFetchResults(fetches),
	} {
		for cut := 0; cut < len(data); cut++ {
			var err error
			switch name {
			case "submit":
				_, err = UnmarshalSubmitResults(data[:cut])
			case "reply":
				_, err = UnmarshalReplyBatch(data[:cut])
			case "errs":
				_, err = UnmarshalErrorList(data[:cut])
			case "ids":
				_, err = UnmarshalIDList(data[:cut])
			case "fetch":
				_, err = UnmarshalFetchResults(data[:cut])
			}
			if err == nil {
				t.Fatalf("%s: truncation at %d accepted", name, cut)
			}
		}
	}
}

// testMatcher builds a matcher over one interest attribute.
func testMatcher(t *testing.T, name string) *core.Matcher {
	t.Helper()
	m, err := core.NewMatcher(attr.NewProfile(interests(name)...), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
