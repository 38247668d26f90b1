package broker

import (
	"context"
	"errors"
	"math/rand"
	"sealedbottle/internal/attr"
	"strings"
	"testing"

	"sealedbottle/internal/core"
)

func TestValidateTag(t *testing.T) {
	for _, ok := range []string{"", "r1", "rack-7.us_east", strings.Repeat("a", MaxTagLen)} {
		if err := ValidateTag(ok); err != nil {
			t.Errorf("ValidateTag(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"r@1", "a b", "r/1", strings.Repeat("a", MaxTagLen+1), "r\x00"} {
		if err := ValidateTag(bad); err == nil {
			t.Errorf("ValidateTag(%q) accepted an invalid tag", bad)
		}
	}
	if _, err := Open(Config{RackTag: "no/good", ReapInterval: -1}); err == nil {
		t.Fatal("Open accepted an invalid rack tag")
	}
}

func TestSplitTaggedID(t *testing.T) {
	if tag, rest := SplitTaggedID("r1@abcd"); tag != "r1" || rest != "abcd" {
		t.Fatalf("SplitTaggedID = %q, %q", tag, rest)
	}
	if tag, rest := SplitTaggedID("abcd"); tag != "" || rest != "abcd" {
		t.Fatalf("SplitTaggedID untagged = %q, %q", tag, rest)
	}
	if got := UntagID("r1@abcd"); got != "abcd" {
		t.Fatalf("UntagID = %q", got)
	}
	if got := TagID("", "abcd"); got != "abcd" {
		t.Fatalf("TagID with empty tag = %q", got)
	}
}

// TestRackTagLifecycle proves a tagged rack hands out tagged IDs everywhere
// (Submit, SubmitBatch, Sweep) and accepts both tagged and untagged IDs on
// every inbound path (Reply, Fetch, Remove, Seen lists) — the contract a
// cluster router and tag-oblivious single-rack clients both rely on.
func TestRackTagLifecycle(t *testing.T) {
	clock := newTestClock()
	rack := New(Config{Shards: 2, ReapInterval: -1, Now: clock.Now, RackTag: "r1"})
	defer rack.Close()
	rng := rand.New(rand.NewSource(9))

	rawA, pkgA := buildRawPackage(t, rng, clock, "a", interests("x"), nil, 0)
	id, err := rack.Submit(context.Background(), rawA)
	if err != nil {
		t.Fatal(err)
	}
	if id != "r1@"+pkgA.ID {
		t.Fatalf("Submit returned %q, want r1@%s", id, pkgA.ID)
	}

	rawB, pkgB := buildRawPackage(t, rng, clock, "b", interests("x"), nil, 0)
	results, err := rack.SubmitBatch(context.Background(), [][]byte{rawB})
	if err != nil || results[0].Err != nil {
		t.Fatalf("SubmitBatch = %+v, %v", results, err)
	}
	if results[0].ID != "r1@"+pkgB.ID {
		t.Fatalf("SubmitBatch returned %q, want r1@%s", results[0].ID, pkgB.ID)
	}

	matcher, err := core.NewMatcher(attr.NewProfile(interests("x")...), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs := []core.ResidueSet{matcher.ResidueSet(core.DefaultPrime)}
	swept, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs})
	if err != nil || len(swept.Bottles) != 2 {
		t.Fatalf("Sweep = %d bottles, %v", len(swept.Bottles), err)
	}
	for _, b := range swept.Bottles {
		if tag, _ := SplitTaggedID(b.ID); tag != "r1" {
			t.Fatalf("swept bottle ID %q not tagged", b.ID)
		}
	}

	// Tagged seen IDs are untagged server-side.
	seen := []string{swept.Bottles[0].ID, swept.Bottles[1].ID}
	rest, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs, Seen: seen})
	if err != nil || len(rest.Bottles) != 0 {
		t.Fatalf("seen-filtered sweep = %d bottles, %v", len(rest.Bottles), err)
	}

	// Replies work addressed by tagged and untagged IDs alike; the reply
	// payload itself always carries the untagged in-package ID.
	mkReply := func(id string) []byte {
		return (&core.Reply{RequestID: id, From: "bob", SentAt: clock.Now(), Acks: [][]byte{{7}}}).Marshal()
	}
	if err := rack.Reply(context.Background(), "r1@"+pkgA.ID, mkReply(pkgA.ID)); err != nil {
		t.Fatalf("tagged Reply: %v", err)
	}
	if err := rack.Reply(context.Background(), pkgA.ID, mkReply(pkgA.ID)); err != nil {
		t.Fatalf("untagged Reply: %v", err)
	}
	errs, err := rack.ReplyBatch(context.Background(), []ReplyPost{{RequestID: "r1@" + pkgB.ID, Raw: mkReply(pkgB.ID)}})
	if err != nil || errs[0] != nil {
		t.Fatalf("tagged ReplyBatch = %v, %v", errs, err)
	}

	if raws, err := rack.Fetch(context.Background(), "r1@"+pkgA.ID); err != nil || len(raws) != 2 {
		t.Fatalf("tagged Fetch = %d replies, %v", len(raws), err)
	}
	fetches, err := rack.FetchBatch(context.Background(), []string{"r1@" + pkgB.ID, pkgB.ID})
	if err != nil || fetches[0].Err != nil || len(fetches[0].Replies) != 1 {
		t.Fatalf("tagged FetchBatch = %+v, %v", fetches, err)
	}

	// A foreign tag misses: that bottle lives on another rack.
	if _, err := rack.Fetch(context.Background(), "r2@"+pkgA.ID); !errors.Is(err, ErrUnknownBottle) {
		t.Fatalf("foreign-tagged Fetch = %v, want ErrUnknownBottle", err)
	}

	if held, err := rack.Remove(context.Background(), "r1@"+pkgA.ID); err != nil || !held {
		t.Fatalf("tagged Remove = %v, %v", held, err)
	}
	if held, err := rack.Remove(context.Background(), pkgB.ID); err != nil || !held {
		t.Fatalf("untagged Remove = %v, %v", held, err)
	}
}

// TestSweepCollectionBounded proves the truncated merge: however many each
// shard collected, a truncated sweep returns (and counts as Returned)
// exactly Limit bottles across the whole rack.
func TestSweepCollectionBounded(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 8)
	defer rack.Close()
	rng := rand.New(rand.NewSource(11))

	const n = 200
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

	res, err := rack.Sweep(context.Background(), SweepQuery{Residues: rs, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bottles) != 10 || !res.Truncated {
		t.Fatalf("sweep = %d bottles truncated=%v, want 10/true", len(res.Bottles), res.Truncated)
	}
	if got := statsOf(rack).Totals.Returned; got != 10 {
		t.Fatalf("shards collected %d bottles for a Limit=10 sweep, want exactly 10", got)
	}
}
