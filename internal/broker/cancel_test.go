package broker

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// TestRackHonorsCanceledContext proves every Backend method returns the
// context's error instead of touching the rack once the context has ended,
// and that a batch canceled partway marks unapplied items with the error.
func TestRackHonorsCanceledContext(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 4)
	defer rack.Close()
	rng := rand.New(rand.NewSource(61))
	raw, _ := buildRawPackage(t, rng, clock, "alice", interests("chess"), nil, 0)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw2, _ := buildRawPackage(t, rng, clock, "bob", interests("go"), nil, 0)
	if _, err := rack.Submit(ctx, raw2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v", err)
	}
	if _, err := rack.Sweep(ctx, SweepQuery{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep = %v", err)
	}
	if err := rack.Reply(ctx, "x", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reply = %v", err)
	}
	if _, err := rack.Fetch(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fetch = %v", err)
	}
	if _, err := rack.Remove(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Remove = %v", err)
	}
	if _, err := rack.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stats = %v", err)
	}
	if _, err := rack.SubmitBatch(ctx, [][]byte{raw}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitBatch = %v", err)
	}
	if _, err := rack.ReplyBatch(ctx, []ReplyPost{{RequestID: "x"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplyBatch = %v", err)
	}
	if _, err := rack.FetchBatch(ctx, []string{"x"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FetchBatch = %v", err)
	}

	// Nothing above touched the rack: exactly one bottle remains.
	st, err := rack.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Held != 1 || st.Totals.Submitted != 1 {
		t.Fatalf("canceled calls mutated the rack: %+v", st.Totals)
	}
}
