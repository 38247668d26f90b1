package client

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/core"
	"sealedbottle/internal/obs"
)

// newParticipant builds a participant whose profile satisfies buildRaw's
// search (chess + go).
func newParticipant(t *testing.T, id string, interestNames ...string) *core.Participant {
	t.Helper()
	attrs := make([]attr.Attribute, len(interestNames))
	for i, n := range interestNames {
		attrs[i] = attr.MustNew("interest", n)
	}
	part, err := core.NewParticipant(attr.NewProfile(attrs...), core.ParticipantConfig{
		ID:               id,
		Matcher:          core.MatcherConfig{AllowCollisionSkip: true},
		MinReplyInterval: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// TestSweeperTick proves the full sweep→unseal→reply loop: a matching
// participant evaluates the racked bottle, reports the match through
// OnResult, and its reply lands in the initiator's fetch queue.
func TestSweeperTick(t *testing.T) {
	cfg, rack, cleanup := testServer(t)
	defer cleanup()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	raw, pkg := buildRaw(t, 1)
	if _, err := c.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}

	var observed []string
	sweeper, err := NewSweeper(c, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go", "tennis"),
		OnResult: func(p *core.RequestPackage, res *core.HandleResult) {
			observed = append(observed, p.ID)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Swept != 1 || st.Evaluated != 1 || st.Replies != 1 {
		t.Fatalf("tick stats = %+v, want 1 swept/evaluated/replied", st)
	}
	if len(observed) != 1 || observed[0] != pkg.ID {
		t.Fatalf("OnResult saw %v, want [%s]", observed, pkg.ID)
	}

	raws, err := c.Fetch(context.Background(), pkg.ID)
	if err != nil || len(raws) != 1 {
		t.Fatalf("Fetch after sweep = %d replies, %v", len(raws), err)
	}
	if reply, err := core.UnmarshalReply(raws[0]); err != nil || reply.From != "bob" {
		t.Fatalf("fetched reply = %+v, %v", reply, err)
	}

	// The seen window keeps the second tick from re-evaluating the bottle.
	st, err = sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Swept != 0 || st.Evaluated != 0 {
		t.Fatalf("second tick stats = %+v, want nothing fresh", st)
	}
	_ = rack
}

// TestSweeperNonMatching proves a non-matching profile is screened out by
// the broker-side prefilter and posts nothing.
func TestSweeperNonMatching(t *testing.T) {
	cfg, _, cleanup := testServer(t)
	defer cleanup()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	raw, _ := buildRaw(t, 2)
	if _, err := c.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	sweeper, err := NewSweeper(c, SweeperConfig{
		Participant: newParticipant(t, "carol", "opera", "sailing"),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Replies != 0 || st.Matches != 0 {
		t.Fatalf("non-matching sweeper produced %+v", st)
	}
}

// TestSweeperSeenWindowBound proves the seen window stays bounded.
func TestSweeperSeenWindowBound(t *testing.T) {
	cfg, rack, cleanup := testServer(t)
	defer cleanup()
	_ = cfg
	for i := 0; i < 12; i++ {
		raw, _ := buildRaw(t, 100+int64(i))
		if _, err := rack.Submit(context.Background(), raw); err != nil {
			t.Fatal(err)
		}
	}
	sweeper, err := NewSweeper(rack, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go"),
		Limit:       4,
		SeenCap:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sweeper.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
		if sweeper.seen.Len() > 8 {
			t.Fatalf("seen window grew to %d (> cap 8) on tick %d", sweeper.seen.Len(), i)
		}
	}
}

// flakyRV is a scripted Backend whose reply posts fail a configured number
// of times at the transport level before succeeding, in either form, and
// whose ReplyBatch can fail whole; Sweep honours the query's cursor like the
// real broker (a bottle's sequence is its index plus one).
type flakyRV struct {
	bottles     []broker.SweptBottle
	failReplies int
	replyErr    error
	// failBatches is how many ReplyBatch calls fail whole with batchErr.
	failBatches int
	batchErr    error
	posted      map[string][][]byte
	// replyCalls counts the posts tried, in either form; singleReplies the
	// Reply calls.
	replyCalls    int
	singleReplies int
}

func (f *flakyRV) Submit(ctx context.Context, raw []byte) (string, error) {
	return "", errors.New("unused")
}

func (f *flakyRV) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	after := 0
	if len(q.Cursors) > 0 {
		after = int(q.Cursors[0].After)
	}
	return broker.SweepResult{
		Bottles: f.bottles[after:],
		Cursors: []broker.SweepCursor{{Epoch: 1, After: uint64(len(f.bottles))}},
	}, nil
}

func (f *flakyRV) Reply(ctx context.Context, id string, raw []byte) error {
	f.singleReplies++
	return f.post(id, raw)
}

func (f *flakyRV) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	if f.failBatches > 0 {
		f.failBatches--
		return nil, f.batchErr
	}
	errs := make([]error, len(posts))
	for i, p := range posts {
		errs[i] = f.post(p.RequestID, p.Raw)
	}
	return errs, nil
}

func (f *flakyRV) post(id string, raw []byte) error {
	f.replyCalls++
	if f.failReplies > 0 {
		f.failReplies--
		if f.replyErr != nil {
			return f.replyErr
		}
		return errors.New("write tcp: broken pipe (scripted)")
	}
	if f.posted == nil {
		f.posted = make(map[string][][]byte)
	}
	f.posted[id] = append(f.posted[id], raw)
	return nil
}

func (f *flakyRV) Fetch(ctx context.Context, id string) ([][]byte, error) { return f.posted[id], nil }

func (f *flakyRV) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	out := make([]broker.FetchResult, len(ids))
	for i, id := range ids {
		out[i].Replies, out[i].Err = f.Fetch(ctx, id)
	}
	return out, nil
}

func (f *flakyRV) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	return nil, errors.New("unused")
}

func (f *flakyRV) Remove(ctx context.Context, id string) (bool, error) {
	return false, errors.New("unused")
}

func (f *flakyRV) Stats(ctx context.Context) (broker.Stats, error) {
	return broker.Stats{}, errors.New("unused")
}

func (f *flakyRV) Close() error { return nil }

// TestSweeperRetriesFailedReplyPosts is the reply-loss regression test: a
// transport failure while posting a reply must not lose it. The old sweeper
// marked the bottle seen before posting, so the failed reply's bottle was
// excluded from every later sweep and the initiator waited forever; the
// participant's duplicate suppression means re-sweeping cannot regenerate
// the reply either — it must be queued and retried.
func TestSweeperRetriesFailedReplyPosts(t *testing.T) {
	raw, pkg := buildRaw(t, 21)
	rv := &flakyRV{
		bottles:     []broker.SweptBottle{{ID: pkg.ID, Raw: raw}},
		failReplies: 1,
	}
	sweeper, err := NewSweeper(rv, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go"),
	})
	if err != nil {
		t.Fatal(err)
	}

	st, err := sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Swept != 1 || st.Evaluated != 1 || st.Replies != 0 || st.ReplyErrors != 1 {
		t.Fatalf("tick 1 = %+v, want the reply post to fail", st)
	}
	if len(rv.posted[pkg.ID]) != 0 {
		t.Fatal("reply delivered despite scripted failure")
	}

	st, err = sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Swept != 0 {
		t.Fatalf("tick 2 re-swept %d bottles; the cursor should stand past the bottle", st.Swept)
	}
	if st.Replies != 1 || st.ReplyErrors != 0 {
		t.Fatalf("tick 2 = %+v, want the queued reply delivered", st)
	}
	if got := len(rv.posted[pkg.ID]); got != 1 {
		t.Fatalf("initiator sees %d replies, want 1 — the reply was lost", got)
	}
}

// TestSweeperQueuesFailedReplyBatch proves a ReplyBatch that fails whole is
// not posted again one reply at a time over the same backend: every post
// carries the call's error, the tick queues them all — a transport fault
// and a quota shed are both retriable — and the next tick delivers them.
func TestSweeperQueuesFailedReplyBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"transport fault", errors.New("write tcp: broken pipe (scripted)")},
		{"overload", fmt.Errorf("transport: identity %q over admission quota: %w", "bob", broker.ErrOverload)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bottles []broker.SweptBottle
			for i := range 3 {
				raw, pkg := buildRaw(t, int64(23+i))
				bottles = append(bottles, broker.SweptBottle{ID: pkg.ID, Raw: raw})
			}
			rv := &flakyRV{bottles: bottles, failBatches: 1, batchErr: tc.err}
			sweeper, err := NewSweeper(rv, SweeperConfig{
				Participant: newParticipant(t, "bob", "chess", "go"),
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := sweeper.Tick(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Evaluated != 3 || st.Replies != 0 || st.ReplyErrors != 3 || len(sweeper.pending) != 3 {
				t.Fatalf("tick 1 = %+v with %d queued; want every post failed and queued", st, len(sweeper.pending))
			}
			if rv.singleReplies != 0 {
				t.Fatalf("tick 1 made %d single Reply calls after the batch failed, want 0", rv.singleReplies)
			}
			st, err = sweeper.Tick(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Replies != 3 || st.ReplyErrors != 0 || len(sweeper.pending) != 0 {
				t.Fatalf("tick 2 = %+v; want the queued replies delivered", st)
			}
			for _, b := range bottles {
				if got := len(rv.posted[b.ID]); got != 1 {
					t.Fatalf("bottle %s got %d replies, want 1", b.ID, got)
				}
			}
			if rv.singleReplies != 0 {
				t.Fatalf("%d single Reply calls, want 0", rv.singleReplies)
			}
		})
	}
}

// TestSweeperDropsDefinitivelyFailedReplies proves a broker-decided failure
// (bottle expired off the rack) is not retried forever.
func TestSweeperDropsDefinitivelyFailedReplies(t *testing.T) {
	raw, pkg := buildRaw(t, 22)
	rv := &flakyRV{
		bottles:     []broker.SweptBottle{{ID: pkg.ID, Raw: raw}},
		failReplies: 100,
		replyErr:    broker.ErrUnknownBottle,
	}
	sweeper, err := NewSweeper(rv, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := sweeper.Tick(context.Background()); err != nil || st.ReplyErrors != 1 {
		t.Fatalf("tick 1 = %+v, %v", st, err)
	}
	calls := rv.replyCalls
	if st, err := sweeper.Tick(context.Background()); err != nil || st.ReplyErrors != 0 || st.Replies != 0 {
		t.Fatalf("tick 2 = %+v, %v; the undeliverable reply must be dropped", st, err)
	}
	if rv.replyCalls != calls {
		t.Fatal("sweeper retried a reply the broker definitively rejected")
	}
}

// TestSweeperShedsQueuedReplies proves the failed-post retry queue stays
// bounded and counts what it drops: the oldest replies go first, and the
// tick's stats and the shared metrics both report how many.
func TestSweeperShedsQueuedReplies(t *testing.T) {
	const extra = 6
	rv := &flakyRV{failReplies: 1 << 30}
	for i := range maxPendingReplies + extra {
		raw, pkg := buildRawFrom(t, 30_000+int64(i), fmt.Sprintf("alice-%d", i))
		rv.bottles = append(rv.bottles, broker.SweptBottle{ID: pkg.ID, Raw: raw})
	}
	m := NewSweeperMetrics(obs.NewRegistry())
	sweeper, err := NewSweeper(rv, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go"),
		Limit:       len(rv.bottles),
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluated != len(rv.bottles) || st.ReplyErrors != len(rv.bottles) || st.RepliesShed != extra {
		t.Fatalf("tick 1 = %+v, want %d failed posts and %d shed", st, len(rv.bottles), extra)
	}
	if len(sweeper.pending) != maxPendingReplies {
		t.Fatalf("queue holds %d replies, want %d", len(sweeper.pending), maxPendingReplies)
	}
	if sweeper.pending[0].RequestID != rv.bottles[extra].ID {
		t.Fatal("the queue did not shed its oldest replies first")
	}
	// The retry fails again: the queue is refilled to the bound, not past
	// it, and nothing more is shed.
	st, err = sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplyErrors != maxPendingReplies || st.RepliesShed != 0 || len(sweeper.pending) != maxPendingReplies {
		t.Fatalf("tick 2 = %+v with %d queued, want %d failed retries and none shed", st, len(sweeper.pending), maxPendingReplies)
	}
	if got := m.repliesShed.Value(); got != extra {
		t.Fatalf("shed counter = %d, want %d", got, extra)
	}
}

// TestSweeperExcludeOriginThroughRing proves ExcludeOrigin holds end to end
// through a ring: the sweeper never evaluates a bottle of its own origin,
// and evaluates every other bottle once, whatever the replication.
func TestSweeperExcludeOriginThroughRing(t *testing.T) {
	forEachR(t, func(t *testing.T, rf int) {
		ring, _, _ := testCluster(t, 3, rf)
		ctx := context.Background()
		others := make(map[string]bool)
		for i := range 8 {
			origin := "alice"
			if i%2 == 0 {
				origin = "bob"
			}
			raw, pkg := buildRawFrom(t, 40_000+int64(i), origin)
			if _, err := ring.Submit(ctx, raw); err != nil {
				t.Fatal(err)
			}
			if origin != "bob" {
				others[pkg.ID] = false
			}
		}
		sweeper, err := NewSweeper(ring, SweeperConfig{
			Participant:   newParticipant(t, "bob", "chess", "go"),
			ExcludeOrigin: "bob",
			OnResult: func(pkg *core.RequestPackage, _ *core.HandleResult) {
				if pkg.Origin == "bob" {
					t.Errorf("evaluated %s, a bottle of the sweeper's own origin", pkg.ID)
				}
				if done, ok := others[pkg.ID]; !ok || done {
					t.Errorf("evaluated %s unexpectedly (known %v, again %v)", pkg.ID, ok, done)
				}
				others[pkg.ID] = true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := sweeper.Tick(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for id, done := range others {
			if !done {
				t.Errorf("bottle %s of another origin was never evaluated", id)
			}
		}
	})
}

// TestSweeperValidation proves constructor preconditions.
func TestSweeperValidation(t *testing.T) {
	cfg, rack, cleanup := testServer(t)
	defer cleanup()
	_ = cfg
	if _, err := NewSweeper(nil, SweeperConfig{Participant: newParticipant(t, "x", "chess")}); err == nil {
		t.Fatal("NewSweeper accepted nil rendezvous")
	}
	if _, err := NewSweeper(rack, SweeperConfig{}); err == nil {
		t.Fatal("NewSweeper accepted nil participant")
	}
}

// duplicatingBackend re-serves every swept bottle under a second fake rack
// tag, simulating an aggregator that fans a sweep over two replicas without
// merging — the worst case the sweeper's own dedup must absorb.
type duplicatingBackend struct {
	*broker.Rack
}

func (d *duplicatingBackend) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	res, err := d.Rack.Sweep(ctx, q)
	if err != nil {
		return res, err
	}
	copies := make([]broker.SweptBottle, 0, 2*len(res.Bottles))
	for _, b := range res.Bottles {
		copies = append(copies,
			broker.SweptBottle{ID: "ra@" + broker.UntagID(b.ID), Raw: b.Raw},
			broker.SweptBottle{ID: "rb@" + broker.UntagID(b.ID), Raw: b.Raw},
		)
	}
	res.Bottles = copies
	return res, nil
}

// TestSweeperReplicaCopiesOneObservation proves the same bottle served by two
// replicas in one sweep is evaluated once, replied to once, and counted as
// one duplicate.
func TestSweeperReplicaCopiesOneObservation(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	raw, pkg := buildRaw(t, 81)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	sweeper, err := NewSweeper(&duplicatingBackend{Rack: rack}, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go"),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Swept != 2 || st.Evaluated != 1 || st.Duplicates != 1 || st.Replies != 1 {
		t.Fatalf("tick stats = %+v, want 2 swept collapsing to 1 evaluation, 1 duplicate, 1 reply", st)
	}
	if got, err := rack.Fetch(context.Background(), pkg.ID); err != nil || len(got) != 1 {
		t.Fatalf("Fetch = %d replies, %v; want exactly one", len(got), err)
	}
}

// TestSweeperSeenWindowSpansReplicas proves the seen window suppresses a
// bottle on *every* replica: each rack strips only its own tag from inbound
// Seen entries, so a window of tagged IDs would let the other replica
// re-serve the bottle on the next tick.
func TestSweeperSeenWindowSpansReplicas(t *testing.T) {
	ring, _, _ := testCluster(t, 2, 2)
	raw, _ := buildRaw(t, 82)
	if _, err := ring.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	sweeper, err := NewSweeper(ring, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go"),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluated != 1 || st.Replies != 1 {
		t.Fatalf("tick 1 stats = %+v, want the bottle evaluated and replied once", st)
	}
	st, err = sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Swept != 0 || st.Evaluated != 0 || st.Duplicates != 0 {
		t.Fatalf("tick 2 stats = %+v, want both replicas suppressed by the seen window", st)
	}
}
