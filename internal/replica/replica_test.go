package replica

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/core"
)

type detReader struct{ rng *rand.Rand }

func (d *detReader) Read(p []byte) (int, error) { return d.rng.Read(p) }

func buildRaw(tb testing.TB, seed int64) ([]byte, *core.RequestPackage) {
	tb.Helper()
	built, err := core.BuildRequest(core.RequestSpec{
		Necessary: []attr.Attribute{attr.MustNew("interest", "chess")},
	}, core.BuildOptions{
		Origin: "alice",
		Rand:   &detReader{rng: rand.New(rand.NewSource(seed))},
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

func newNode(tb testing.TB, self string, cfg Config) *Node {
	tb.Helper()
	cfg.Self = self
	if cfg.StreamInterval == 0 {
		cfg.StreamInterval = -1 // tests drive Flush explicitly
	}
	n := Wrap(broker.New(broker.Config{Shards: 2, ReapInterval: -1}), cfg)
	tb.Cleanup(func() { n.Close() })
	return n
}

func TestHintQueueDedupAndBound(t *testing.T) {
	n := newNode(t, "rack-0", Config{MaxHintsPerDest: 2})
	ctx := context.Background()
	rec1 := broker.HandoffRecord{Type: broker.RecRemove, Payload: []byte("a")}
	rec2 := broker.HandoffRecord{Type: broker.RecRemove, Payload: []byte("b")}
	rec3 := broker.HandoffRecord{Type: broker.RecRemove, Payload: []byte("c")}

	if got, err := n.Hint(ctx, "rack-1", []broker.HandoffRecord{rec1, rec1, rec2}); err != nil || got != 3 {
		t.Fatalf("Hint = %d, %v; want 3 accepted (duplicate covered)", got, err)
	}
	if n.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (duplicate collapsed)", n.Pending())
	}
	// Queue is at its bound: a third distinct record is shed.
	if got, err := n.Hint(ctx, "rack-1", []broker.HandoffRecord{rec3}); err != nil || got != 0 {
		t.Fatalf("Hint past bound = %d, %v; want 0 accepted", got, err)
	}
	st := n.ReplicaStats()
	if st.HintsQueued != 2 || st.HintsDropped != 1 {
		t.Fatalf("stats = %+v, want 2 queued / 1 dropped", st)
	}
}

func TestHintToSelfAppliesLocally(t *testing.T) {
	n := newNode(t, "rack-0", Config{})
	raw, pkg := buildRaw(t, 1)
	got, err := n.Hint(context.Background(), "rack-0", []broker.HandoffRecord{{Type: broker.RecSubmit, Payload: raw}})
	if err != nil || got != 1 {
		t.Fatalf("Hint to self = %d, %v; want 1 applied", got, err)
	}
	if n.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0 (applied, not queued)", n.Pending())
	}
	if _, _, _, ok := n.PeekBottle(pkg.ID); !ok {
		t.Fatal("self-hinted bottle not racked")
	}
}

func TestHandoffIdempotent(t *testing.T) {
	n := newNode(t, "rack-0", Config{})
	ctx := context.Background()
	raw, pkg := buildRaw(t, 2)
	rep := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now()}).Marshal()
	ghostRep := (&core.Reply{RequestID: "ghost", From: "bob", SentAt: time.Now()}).Marshal()
	recs := []broker.HandoffRecord{
		{Type: broker.RecSubmit, Payload: raw},
		{Type: broker.RecReply, Payload: broker.AppendReplyPost(nil, pkg.ID, rep)},
		{Type: broker.RecReply, Payload: broker.AppendReplyPost(nil, "ghost", ghostRep)}, // unknown bottle: moot
		{Type: broker.RecRemove, Payload: []byte("ghost")},                               // absent bottle: moot
		{Type: 99, Payload: []byte("future")},                                            // unknown type: skipped
	}
	applied, err := n.Handoff(ctx, recs)
	if err != nil || applied != 4 {
		t.Fatalf("Handoff = %d, %v; want 4 applied", applied, err)
	}
	// Re-delivery of the same batch converges instead of failing.
	if _, err := n.Handoff(ctx, recs); err != nil {
		t.Fatalf("re-delivered Handoff errored: %v", err)
	}
	if got, err := n.Fetch(ctx, pkg.ID); err != nil || len(got) != 2 {
		t.Fatalf("Fetch = %d replies, %v; want the original and re-delivered reply", len(got), err)
	}
	// A failing rack fails the batch, so the sender keeps its queue.
	n.Close()
	if applied, err := n.Handoff(ctx, recs); !errors.Is(err, broker.ErrRackClosed) || applied != 0 {
		t.Fatalf("Handoff on a closed rack = %d, %v; want 0 and ErrRackClosed", applied, err)
	}
}

func TestRepairHintResolvesFromOwnCopy(t *testing.T) {
	n := newNode(t, "rack-0", Config{})
	ctx := context.Background()
	raw, pkg := buildRaw(t, 3)
	if _, err := n.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	rep := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now()}).Marshal()
	if err := n.Reply(ctx, pkg.ID, rep); err != nil {
		t.Fatal(err)
	}
	got, err := n.Hint(ctx, "rack-1", []broker.HandoffRecord{
		{Type: broker.RecRepair, Payload: []byte(pkg.ID)},
		{Type: broker.RecRepair, Payload: []byte("not-held")}, // silently droppable
	})
	if err != nil || got != 2 {
		t.Fatalf("repair Hint = %d, %v; want 2 (submit + reply)", got, err)
	}
	if n.Pending() != 2 {
		t.Fatalf("Pending = %d, want resolved submit + reply records", n.Pending())
	}
}

// localTarget delivers handoff batches straight into a peer node's handler,
// carrying the rack-to-rack identity the replica channel would pin.
type localTarget struct{ n *Node }

func (l localTarget) Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error) {
	return l.n.Handoff(broker.WithIdentity(ctx, "rack:rack-0"), recs)
}
func (l localTarget) Close() error { return nil }

// TestHandoffPreservesOwnership pins the identity layer's replication
// contract: a bottle converging onto a replica via hinted handoff answers to
// its original submitter — not to the rack relaying it, and not to whatever
// Owner the hinting client claims.
func TestHandoffPreservesOwnership(t *testing.T) {
	ctx := context.Background()
	dst := newNode(t, "rack-1", Config{})
	src := newNode(t, "rack-0", Config{
		Peers: map[string]string{"rack-1": "pipe:rack-1"},
		Dial:  func(string) (HandoffTarget, error) { return localTarget{dst}, nil },
	})

	// alice's bottle reached rack-0 only; her ring queues the missed replica
	// write as a hint — with a forged Owner the queueing rack must ignore.
	raw, pkg := buildRaw(t, 7)
	aliceCtx := broker.WithIdentity(ctx, "alice")
	if _, err := src.Submit(aliceCtx, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Hint(aliceCtx, "rack-1", []broker.HandoffRecord{
		{Type: broker.RecSubmit, Owner: "mallory", Payload: raw},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, owner, _, ok := dst.PeekBottle(pkg.ID); !ok || owner != "alice" {
		t.Fatalf("converged bottle owner = %q (held %v), want alice", owner, ok)
	}
	if _, err := dst.Fetch(broker.WithIdentity(ctx, "mallory"), pkg.ID); !errors.Is(err, broker.ErrUnauthorized) {
		t.Fatalf("imposter fetch on the converged replica = %v, want ErrUnauthorized", err)
	}
	if _, err := dst.Fetch(aliceCtx, pkg.ID); err != nil {
		t.Fatalf("owner fetch on the converged replica: %v", err)
	}

	// Read-repair resolves ownership from the holding rack's own records even
	// when a third party (a sweeper noticing divergence) queues the repair.
	raw2, pkg2 := buildRaw(t, 8)
	if _, err := src.Submit(aliceCtx, raw2); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Hint(broker.WithIdentity(ctx, "sweeper"), "rack-1", []broker.HandoffRecord{
		{Type: broker.RecRepair, Payload: []byte(pkg2.ID)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, owner, _, ok := dst.PeekBottle(pkg2.ID); !ok || owner != "alice" {
		t.Fatalf("read-repaired bottle owner = %q (held %v), want alice", owner, ok)
	}

	// A hinted remove applies as the identity that asked for it, not as the
	// relaying rack: alice's removal of her own bottle converges, and the
	// write queued behind it arrives.
	raw3, pkg3 := buildRaw(t, 9)
	if _, err := src.Hint(aliceCtx, "rack-1", []broker.HandoffRecord{
		{Type: broker.RecRemove, Payload: []byte(pkg.ID)},
		{Type: broker.RecSubmit, Payload: raw3},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Flush(ctx); err != nil || src.Pending() != 0 {
		t.Fatalf("Flush: %v, %d pending; want the remove and the submit delivered", err, src.Pending())
	}
	if _, _, _, ok := dst.PeekBottle(pkg.ID); ok {
		t.Fatal("alice's hinted remove left her bottle on the replica")
	}
	if _, owner, _, ok := dst.PeekBottle(pkg3.ID); !ok || owner != "alice" {
		t.Fatalf("submit queued behind the remove: owner = %q (held %v), want alice", owner, ok)
	}

	// mallory's remove of alice's bottle, under whatever owner the hint
	// claims, is refused on the replica and dropped without holding back
	// the write queued behind it.
	raw4, pkg4 := buildRaw(t, 10)
	if _, err := src.Hint(broker.WithIdentity(ctx, "mallory"), "rack-1", []broker.HandoffRecord{
		{Type: broker.RecRemove, Owner: "alice", Payload: []byte(pkg2.ID)},
		{Type: broker.RecSubmit, Payload: raw4},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Flush(ctx); err != nil || src.Pending() != 0 {
		t.Fatalf("Flush: %v, %d pending; want the forged remove dropped and the submit delivered", err, src.Pending())
	}
	if _, owner, _, ok := dst.PeekBottle(pkg2.ID); !ok || owner != "alice" {
		t.Fatalf("after mallory's remove hint: owner = %q (held %v), want alice's bottle still held", owner, ok)
	}
	if _, owner, _, ok := dst.PeekBottle(pkg4.ID); !ok || owner != "mallory" {
		t.Fatalf("submit queued behind the forged remove: owner = %q (held %v), want mallory", owner, ok)
	}
}

// TestHandoffOwnerlessStaysOpen: an anonymous submit stays open on the copy
// it converges to. The record carries an empty owner, and the relaying peer's
// identity on the handoff connection must not stand in for it, or the
// submitter's own Fetch of the copy is refused.
func TestHandoffOwnerlessStaysOpen(t *testing.T) {
	ctx := context.Background()
	dst := newNode(t, "rack-1", Config{})
	src := newNode(t, "rack-0", Config{
		Peers: map[string]string{"rack-1": "pipe:rack-1"},
		Dial:  func(string) (HandoffTarget, error) { return localTarget{dst}, nil },
	})
	raw, pkg := buildRaw(t, 12)
	if _, err := src.Hint(ctx, "rack-1", []broker.HandoffRecord{{Type: broker.RecSubmit, Payload: raw}}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Flush(ctx); err != nil || src.Pending() != 0 {
		t.Fatalf("Flush: %v, %d pending; want the submit delivered", err, src.Pending())
	}
	if _, owner, _, ok := dst.PeekBottle(pkg.ID); !ok || owner != "" {
		t.Fatalf("converged bottle owner = %q (held %v), want open ownership", owner, ok)
	}
	if _, err := dst.Fetch(ctx, pkg.ID); err != nil {
		t.Fatalf("anonymous fetch of the converged copy: %v", err)
	}
}

// TestHintKeepsItsOwnCopy: a hint queue outlives the call that fills it,
// so it keeps a copy of each record's payload. A caller that reuses its
// buffer after an in-process Hint, as a transport frame is reused after the
// handler returns, must not change what is streamed.
func TestHintKeepsItsOwnCopy(t *testing.T) {
	ctx := context.Background()
	dst := newNode(t, "rack-1", Config{})
	src := newNode(t, "rack-0", Config{
		Peers: map[string]string{"rack-1": "pipe:rack-1"},
		Dial:  func(string) (HandoffTarget, error) { return localTarget{dst}, nil },
	})
	raw, pkg := buildRaw(t, 13)
	buf := append([]byte(nil), raw...)
	if _, err := src.Hint(ctx, "rack-1", []broker.HandoffRecord{{Type: broker.RecSubmit, Payload: buf}}); err != nil {
		t.Fatal(err)
	}
	clear(buf)
	if _, err := src.Flush(ctx); err != nil || src.Pending() != 0 {
		t.Fatalf("Flush: %v, %d pending; want the submit delivered", err, src.Pending())
	}
	if got, _, _, ok := dst.PeekBottle(pkg.ID); !ok || !bytes.Equal(got, raw) {
		t.Fatalf("destination holds the bottle: %v; want it as hinted, not the reused buffer", ok)
	}
}

func TestPeerTableAdmin(t *testing.T) {
	n := newNode(t, "rack-0", Config{Peers: map[string]string{"rack-1": "a:1"}})
	if err := n.SetPeer("rack-2", "b:2"); err != nil {
		t.Fatal(err)
	}
	if err := n.SetPeer("", "x"); err == nil {
		t.Fatal("empty peer name accepted")
	}
	if got := n.Peers(); len(got) != 2 || got["rack-1"] != "a:1" || got["rack-2"] != "b:2" {
		t.Fatalf("Peers = %v", got)
	}
	// Removing a peer sheds its queued hints.
	if _, err := n.Hint(context.Background(), "rack-1", []broker.HandoffRecord{{Type: broker.RecRemove, Payload: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := n.RemovePeer("rack-1"); err != nil {
		t.Fatal(err)
	}
	if n.Pending() != 0 {
		t.Fatalf("Pending = %d after RemovePeer, want 0", n.Pending())
	}
	if st := n.ReplicaStats(); st.HintsDropped != 1 {
		t.Fatalf("HintsDropped = %d, want 1", st.HintsDropped)
	}
}

// TestStreamEndToEnd runs the full handoff loop over the wire: rack-0 queues
// hints while rack-1 is down, rack-1 comes up, a flush streams the records
// through OpHandoff, and rack-1 converges to holding the bottle and reply.
func TestStreamEndToEnd(t *testing.T) {
	ctx := context.Background()

	// rack-1 comes up behind a pipe listener with its own replica handler.
	n1 := newNode(t, "rack-1", Config{})
	l := transport.ListenPipe()
	srv := transport.NewServer(n1.Rack, transport.ServerOptions{Replica: n1})
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()

	up := false
	n0 := newNode(t, "rack-0", Config{
		Peers:       map[string]string{"rack-1": "pipe"},
		StreamBatch: 1, // force multiple delivery round trips
		Dial: func(addr string) (HandoffTarget, error) {
			if !up {
				return nil, errors.New("peer down")
			}
			conn, err := l.Dial()
			if err != nil {
				return nil, err
			}
			return transport.NewMux(conn)
		},
	})

	raw, pkg := buildRaw(t, 4)
	rep := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now()}).Marshal()
	if _, err := n0.Hint(ctx, "rack-1", []broker.HandoffRecord{
		{Type: broker.RecSubmit, Payload: raw},
		{Type: broker.RecReply, Payload: broker.AppendReplyPost(nil, pkg.ID, rep)},
	}); err != nil {
		t.Fatal(err)
	}

	// While the peer is down the queue survives a failed pass.
	if sent, err := n0.Flush(ctx); err == nil || sent != 0 {
		t.Fatalf("Flush against down peer = %d, %v; want 0 and an error", sent, err)
	}
	if n0.Pending() != 2 {
		t.Fatalf("Pending = %d after failed flush, want 2", n0.Pending())
	}

	up = true
	if sent, err := n0.Flush(ctx); err != nil || sent != 2 {
		t.Fatalf("Flush = %d, %v; want 2 streamed", sent, err)
	}
	if n0.Pending() != 0 {
		t.Fatalf("Pending = %d after flush, want 0", n0.Pending())
	}
	if got, err := n1.Fetch(ctx, pkg.ID); err != nil || len(got) != 1 {
		t.Fatalf("rack-1 Fetch = %d replies, %v; want converged bottle with 1 reply", len(got), err)
	}
	st0, st1 := n0.ReplicaStats(), n1.ReplicaStats()
	if st0.HintsStreamed != 2 || st1.HandoffApplied != 2 {
		t.Fatalf("counters: streamer %+v, receiver %+v", st0, st1)
	}
}

// TestBackgroundStreamer proves the ticker path delivers without explicit
// Flush calls.
func TestBackgroundStreamer(t *testing.T) {
	n1 := newNode(t, "rack-1", Config{})
	l := transport.ListenPipe()
	srv := transport.NewServer(n1.Rack, transport.ServerOptions{Replica: n1})
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()

	n0 := newNode(t, "rack-0", Config{
		Peers:          map[string]string{"rack-1": "pipe"},
		StreamInterval: 10 * time.Millisecond,
		Dial: func(addr string) (HandoffTarget, error) {
			conn, err := l.Dial()
			if err != nil {
				return nil, err
			}
			return transport.NewMux(conn)
		},
	})

	raw, pkg := buildRaw(t, 5)
	if _, err := n0.Hint(context.Background(), "rack-1", []broker.HandoffRecord{{Type: broker.RecSubmit, Payload: raw}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, _, ok := n1.PeekBottle(pkg.ID); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background streamer never delivered the hint")
}
