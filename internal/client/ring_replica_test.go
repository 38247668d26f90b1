package client

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/core"
	"sealedbottle/internal/replica"
)

// rackFor maps a ring member back to its underlying rack by name.
func rackFor(t *testing.T, n *rackNode, racks []*broker.Rack) *broker.Rack {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(n.name, "rack-%d", &i); err != nil || i < 0 || i >= len(racks) {
		t.Fatalf("unmappable member name %q", n.name)
	}
	return racks[i]
}

// TestRingReplicatedSubmitPlacesRCopies proves placement intent: with R=2
// every submitted bottle sits on exactly the top-2 rendezvous-ranked racks.
func TestRingReplicatedSubmitPlacesRCopies(t *testing.T) {
	ring, _, racks := testCluster(t, 3, 2)
	ctx := context.Background()
	for seed := int64(0); seed < 20; seed++ {
		raw, pkg := buildRaw(t, seed)
		if _, err := ring.Submit(ctx, raw); err != nil {
			t.Fatal(err)
		}
		ranked := rank(nil, ring.members(), pkg.ID)
		for j, n := range ranked {
			_, _, _, held := rackFor(t, n, racks).PeekBottle(pkg.ID)
			if want := j < 2; held != want {
				t.Fatalf("seed %d: rank-%d rack %s held=%v, want %v", seed, j, n.name, held, want)
			}
		}
	}
}

// TestRingReplicatedReplyFetchRemove covers the read/write fan-out round
// trip: a reply lands on both replicas, the fetch merges the two copies down
// to one (counting the dedup), and a remove clears every replica.
func TestRingReplicatedReplyFetchRemove(t *testing.T) {
	ring, _, racks := testCluster(t, 3, 2)
	ctx := context.Background()
	raw, pkg := buildRaw(t, 42)
	id, err := ring.Submit(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	rep := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now()}).Marshal()
	if err := ring.Reply(ctx, id, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ring.Fetch(ctx, id)
	if err != nil || len(got) != 1 {
		t.Fatalf("Fetch = %d replies, %v; want the one reply, merged across replicas", len(got), err)
	}
	st, err := ring.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.ReplicaDedup == 0 {
		t.Fatalf("Replication stats = %+v, want the fetched duplicate counted", st.Replication)
	}
	held, err := ring.Remove(ctx, id)
	if err != nil || !held {
		t.Fatalf("Remove = %v, %v; want held", held, err)
	}
	for _, rack := range racks {
		if _, _, _, ok := rack.PeekBottle(pkg.ID); ok {
			t.Fatal("replica still holds the bottle after replicated remove")
		}
	}
}

// TestRingReplicatedSurvivesRackLoss is the replication payoff: with R=2,
// killing any one rack loses no bottle and no queued reply.
func TestRingReplicatedSurvivesRackLoss(t *testing.T) {
	ring, backs, _ := testCluster(t, 3, 2)
	ctx := context.Background()
	const n = 30
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		raw, pkg := buildRaw(t, int64(100+i))
		id, err := ring.Submit(ctx, raw)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		rep := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now()}).Marshal()
		if err := ring.Reply(ctx, id, rep); err != nil {
			t.Fatal(err)
		}
	}
	backs[0].dead.Store(true)
	for i, id := range ids {
		got, err := ring.Fetch(ctx, id)
		if err != nil {
			t.Fatalf("bottle %d lost with one rack down: %v", i, err)
		}
		if len(got) != 1 {
			t.Fatalf("bottle %d: %d replies with one rack down, want 1", i, len(got))
		}
	}
	// New submits keep working and still place two live copies.
	raw, pkg := buildRaw(t, 9999)
	if _, err := ring.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, b := range backs[1:] {
		if _, _, _, ok := b.rack.PeekBottle(pkg.ID); ok {
			copies++
		}
	}
	if copies != 2 {
		t.Fatalf("post-loss submit has %d live copies, want 2 (extension along the ranking)", copies)
	}
}

// TestRingReplicatedReadRepairCounter: a replica missing a bottle others hold
// is detected at fetch time and counted, even when the backends cannot queue
// hints (plain racks).
func TestRingReplicatedReadRepairCounter(t *testing.T) {
	ring, _, racks := testCluster(t, 3, 2)
	ctx := context.Background()
	raw, pkg := buildRaw(t, 7)
	id, err := ring.Submit(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the second replica's copy behind the ring's back.
	ranked := rank(nil, ring.members(), pkg.ID)
	if _, err := rackFor(t, ranked[1], racks).Remove(ctx, pkg.ID); err != nil {
		t.Fatal(err)
	}
	got, err := ring.Fetch(ctx, id)
	if err != nil || len(got) != 0 {
		t.Fatalf("Fetch = %d replies, %v; want clean empty fetch from the holder", len(got), err)
	}
	st, err := ring.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.ReadRepairs != 1 {
		t.Fatalf("ReadRepairs = %d, want 1", st.Replication.ReadRepairs)
	}
}

// TestRingReplicatedBatchPaths runs the batched fan-out variants end to end,
// including a malformed item that must fail alone.
func TestRingReplicatedBatchPaths(t *testing.T) {
	ring, _, racks := testCluster(t, 3, 2)
	ctx := context.Background()
	raws := make([][]byte, 0, 6)
	pkgs := make([]*core.RequestPackage, 0, 6)
	for seed := int64(200); seed < 205; seed++ {
		raw, pkg := buildRaw(t, seed)
		raws, pkgs = append(raws, raw), append(pkgs, pkg)
	}
	raws = append(raws, []byte("not a package"))
	subs, err := ring.SubmitBatch(ctx, raws)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if subs[i].Err != nil {
			t.Fatalf("item %d: %v", i, subs[i].Err)
		}
		ranked := rank(nil, ring.members(), pkgs[i].ID)
		for j := 0; j < 2; j++ {
			if _, _, _, ok := rackFor(t, ranked[j], racks).PeekBottle(pkgs[i].ID); !ok {
				t.Fatalf("item %d missing from replica %d", i, j)
			}
		}
	}
	if subs[5].Err == nil {
		t.Fatal("malformed batch item submitted cleanly")
	}

	posts := make([]broker.ReplyPost, 5)
	for i := 0; i < 5; i++ {
		rep := (&core.Reply{RequestID: pkgs[i].ID, From: "bob", SentAt: time.Now()}).Marshal()
		posts[i] = broker.ReplyPost{RequestID: subs[i].ID, Raw: rep}
	}
	perr, err := ring.ReplyBatch(ctx, posts)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range perr {
		if e != nil {
			t.Fatalf("reply %d: %v", i, e)
		}
	}
	fids := make([]string, 5)
	for i := 0; i < 5; i++ {
		fids[i] = subs[i].ID
	}
	fr, err := ring.FetchBatch(ctx, fids)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range fr {
		if res.Err != nil || len(res.Replies) != 1 {
			t.Fatalf("fetch %d = %d replies, %v; want the deduplicated one", i, len(res.Replies), res.Err)
		}
	}
	st, err := ring.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.ReplicaDedup < 5 {
		t.Fatalf("ReplicaDedup = %d, want >= 5 (one collapsed copy per bottle)", st.Replication.ReplicaDedup)
	}
}

// TestRingMembershipAddRemove exercises runtime membership: adds take new
// placements, removes drop them, duplicates and unknowns are rejected, and
// an unowned removed backend stays usable by its owner.
func TestRingMembershipAddRemove(t *testing.T) {
	ring, backs, racks := testCluster(t, 2, 2)
	ctx := context.Background()
	if err := ring.AddRack("rack-0", backs[0]); err == nil {
		t.Fatal("duplicate rack name accepted")
	}
	rack2 := broker.New(broker.Config{Shards: 4, ReapInterval: -1, RackTag: "r2"})
	defer rack2.Close()
	if err := ring.AddRack("rack-2", &unstableBackend{rack: rack2}); err != nil {
		t.Fatal(err)
	}
	if got := ring.Members(); len(got) != 3 || got[2] != "rack-2" {
		t.Fatalf("Members = %v", got)
	}
	// Bounded re-placement: growing the membership only ever pulls an ID
	// toward the new member — no placement shuffles between old members.
	two := ring.members()[:2]
	all := ring.members()
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("bottle-%d", i)
		oldSet := map[string]bool{}
		for _, n := range rank(nil, two, id)[:2] {
			oldSet[n.name] = true
		}
		for _, n := range rank(nil, all, id)[:2] {
			if n.name != "rack-2" && !oldSet[n.name] {
				t.Fatalf("id %q moved between pre-existing members on add", id)
			}
		}
	}
	// A submit ranking the new member in its top-2 lands a copy there.
	placedOnNew := false
	for seed := int64(300); seed < 340 && !placedOnNew; seed++ {
		raw, pkg := buildRaw(t, seed)
		ranked := rank(nil, ring.members(), pkg.ID)
		if ranked[0].name != "rack-2" && ranked[1].name != "rack-2" {
			continue
		}
		if _, err := ring.Submit(ctx, raw); err != nil {
			t.Fatal(err)
		}
		if _, _, _, ok := rack2.PeekBottle(pkg.ID); !ok {
			t.Fatal("new member ranked in top-R but holds no copy")
		}
		placedOnNew = true
	}
	if !placedOnNew {
		t.Fatal("no seed ranked the new member; widen the search")
	}

	if err := ring.RemoveRack("rack-9"); err == nil {
		t.Fatal("unknown rack name removed")
	}
	if err := ring.RemoveRack("rack-1"); err != nil {
		t.Fatal(err)
	}
	if got := ring.Members(); len(got) != 2 || got[0] != "rack-0" || got[1] != "rack-2" {
		t.Fatalf("Members after remove = %v", got)
	}
	raw, pkg := buildRaw(t, 400)
	if _, err := ring.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := racks[1].PeekBottle(pkg.ID); ok {
		t.Fatal("removed rack still receives placements")
	}
	// The removed backend was caller-owned: it must not have been closed.
	if _, err := racks[1].Stats(ctx); err != nil {
		t.Fatalf("unowned removed rack was torn down: %v", err)
	}
}

// --- hinted-handoff convergence through replica-wrapped racks ---

// localTarget adapts a peer replica.Node as an in-process handoff target; its
// Close must not tear the peer down.
type localTarget struct{ n *replica.Node }

func (l localTarget) Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error) {
	return l.n.Handoff(ctx, recs)
}
func (l localTarget) Close() error { return nil }

// replicatedNodes stands up n replica-wrapped racks (hint queues, local
// handoff dialing, no background streamer) and a ring at R=rf over them.
func replicatedNodes(t *testing.T, n, rf int) (*Ring, []*replica.Node) {
	t.Helper()
	nodes := make([]*replica.Node, n)
	byName := make(map[string]*replica.Node, n)
	cfg := RingConfig{ProbeInterval: -1, Replication: rf}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rack-%d", i)
		peers := make(map[string]string, n)
		for j := 0; j < n; j++ {
			peer := fmt.Sprintf("rack-%d", j)
			peers[peer] = peer
		}
		node := replica.Wrap(broker.New(broker.Config{
			Shards: 4, ReapInterval: -1, RackTag: fmt.Sprintf("r%d", i),
		}), replica.Config{
			Self:           name,
			Peers:          peers,
			StreamInterval: -1, // tests drive Flush explicitly
			Dial: func(addr string) (replica.HandoffTarget, error) {
				peer, ok := byName[addr]
				if !ok {
					return nil, fmt.Errorf("unknown peer %q", addr)
				}
				return localTarget{n: peer}, nil
			},
		})
		nodes[i] = node
		byName[name] = node
		cfg.Backends = append(cfg.Backends, RingBackend{Name: name, Backend: node})
	}
	ring, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ring.Close()
		for _, n := range nodes {
			n.Close()
		}
	})
	return ring, nodes
}

// nodeByName resolves a ring member name back to its replica node.
func nodeByName(t *testing.T, nodes []*replica.Node, name string) *replica.Node {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(name, "rack-%d", &i); err != nil || i < 0 || i >= len(nodes) {
		t.Fatalf("unmappable member name %q", name)
	}
	return nodes[i]
}

// TestRingHintedHandoffConvergence: a submit that misses a down replica
// queues a hint on a live one, and a flush after the replica returns
// converges it to holding its copy — no stop-the-world resync.
func TestRingHintedHandoffConvergence(t *testing.T) {
	ring, nodes := replicatedNodes(t, 3, 2)
	ctx := context.Background()
	raw, pkg := buildRaw(t, 1234)
	ranked := rank(nil, ring.members(), pkg.ID)
	victim := ranked[1] // second replica goes down before the submit
	victim.down.Store(true)

	if _, err := ring.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	// Two live copies exist (first replica + the extension), the down
	// replica's copy is a queued hint.
	copies, pending := 0, 0
	for _, n := range nodes {
		if _, _, _, ok := n.PeekBottle(pkg.ID); ok {
			copies++
		}
		pending += n.Pending()
	}
	if copies != 2 || pending == 0 {
		t.Fatalf("copies = %d, pending hints = %d; want 2 live copies and a queued hint", copies, pending)
	}

	victim.down.Store(false)
	for _, n := range nodes {
		if n.Pending() == 0 {
			continue
		}
		if _, err := n.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, ok := nodeByName(t, nodes, victim.name).PeekBottle(pkg.ID); !ok {
		t.Fatal("returned replica did not converge via handoff")
	}
}

// TestRingReadRepairConvergence: a fetch that finds one replica empty queues
// a repair hint resolved from the holder's own copy, and a flush restores the
// missing replica.
func TestRingReadRepairConvergence(t *testing.T) {
	ring, nodes := replicatedNodes(t, 3, 2)
	ctx := context.Background()
	raw, pkg := buildRaw(t, 5678)
	id, err := ring.Submit(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	ranked := rank(nil, ring.members(), pkg.ID)
	missing := nodeByName(t, nodes, ranked[1].name)
	if _, err := missing.Remove(ctx, pkg.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.Fetch(ctx, id); err != nil {
		t.Fatal(err)
	}
	holder := nodeByName(t, nodes, ranked[0].name)
	if holder.Pending() == 0 {
		t.Fatal("fetch did not queue a repair hint on the holder")
	}
	if _, err := holder.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := missing.PeekBottle(pkg.ID); !ok {
		t.Fatal("read repair did not restore the missing replica")
	}
	st, err := ring.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.ReadRepairs == 0 {
		t.Fatalf("Replication stats = %+v, want the repair counted", st.Replication)
	}
	// The stream counters live on the node (they fold into wire Stats only
	// through the transport server, absent in this in-process setup).
	if ns := holder.ReplicaStats(); ns.HintsQueued == 0 || ns.HintsStreamed == 0 {
		t.Fatalf("holder node stats = %+v, want the hint queued and streamed", ns)
	}
}

// TestRingReplicationFactorOneUnchanged pins what R=1 means on the one ring
// path: the intent set has one member, so a submit places exactly one copy,
// and a healthy ring reports no replication activity.
func TestRingReplicationFactorOneUnchanged(t *testing.T) {
	ring, _, racks := testCluster(t, 3, 1)
	ctx := context.Background()
	raw, pkg := buildRaw(t, 31)
	if _, err := ring.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, rack := range racks {
		if _, _, _, ok := rack.PeekBottle(pkg.ID); ok {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("R=1 submit produced %d copies, want 1", copies)
	}
	st, err := ring.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication != (broker.ReplicationStats{}) {
		t.Fatalf("R=1 ring reports replication activity: %+v", st.Replication)
	}
}
