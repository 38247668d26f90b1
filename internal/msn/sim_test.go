package msn

import (
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
)

// collector is a Handler that records delivered messages and optionally
// forwards floods.
type collector struct {
	received []*Message
	forward  bool
	reply    func(msg *Message) []*Message
}

func (c *collector) OnMessage(_ time.Time, _ *Node, msg *Message) (bool, []*Message) {
	c.received = append(c.received, msg.clone())
	var out []*Message
	if c.reply != nil {
		out = c.reply(msg)
	}
	return c.forward, out
}

func lineTopology(t *testing.T, sim *Simulator, handlers []*collector, spacing float64) {
	t.Helper()
	for i, h := range handlers {
		id := NodeID(string(rune('a' + i)))
		if _, err := sim.AddNode(id, Position{X: float64(i) * spacing}, h); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Range != 50 || cfg.DefaultTTL != 8 || cfg.Latency <= 0 || cfg.Start.IsZero() {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestAddNodeAndNeighbors(t *testing.T) {
	sim := NewSimulator(Config{Range: 100})
	a := &collector{}
	lineTopology(t, sim, []*collector{a, {}, {}}, 80)
	if _, err := sim.AddNode("a", Position{}, a); err == nil {
		t.Error("duplicate node should fail")
	}
	// a(0) - b(80) - c(160): a and b are neighbours, a and c are not.
	nbs := sim.Neighbors("a")
	if len(nbs) != 1 || nbs[0] != "b" {
		t.Errorf("Neighbors(a) = %v", nbs)
	}
	if got := sim.Neighbors("b"); len(got) != 2 {
		t.Errorf("Neighbors(b) = %v", got)
	}
	if sim.Neighbors("missing") != nil {
		t.Error("unknown node should have no neighbours")
	}
	if len(sim.NodeIDs()) != 3 {
		t.Error("NodeIDs wrong")
	}
	if _, ok := sim.Node("a"); !ok {
		t.Error("Node lookup failed")
	}
}

func TestFloodReachesMultiHop(t *testing.T) {
	// Line of 5 nodes spaced 80m with 100m range: only adjacent nodes hear
	// each other, so reaching the far end requires relaying.
	handlers := make([]*collector, 5)
	for i := range handlers {
		handlers[i] = &collector{forward: true}
	}
	sim := NewSimulator(Config{Range: 100, Latency: time.Millisecond})
	lineTopology(t, sim, handlers, 80)

	err := sim.Originate("a", &Message{Kind: KindRequest, ID: "req1", Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	sim.Drain()

	for i, h := range handlers[1:] {
		if len(h.received) != 1 {
			t.Errorf("node %d received %d messages, want 1", i+1, len(h.received))
		}
	}
	// Hop counts increase along the line.
	if handlers[4].received[0].Hops < handlers[1].received[0].Hops {
		t.Error("hop count did not increase along the path")
	}
	stats := sim.Stats()
	if stats.Delivered == 0 || stats.Sent == 0 {
		t.Error("stats not recorded")
	}
	if stats.DeliveredByKind[KindRequest] == 0 {
		t.Error("per-kind stats not recorded")
	}
}

func TestFloodRespectsTTL(t *testing.T) {
	handlers := make([]*collector, 6)
	for i := range handlers {
		handlers[i] = &collector{forward: true}
	}
	sim := NewSimulator(Config{Range: 100, Latency: time.Millisecond})
	lineTopology(t, sim, handlers, 80)

	// TTL 2: origin -> b (TTL 2) -> c (TTL 1, not re-broadcast).
	if err := sim.Originate("a", &Message{Kind: KindRequest, ID: "req1", TTL: 2}); err != nil {
		t.Fatal(err)
	}
	sim.Drain()
	if len(handlers[2].received) != 1 {
		t.Errorf("node c should have received the frame, got %d", len(handlers[2].received))
	}
	if len(handlers[3].received) != 0 {
		t.Errorf("node d is beyond TTL, got %d deliveries", len(handlers[3].received))
	}
	if sim.Stats().Expired == 0 {
		t.Error("expired counter should have incremented")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Triangle: every node hears every other; each frame must be processed
	// exactly once per node despite multiple copies arriving.
	handlers := []*collector{{forward: true}, {forward: true}, {forward: true}}
	sim := NewSimulator(Config{Range: 500, Latency: time.Millisecond})
	lineTopology(t, sim, handlers, 50)

	if err := sim.Originate("a", &Message{Kind: KindRequest, ID: "req1"}); err != nil {
		t.Fatal(err)
	}
	sim.Drain()
	for i, h := range handlers[1:] {
		if len(h.received) != 1 {
			t.Errorf("node %d processed %d copies, want 1", i+1, len(h.received))
		}
	}
	if sim.Stats().Duplicates == 0 {
		t.Error("duplicate suppression should have fired")
	}
}

func TestReverseRoutingOfReplies(t *testing.T) {
	// Node e replies to a's request; the reply must travel back through the
	// relays via the recorded reverse path.
	var replyPayload = []byte("reply-data")
	handlers := make([]*collector, 5)
	for i := range handlers {
		handlers[i] = &collector{forward: true}
	}
	handlers[4].reply = func(msg *Message) []*Message {
		return []*Message{{
			Kind:        KindReply,
			ID:          "reply1",
			Correlate:   msg.ID,
			Destination: msg.Origin,
			Payload:     replyPayload,
		}}
	}
	sim := NewSimulator(Config{Range: 100, Latency: time.Millisecond})
	lineTopology(t, sim, handlers, 80)

	if err := sim.Originate("a", &Message{Kind: KindRequest, ID: "req1"}); err != nil {
		t.Fatal(err)
	}
	sim.Drain()

	var got *Message
	for _, m := range handlers[0].received {
		if m.Kind == KindReply {
			got = m
		}
	}
	if got == nil {
		t.Fatal("reply never reached the origin")
	}
	if string(got.Payload) != string(replyPayload) {
		t.Error("reply payload corrupted")
	}
}

func TestLossyLinksDropFrames(t *testing.T) {
	handlers := []*collector{{forward: true}, {forward: true}}
	sim := NewSimulator(Config{Range: 100, Latency: time.Millisecond, LossRate: 1.0, Seed: 1})
	lineTopology(t, sim, handlers, 50)
	if err := sim.Originate("a", &Message{Kind: KindRequest, ID: "req1"}); err != nil {
		t.Fatal(err)
	}
	sim.Drain()
	if len(handlers[1].received) != 0 {
		t.Error("frame delivered despite 100% loss")
	}
	if sim.Stats().Lost == 0 {
		t.Error("loss counter not incremented")
	}
}

func TestRelayRateLimit(t *testing.T) {
	handlers := []*collector{{forward: true}, {forward: true}, {forward: true}}
	sim := NewSimulator(Config{Range: 100, Latency: time.Millisecond, RelayRateLimit: time.Minute})
	lineTopology(t, sim, handlers, 80)

	// Two different requests from the same origin in quick succession: the
	// middle node relays only the first one.
	if err := sim.Originate("a", &Message{Kind: KindRequest, ID: "req1"}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Originate("a", &Message{Kind: KindRequest, ID: "req2"}); err != nil {
		t.Fatal(err)
	}
	sim.Drain()
	if got := len(handlers[2].received); got != 1 {
		t.Errorf("far node received %d requests, want 1 (second suppressed by rate limit)", got)
	}
	if sim.Stats().RateLimited == 0 {
		t.Error("rate-limit counter not incremented")
	}
}

func TestUnicastWithoutRouteIsUndeliverable(t *testing.T) {
	sim := NewSimulator(Config{Range: 10, Latency: time.Millisecond})
	a := &collector{}
	b := &collector{}
	if _, err := sim.AddNode("a", Position{}, a); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddNode("b", Position{X: 1000}, b); err != nil {
		t.Fatal(err)
	}
	if err := sim.Originate("a", &Message{Kind: KindReply, ID: "r", Correlate: "nothing", Destination: "b"}); err != nil {
		t.Fatal(err)
	}
	sim.Drain()
	if len(b.received) != 0 {
		t.Error("unreachable unicast was delivered")
	}
	if sim.Stats().Undeliverable == 0 {
		t.Error("undeliverable counter not incremented")
	}
	if err := sim.Originate("ghost", &Message{Kind: KindRequest, ID: "x"}); err == nil {
		t.Error("originating from an unknown node should fail")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	sim := NewSimulator(Config{})
	start := sim.Now()
	sim.RunFor(3 * time.Second)
	if got := sim.Now().Sub(start); got != 3*time.Second {
		t.Errorf("clock advanced %v, want 3s", got)
	}
}

func TestMobilityMovesNodesTowardWaypoints(t *testing.T) {
	sim := NewSimulator(Config{
		Range:            50,
		MobilityInterval: time.Second,
		Area:             Position{X: 200, Y: 200},
		Seed:             7,
	})
	n, err := sim.AddNode("walker", Position{X: 0, Y: 0}, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RandomWaypoint("walker", 10); err != nil {
		t.Fatal(err)
	}
	if err := sim.RandomWaypoint("ghost", 10); err == nil {
		t.Error("unknown node should fail")
	}
	before := n.Position()
	sim.RunFor(10 * time.Second)
	after := n.Position()
	if distance(before, after) == 0 {
		t.Error("mobile node did not move")
	}
	if after.X < 0 || after.Y < 0 || after.X > 200 || after.Y > 200 {
		t.Errorf("node left the area: %+v", after)
	}
}

func TestPlaceUniformKeepsNodesInArea(t *testing.T) {
	sim := NewSimulator(Config{Area: Position{X: 300, Y: 400}, Seed: 3})
	for i := 0; i < 20; i++ {
		if _, err := sim.AddNode(NodeID(rune('a'+i)), Position{}, &collector{}); err != nil {
			t.Fatal(err)
		}
	}
	sim.PlaceUniform()
	for _, id := range sim.NodeIDs() {
		n, _ := sim.Node(id)
		p := n.Position()
		if p.X < 0 || p.X > 300 || p.Y < 0 || p.Y > 400 {
			t.Errorf("node %s outside area: %+v", id, p)
		}
	}
}

func TestMessageKindString(t *testing.T) {
	if KindRequest.String() != "request" || KindReply.String() != "reply" || KindData.String() != "data" {
		t.Error("kind strings wrong")
	}
	if MessageKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestNodeSpeedClamp(t *testing.T) {
	n := newNode("x", Position{}, &collector{})
	n.SetSpeed(-5)
	if n.Speed() != 0 {
		t.Error("negative speed should clamp to zero")
	}
	n.SetPosition(Position{X: 7})
	if n.Position().X != 7 {
		t.Error("SetPosition failed")
	}
}

// TestDrainTerminatesWithPeriodicHooks checks that the self-rescheduling
// mobility tick neither keeps Drain alive on its own nor stops it before a
// pending delivery is processed.
func TestDrainTerminatesWithPeriodicHooks(t *testing.T) {
	sim := NewSimulator(Config{MobilityInterval: time.Second})
	if n := sim.Drain(); n != 0 {
		t.Fatalf("Drain with only periodic events processed %d, want 0", n)
	}
	// With a delivery pending, Drain must process it (and any periodic events
	// scheduled before it) and then stop again.
	alice, _, err := NewFriendingApp(sim, "alice", Position{}, FriendingConfig{
		Profile: attr.NewProfile(attr.MustNew("interest", "chess")),
		Rand:    newDetReader(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewFriendingApp(sim, "bob", Position{X: 10}, FriendingConfig{
		Profile: attr.NewProfile(attr.MustNew("interest", "chess")),
		Rand:    newDetReader(2),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.StartSearch(core.PerfectMatch(attr.MustNew("interest", "chess")), SearchOptions{
		Rand: newDetReader(3),
	}); err != nil {
		t.Fatal(err)
	}
	if n := sim.Drain(); n == 0 {
		t.Fatal("Drain ignored a pending delivery")
	}
	if len(alice.Matches()) != 1 {
		t.Fatalf("matches = %d, want 1", len(alice.Matches()))
	}
}
