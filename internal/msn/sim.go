package msn

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Simulator is a deterministic discrete-event simulator of the ad-hoc
// network. It is not safe for concurrent use; drive it from one goroutine.
type Simulator struct {
	cfg   Config
	rng   *rand.Rand
	clock time.Time

	nodes map[NodeID]*Node
	order []NodeID

	events eventQueue
	seq    uint64
	// deliveries counts pending frame-delivery events (msg != nil), so Drain
	// can test for outstanding work in O(1).
	deliveries int

	stats Stats
}

// event is a scheduled occurrence: a frame delivery, or a mobility tick (nil
// msg).
type event struct {
	at  time.Time
	seq uint64 // tie-breaker for determinism

	// delivery fields (nil msg means this is a mobility tick)
	to   NodeID
	from NodeID
	msg  *Message
}

// eventQueue is a min-heap ordered by (time, sequence).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// NewSimulator builds an empty network.
func NewSimulator(cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	s := &Simulator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		clock: cfg.Start,
		nodes: make(map[NodeID]*Node),
		stats: newStats(),
	}
	if cfg.MobilityInterval > 0 {
		s.schedule(&event{at: s.clock.Add(cfg.MobilityInterval)})
	}
	return s
}

// Now returns the current simulated time.
func (s *Simulator) Now() time.Time { return s.clock }

// Stats returns a copy of the accumulated counters.
func (s *Simulator) Stats() Stats {
	out := s.stats
	out.DeliveredByKind = make(map[MessageKind]int, len(s.stats.DeliveredByKind))
	for k, v := range s.stats.DeliveredByKind {
		out.DeliveredByKind[k] = v
	}
	return out
}

// Config returns the effective configuration.
func (s *Simulator) Config() Config { return s.cfg }

// AddNode registers a node at a position with an application handler.
func (s *Simulator) AddNode(id NodeID, pos Position, handler Handler) (*Node, error) {
	if _, dup := s.nodes[id]; dup {
		return nil, fmt.Errorf("msn: node %q already exists", id)
	}
	n := newNode(id, pos, handler)
	n.waypoint = pos
	s.nodes[id] = n
	s.order = append(s.order, id)
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	return n, nil
}

// Node returns a node by ID.
func (s *Simulator) Node(id NodeID) (*Node, bool) {
	n, ok := s.nodes[id]
	return n, ok
}

// NodeIDs returns all node IDs in deterministic order.
func (s *Simulator) NodeIDs() []NodeID {
	out := make([]NodeID, len(s.order))
	copy(out, s.order)
	return out
}

// Neighbors returns the nodes within radio range of id, in deterministic order.
func (s *Simulator) Neighbors(id NodeID) []NodeID {
	n, ok := s.nodes[id]
	if !ok {
		return nil
	}
	var out []NodeID
	for _, other := range s.order {
		if other == id {
			continue
		}
		if distance(n.pos, s.nodes[other].pos) <= s.cfg.Range {
			out = append(out, other)
		}
	}
	return out
}

// Originate injects a message created by a node's application layer into the
// network: flooded messages are broadcast to neighbours, unicast messages are
// routed via the reverse path of their correlated request.
func (s *Simulator) Originate(from NodeID, msg *Message) error {
	n, ok := s.nodes[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if msg.TTL <= 0 {
		msg.TTL = s.cfg.DefaultTTL
	}
	if msg.Origin == "" {
		msg.Origin = from
	}
	if msg.Kind == KindRequest {
		// The originator has, by definition, seen its own request.
		n.seen[msg.ID] = struct{}{}
		s.broadcastFrom(n, msg, "")
		return nil
	}
	s.unicastFrom(n, msg)
	return nil
}

// schedule enqueues an event.
func (s *Simulator) schedule(e *event) {
	s.seq++
	e.seq = s.seq
	if e.msg != nil {
		s.deliveries++
	}
	heap.Push(&s.events, e)
}

// broadcastFrom transmits a flooded frame from node n to every neighbour
// except the one it was received from.
func (s *Simulator) broadcastFrom(n *Node, msg *Message, except NodeID) {
	for _, nbID := range s.Neighbors(n.ID) {
		if nbID == except {
			continue
		}
		s.transmit(n.ID, nbID, msg)
	}
}

// unicastFrom forwards a unicast frame one hop along the reverse path toward
// its destination.
func (s *Simulator) unicastFrom(n *Node, msg *Message) {
	if msg.Destination == "" {
		s.stats.Undeliverable++
		return
	}
	// Direct delivery when the destination is in range.
	if dest, ok := s.nodes[msg.Destination]; ok && distance(n.pos, dest.pos) <= s.cfg.Range {
		s.transmit(n.ID, msg.Destination, msg)
		return
	}
	// Otherwise follow the reverse path recorded while the correlated
	// request flooded through this node.
	if hop, ok := n.reversePath[msg.Correlate]; ok {
		s.transmit(n.ID, hop, msg)
		return
	}
	s.stats.Undeliverable++
}

// transmit schedules a single link-level transmission with latency and loss.
func (s *Simulator) transmit(from, to NodeID, msg *Message) {
	s.stats.Sent++
	s.stats.BytesSent += len(msg.Payload)
	if s.cfg.LossRate > 0 && s.rng.Float64() < s.cfg.LossRate {
		s.stats.Lost++
		return
	}
	delay := s.cfg.Latency
	if s.cfg.LatencyJitter > 0 {
		delay += time.Duration(s.rng.Int63n(int64(s.cfg.LatencyJitter)))
	}
	s.schedule(&event{at: s.clock.Add(delay), to: to, from: from, msg: msg.clone()})
}

// Step processes the next pending event. It reports whether an event was
// processed (false means the queue is empty).
func (s *Simulator) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	if e.msg != nil {
		s.deliveries--
	}
	if e.at.After(s.clock) {
		s.clock = e.at
	}
	if e.msg == nil {
		s.mobilityTick()
		return true
	}
	s.deliver(e)
	return true
}

// Run processes events until the queue drains or the simulated clock passes
// the deadline. It returns the number of events processed.
func (s *Simulator) Run(until time.Time) int {
	processed := 0
	for s.events.Len() > 0 {
		next := s.events[0]
		if next.at.After(until) {
			break
		}
		s.Step()
		processed++
	}
	if s.clock.Before(until) {
		s.clock = until
	}
	return processed
}

// RunFor advances the simulation by a duration.
func (s *Simulator) RunFor(d time.Duration) int {
	return s.Run(s.clock.Add(d))
}

// Drain processes events regardless of time until no frame deliveries remain
// pending. Self-rescheduling mobility ticks are processed while deliveries
// are outstanding but do not keep Drain alive on their own — otherwise a
// simulation with mobility would never drain.
func (s *Simulator) Drain() int {
	processed := 0
	for s.deliveries > 0 && s.Step() {
		processed++
	}
	return processed
}

// deliver hands a frame to the receiving node and handles relaying.
func (s *Simulator) deliver(e *event) {
	node, ok := s.nodes[e.to]
	if !ok {
		s.stats.Undeliverable++
		return
	}
	msg := e.msg
	s.stats.Delivered++
	s.stats.DeliveredByKind[msg.Kind]++

	switch {
	case msg.Kind == KindRequest:
		s.deliverFlood(node, e.from, msg)
	case msg.Destination == node.ID:
		_, outgoing := node.handler.OnMessage(s.clock, node, msg)
		s.sendAll(node, outgoing)
	default:
		// Intermediate hop of a unicast: keep forwarding along the reverse path.
		forwarded := msg.clone()
		forwarded.Hops++
		if forwarded.TTL--; forwarded.TTL <= 0 {
			s.stats.Expired++
			return
		}
		s.unicastFrom(node, forwarded)
	}
}

// deliverFlood handles a flooded request frame at a node: duplicate
// suppression, reverse-path recording, application callback, DoS rate
// limiting and re-broadcast.
func (s *Simulator) deliverFlood(node *Node, from NodeID, msg *Message) {
	if node.HasSeen(msg.ID) {
		s.stats.Duplicates++
		return
	}
	node.seen[msg.ID] = struct{}{}
	if _, ok := node.reversePath[msg.ID]; !ok {
		node.reversePath[msg.ID] = from
	}

	forward, outgoing := node.handler.OnMessage(s.clock, node, msg)
	s.sendAll(node, outgoing)

	if !forward {
		return
	}
	if msg.TTL <= 1 {
		s.stats.Expired++
		return
	}
	// Per-origin relay rate limiting (DoS defence).
	if s.cfg.RelayRateLimit > 0 {
		if last, ok := node.lastRelay[msg.Origin]; ok && s.clock.Sub(last) < s.cfg.RelayRateLimit {
			s.stats.RateLimited++
			return
		}
		node.lastRelay[msg.Origin] = s.clock
	}
	relay := msg.clone()
	relay.TTL--
	relay.Hops++
	s.broadcastFrom(node, relay, from)
}

// sendAll originates the application's outgoing messages from a node.
func (s *Simulator) sendAll(node *Node, outgoing []*Message) {
	for _, out := range outgoing {
		if out == nil {
			continue
		}
		if out.TTL <= 0 {
			out.TTL = s.cfg.DefaultTTL
		}
		if out.Origin == "" {
			out.Origin = node.ID
		}
		if out.Kind == KindRequest {
			node.seen[out.ID] = struct{}{}
			s.broadcastFrom(node, out, "")
			continue
		}
		s.unicastFrom(node, out)
	}
}

// mobilityTick advances every mobile node toward its waypoint and reschedules
// the next tick.
func (s *Simulator) mobilityTick() {
	for _, id := range s.order {
		n := s.nodes[id]
		if n.speed <= 0 {
			continue
		}
		if reached := n.advanceToward(s.cfg.MobilityInterval); reached {
			n.waypoint = Position{
				X: s.rng.Float64() * s.cfg.Area.X,
				Y: s.rng.Float64() * s.cfg.Area.Y,
			}
		}
	}
	if s.cfg.MobilityInterval > 0 {
		s.schedule(&event{at: s.clock.Add(s.cfg.MobilityInterval)})
	}
}

// RandomWaypoint assigns the node a random waypoint and speed, enabling
// random-waypoint mobility for it.
func (s *Simulator) RandomWaypoint(id NodeID, speed float64) error {
	n, ok := s.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	n.SetSpeed(speed)
	n.waypoint = Position{X: s.rng.Float64() * s.cfg.Area.X, Y: s.rng.Float64() * s.cfg.Area.Y}
	return nil
}

// PlaceUniform places every node uniformly at random inside the area; handy
// for building scenarios.
func (s *Simulator) PlaceUniform() {
	for _, id := range s.order {
		s.nodes[id].pos = Position{X: s.rng.Float64() * s.cfg.Area.X, Y: s.rng.Float64() * s.cfg.Area.Y}
	}
}
