// Package replica turns a single bottle rack into a replication-aware member
// of an R-way replicated ring: it implements the server side of the
// replication opcodes (transport.ReplicaHandler) on top of a broker.Rack.
//
// The design is hinted handoff, not consensus. Placement is decided by the
// client ring (rendezvous hashing over the member names); when a write cannot
// reach one of a bottle's replicas, the ring asks a replica that did succeed
// to queue a hint — a handoff record in the write-ahead-log encoding — for
// the unreachable peer. Each node keeps one bounded, deduplicated queue per
// destination and a background streamer that periodically redials the peer
// and delivers the queued records rack-to-rack (OpHandoff). Records apply
// idempotently (duplicate submits, replies to unknown bottles and removes of
// absent bottles are all tolerated), so at-least-once delivery converges
// without coordination; there is no stop-the-world transfer at any point.
//
// Consistency story (see docs/PROTOCOL.md §2.10): replication is
// best-effort/eventual. A reader that observes divergence (a fetch that
// succeeds on some replicas only) triggers read-repair through the same hint
// path; sweeps merge replica answers client-side and deduplicate by bottle
// ID. The only guarantee is convergence of live replicas once connectivity
// returns — exactly the bar the rendezvous broker needs, since bottles are
// soft state with expiry.
package replica

import (
	"context"
	"crypto/tls"
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
)

// Defaults for Config's zero values.
const (
	// DefaultMaxHintsPerDest bounds one destination's hint queue, in records.
	DefaultMaxHintsPerDest = 8192
	// DefaultStreamInterval is the redial cadence of the hint streamer.
	DefaultStreamInterval = 2 * time.Second
	// DefaultStreamBatch is the records-per-OpHandoff ceiling when streaming.
	DefaultStreamBatch = 256
)

// HandoffTarget is a dialed peer the streamer delivers hints to.
// *transport.Mux satisfies it.
type HandoffTarget interface {
	Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error)
	Close() error
}

// Config tunes a Node.
type Config struct {
	// Self is this node's member name (its position in the ring's rendezvous
	// order). Hints addressed to Self apply locally instead of queueing.
	Self string
	// Peers seeds the peer table: member name to dialable address. The table
	// is mutable at runtime (SetPeer/RemovePeer, or remotely via OpPeers).
	Peers map[string]string
	// MaxHintsPerDest bounds each destination's queue, in records; past it
	// the oldest records are shed (zero: DefaultMaxHintsPerDest).
	MaxHintsPerDest int
	// StreamInterval is how often the streamer tries queued destinations
	// (zero: DefaultStreamInterval; negative: no background streamer — tests
	// call Flush explicitly).
	StreamInterval time.Duration
	// StreamBatch caps records per delivery round trip (zero:
	// DefaultStreamBatch).
	StreamBatch int
	// Dial opens a connection to a peer address (nil: a multiplexed
	// transport client with a 10s call timeout, carrying Token/TLS below).
	Dial func(addr string) (HandoffTarget, error)
	// Token is the capability token the default dialer presents to peers —
	// the rack's own identity, minted with replica scope, so hint and handoff
	// streams authenticate rack-to-rack. Ignored when Dial is set.
	Token []byte
	// TLS, when set, makes the default dialer wrap peer connections in TLS.
	// Ignored when Dial is set.
	TLS *tls.Config
}

// hintQueue is one destination's pending handoff records, deduplicated by
// record bytes so a flapping peer doesn't accumulate the same bottle many
// times over.
type hintQueue struct {
	recs []broker.HandoffRecord
	keys map[string]struct{}
}

func recKey(rec broker.HandoffRecord) string {
	return string([]byte{rec.Type}) + rec.Owner + "\x00" + string(rec.Payload)
}

// Node wraps a rack with hint queues and a streamer. It embeds the rack, so
// it serves the full Backend surface in-process, and it implements
// transport.ReplicaHandler for serving over the wire.
type Node struct {
	*broker.Rack
	cfg Config

	mu     sync.Mutex
	queues map[string]*hintQueue
	peers  map[string]string
	stats  broker.ReplicationStats

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Wrap builds a Node over an existing rack. The node takes ownership: its
// Close stops the streamer and closes the rack.
func Wrap(rack *broker.Rack, cfg Config) *Node {
	if cfg.MaxHintsPerDest == 0 {
		cfg.MaxHintsPerDest = DefaultMaxHintsPerDest
	}
	if cfg.StreamInterval == 0 {
		cfg.StreamInterval = DefaultStreamInterval
	}
	if cfg.StreamBatch == 0 {
		cfg.StreamBatch = DefaultStreamBatch
	}
	if cfg.Dial == nil {
		opts := transport.Options{CallTimeout: 10 * time.Second, Token: cfg.Token, TLS: cfg.TLS}
		cfg.Dial = func(addr string) (HandoffTarget, error) {
			return transport.DialMux(addr, opts)
		}
	}
	n := &Node{
		Rack:   rack,
		cfg:    cfg,
		queues: make(map[string]*hintQueue),
		peers:  make(map[string]string),
		closed: make(chan struct{}),
	}
	for name, addr := range cfg.Peers {
		n.peers[name] = addr
	}
	if cfg.StreamInterval > 0 {
		n.wg.Add(1)
		go n.streamer()
	}
	return n
}

// Close stops the streamer and closes the underlying rack.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.closed) })
	n.wg.Wait()
	return n.Rack.Close()
}

// Hint queues handoff records for dest, resolving RecRepair records against
// this rack's own bottles first. Hints addressed to this node apply locally.
// It returns the number of records accepted (queued or applied); the rest
// were shed against the queue bound or named bottles this rack no longer
// holds.
//
// Ownership stamping happens here, on the queueing rack: a RecSubmit's or
// RecRemove's Owner is always the caller's authenticated identity (never the
// client-supplied field — a caller can only queue bottles, and removals, as
// itself), and a RecRepair's resolved copy carries the owner this rack
// recorded at submit time. The destination racks the converged bottle, and
// applies the removal, under that identity, so replication never widens who
// may drain or remove a bottle.
func (n *Node) Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	caller := broker.IdentityFromContext(ctx)
	resolved := make([]broker.HandoffRecord, 0, len(recs))
	for _, rec := range recs {
		if rec.Type != broker.RecRepair {
			if rec.Type == broker.RecSubmit || rec.Type == broker.RecRemove {
				rec.Owner = caller
			}
			if dest != n.cfg.Self {
				// A queued hint outlives the call, and a decoded record
				// aliases the frame it came in: the queue keeps its own
				// copy. Repair records below are built fresh.
				rec.Payload = slices.Clone(rec.Payload)
			}
			resolved = append(resolved, rec)
			continue
		}
		// Read-repair: ship our own copy of the named bottle. A bottle we no
		// longer hold (expired, removed) needs no repair.
		raw, owner, replies, ok := n.Rack.PeekBottle(string(rec.Payload))
		if !ok {
			continue
		}
		resolved = append(resolved, broker.HandoffRecord{Type: broker.RecSubmit, Owner: owner, Payload: raw})
		id := broker.UntagID(string(rec.Payload))
		for _, rep := range replies {
			resolved = append(resolved, broker.HandoffRecord{
				Type: broker.RecReply, Payload: broker.AppendReplyPost(nil, id, rep),
			})
		}
	}
	if dest == n.cfg.Self {
		return n.Handoff(ctx, resolved)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.queues[dest]
	if q == nil {
		q = &hintQueue{keys: make(map[string]struct{})}
		n.queues[dest] = q
	}
	accepted := 0
	for _, rec := range resolved {
		key := recKey(rec)
		if _, dup := q.keys[key]; dup {
			accepted++ // already pending: the hint is covered
			continue
		}
		if len(q.recs) >= n.cfg.MaxHintsPerDest {
			n.stats.HintsDropped++
			continue
		}
		q.keys[key] = struct{}{}
		q.recs = append(q.recs, rec)
		n.stats.HintsQueued++
		accepted++
	}
	return accepted, nil
}

// Handoff applies records handed off by a peer (or hinted to self) with
// Rack.Apply, the function WAL replay uses, and counts what it applied.
// Each record carries its owner, so the relaying peer's identity on ctx
// plays no part.
func (n *Node) Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error) {
	applied, err := n.Rack.Apply(ctx, recs)
	n.mu.Lock()
	n.stats.HandoffApplied += uint64(applied)
	n.mu.Unlock()
	return applied, err
}

// SetPeer maps a member name to a dial address.
func (n *Node) SetPeer(name, addr string) error {
	if name == "" || addr == "" {
		return errors.New("replica: peer name and address must be non-empty")
	}
	n.mu.Lock()
	n.peers[name] = addr
	n.mu.Unlock()
	return nil
}

// RemovePeer drops a member from the peer table along with any hints queued
// for it — a removed member is never coming back under that name.
func (n *Node) RemovePeer(name string) error {
	n.mu.Lock()
	if q := n.queues[name]; q != nil {
		n.stats.HintsDropped += uint64(len(q.recs))
		delete(n.queues, name)
	}
	delete(n.peers, name)
	n.mu.Unlock()
	return nil
}

// Peers snapshots the peer table.
func (n *Node) Peers() map[string]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]string, len(n.peers))
	for k, v := range n.peers {
		out[k] = v
	}
	return out
}

// ReplicaStats snapshots the node's replication counters.
func (n *Node) ReplicaStats() broker.ReplicationStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Pending reports the total records queued across destinations.
func (n *Node) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, q := range n.queues {
		total += len(q.recs)
	}
	return total
}

// streamer periodically tries to deliver every queued destination.
func (n *Node) streamer() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StreamInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.StreamInterval)
			n.Flush(ctx)
			cancel()
		case <-n.closed:
			return
		}
	}
}

// Flush synchronously attempts one delivery pass over every destination with
// queued hints, returning the number of records streamed. Destinations that
// stay unreachable keep their queues; the error is the last dial or delivery
// failure (nil when every queue drained or nothing was pending).
func (n *Node) Flush(ctx context.Context) (int, error) {
	n.mu.Lock()
	dests := make([]string, 0, len(n.queues))
	for dest, q := range n.queues {
		if len(q.recs) > 0 {
			dests = append(dests, dest)
		}
	}
	n.mu.Unlock()
	streamed := 0
	var lastErr error
	for _, dest := range dests {
		sent, err := n.flushDest(ctx, dest)
		streamed += sent
		if err != nil {
			lastErr = err
		}
	}
	return streamed, lastErr
}

// flushDest drains one destination's queue in StreamBatch rounds over a
// single connection.
func (n *Node) flushDest(ctx context.Context, dest string) (int, error) {
	addr := n.dialAddr(dest)
	if addr == "" {
		// No route yet: the peer table doesn't know dest and its name is not
		// itself dialable. Keep the hints; membership may catch up.
		return 0, nil
	}
	target, err := n.cfg.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer target.Close()
	streamed := 0
	for {
		n.mu.Lock()
		q := n.queues[dest]
		if q == nil || len(q.recs) == 0 {
			n.mu.Unlock()
			return streamed, nil
		}
		batch := q.recs
		if len(batch) > n.cfg.StreamBatch {
			batch = batch[:n.cfg.StreamBatch]
		}
		// Copied out so the send happens outside the lock; only this method
		// removes from the front, so the slice stays stable meanwhile.
		batch = append([]broker.HandoffRecord(nil), batch...)
		n.mu.Unlock()
		if _, err := target.Handoff(ctx, batch); err != nil {
			return streamed, err
		}
		n.mu.Lock()
		q.recs = q.recs[len(batch):]
		for _, rec := range batch {
			delete(q.keys, recKey(rec))
		}
		n.stats.HintsStreamed += uint64(len(batch))
		n.mu.Unlock()
		streamed += len(batch)
	}
}

// dialAddr resolves a destination name to a dial address: the peer table
// first, else the name itself when it looks dialable (host:port), else none.
func (n *Node) dialAddr(dest string) string {
	n.mu.Lock()
	addr := n.peers[dest]
	n.mu.Unlock()
	if addr != "" {
		return addr
	}
	if strings.Contains(dest, ":") {
		return dest
	}
	return ""
}
