package client

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/core"
)

// Errors of the ring.
var (
	// ErrNoRacks indicates a RingConfig with no endpoints and no backends.
	ErrNoRacks = errors.New("client: ring needs at least one rack")
	// ErrNoHealthyRacks indicates that every rack is currently ejected.
	ErrNoHealthyRacks = errors.New("client: every rack in the ring is ejected")
)

// Ring defaults.
const (
	// DefaultFailThreshold is the consecutive rack-fault count that ejects a
	// rack from routing.
	DefaultFailThreshold = 3
	// DefaultProbeInterval is the period of the re-admission prober.
	DefaultProbeInterval = 2 * time.Second
	// DefaultIDTableCap bounds the learned ID→rack routing table.
	DefaultIDTableCap = 1 << 16
)

// RingBackend names one pre-built rack backend for RingConfig.Backends.
type RingBackend struct {
	// Name identifies the rack; it is the stable input of the rendezvous
	// hash, so renaming a rack reshuffles which bottles route to it.
	Name string
	// Backend is the rack itself — an in-process *broker.Rack, a *Courier,
	// or even a nested *Ring.
	Backend broker.Backend
}

// RingConfig tunes a Ring. Exactly one of Addrs and Backends must be set.
type RingConfig struct {
	// Addrs lists the rack TCP endpoints; the ring dials one Courier per
	// address and owns (closes) them.
	Addrs []string
	// Courier is the template for per-address couriers (Conns, timeouts,
	// Legacy); its Addr and Dialer fields are ignored.
	Courier Config
	// Backends supplies pre-built backends instead of Addrs — in-process
	// racks, pipe-dialed couriers, nested rings. The ring does not close
	// them.
	Backends []RingBackend
	// FailThreshold is the consecutive rack-fault count that ejects a rack
	// (zero: DefaultFailThreshold).
	FailThreshold int
	// ProbeInterval is the background re-admission probe period for ejected
	// racks (zero: DefaultProbeInterval; negative: no background prober —
	// re-admission then happens only via Probe or a successful fan-out call).
	ProbeInterval time.Duration
	// IDTableCap bounds the learned ID→rack table (zero: DefaultIDTableCap).
	IDTableCap int
	// Replication is the replica count R for every bottle (zero or one: no
	// replication — the original single-placement routing, byte for byte).
	// With R>1 submits fan out to the bottle's top-R rendezvous racks, reads
	// and replies fan out to the same set merging replica answers, and write
	// failures queue hinted handoff on the surviving replicas (when the
	// backends support it — couriers to replica-enabled racks, or
	// replica.Node backends in-process). See docs/PROTOCOL.md §2.10.
	Replication int
}

// rackNode is one rack of the ring with its health state. fails counts
// consecutive rack faults; down flips once fails crosses the threshold and
// back the moment any call (or probe) succeeds. owned marks backends the ring
// dialed itself (and therefore closes); removed marks a node taken out of the
// membership at runtime — stale routing-table references check it and treat
// the node as gone.
type rackNode struct {
	idx     int
	name    string
	b       broker.Backend
	fails   atomic.Int32
	down    atomic.Bool
	owned   bool
	removed atomic.Bool
}

// Ring routes the rendezvous protocol across N rack endpoints behind the
// same broker.Backend surface a single rack offers, so every consumer —
// Sweeper, the msn broker-backed delivery, loadgen, the examples — scales
// out with zero call-site changes.
//
// Routing:
//
//   - Submits route by rendezvous (highest-random-weight) hashing of the
//     package's request ID over the healthy racks; batch submits are grouped
//     per rack and sent as one SubmitBatch each. The hash is deterministic
//     for a fixed healthy set, so independent rings agree on placement.
//   - Sweeps fan out to every healthy rack concurrently and merge in rack
//     order under the query limit.
//   - Reply, Fetch and Remove route through a bounded ID→rack table learned
//     from submit results and sweep fan-out; on a miss the rack-tag prefix
//     of the ID (broker.Config.RackTag) names the owning rack even after a
//     client restart, and as a last resort the call tries the healthy racks
//     in hash order until one recognizes the bottle.
//
// Health: a rack is ejected after FailThreshold consecutive rack faults
// (transport-level failures — per-operation outcomes computed by a rack
// never count, and neither do calls the caller's own context ended) and
// re-admitted by the background prober, by Probe, or by any call that
// happens to succeed against it. A dead rack therefore costs a few failed
// calls and is then routed around until it returns.
//
// Cancellation: fan-out operations stop dispatching to further racks the
// moment the context ends and return the context's error alongside whatever
// partial results the racks that answered produced (per-item outcomes of
// batch operations mark undispatched items with the context's error).
// Already-dispatched rack calls are themselves canceled through the same
// context.
//
// Methods are safe for concurrent use. A Ring itself satisfies the
// canonical Backend surface, so rings compose anywhere a single rack was
// accepted — including as a backend of another ring.
type Ring struct {
	// nodes holds the current membership as an immutable snapshot slice;
	// readers load it lock-free, membership changes (AddRack/RemoveRack)
	// rebuild it under memberMu (copy-on-write).
	nodes    atomic.Pointer[[]*rackNode]
	memberMu sync.Mutex
	nextIdx  int

	failThreshold int
	rf            int
	idTab         *idTable

	tagMu sync.Mutex
	tags  map[string]*rackNode

	// readRepairs and replicaDedup are the ring-side replication counters,
	// folded into Stats (the rack-side counters live on the racks).
	readRepairs  atomic.Uint64
	replicaDedup atomic.Uint64

	// hintsSent counts handoff records successfully queued on a relay for a
	// replica this ring could not write to directly.
	hintsSent atomic.Uint64

	// metrics, when set (RegisterMetrics), records health ejections and
	// readmissions; loaded atomically because registration may race routing.
	metrics atomic.Pointer[ringMetrics]

	courierTmpl Config
	closed      chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup
}

// The ring implements the canonical Backend surface.
var _ broker.Backend = (*Ring)(nil)

// NewRing builds a ring over the configured racks. With Addrs the couriers
// are dialed lazily, so NewRing succeeds while racks are still starting; the
// first operations report (and eject on) dial failures.
func NewRing(cfg RingConfig) (*Ring, error) {
	if (len(cfg.Addrs) == 0) == (len(cfg.Backends) == 0) {
		if len(cfg.Addrs) == 0 {
			return nil, ErrNoRacks
		}
		return nil, errors.New("client: RingConfig wants exactly one of Addrs and Backends")
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.IDTableCap <= 0 {
		cfg.IDTableCap = DefaultIDTableCap
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	r := &Ring{
		failThreshold: cfg.FailThreshold,
		rf:            cfg.Replication,
		idTab:         newIDTable(cfg.IDTableCap),
		tags:          make(map[string]*rackNode),
		courierTmpl:   cfg.Courier,
		closed:        make(chan struct{}),
	}
	var nodes []*rackNode
	if len(cfg.Addrs) > 0 {
		for i, addr := range cfg.Addrs {
			c, err := r.dialCourier(addr)
			if err != nil {
				for _, n := range nodes {
					n.b.(*Courier).Close()
				}
				return nil, fmt.Errorf("client: ring rack %s: %w", addr, err)
			}
			nodes = append(nodes, &rackNode{idx: i, name: addr, b: c, owned: true})
		}
	} else {
		for i, be := range cfg.Backends {
			if be.Backend == nil {
				return nil, fmt.Errorf("client: ring backend %d is nil", i)
			}
			name := be.Name
			if name == "" {
				name = fmt.Sprintf("rack-%d", i)
			}
			nodes = append(nodes, &rackNode{idx: i, name: name, b: be.Backend})
		}
	}
	r.nextIdx = len(nodes)
	r.nodes.Store(&nodes)
	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.prober(cfg.ProbeInterval)
	}
	return r, nil
}

// dialCourier builds one owned courier from the ring's template.
func (r *Ring) dialCourier(addr string) (*Courier, error) {
	ccfg := r.courierTmpl
	ccfg.Addr = addr
	ccfg.Dialer = nil
	return Dial(ccfg)
}

// members snapshots the current membership; the returned slice is immutable.
func (r *Ring) members() []*rackNode {
	return *r.nodes.Load()
}

// Close stops the prober and closes the backends the ring dialed itself
// (Addrs mode and AddRackAddr). Supplied Backends are left running — they
// belong to the caller.
func (r *Ring) Close() error {
	r.closeOnce.Do(func() { close(r.closed) })
	r.wg.Wait()
	for _, n := range r.members() {
		if !n.owned {
			continue
		}
		if c, ok := n.b.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	return nil
}

// sweepMergeSets pools Sweep's per-call replica-dedup sets. A set is only
// used (and only Put back) by the Sweep call that Got it, after the fan-out
// goroutines have been joined, so pooled sets are always empty and unshared.
var sweepMergeSets = sync.Pool{
	New: func() any { return make(map[string]struct{}, broker.DefaultSweepLimit) },
}

// rackFault reports whether err indicates the rack endpoint itself failed
// (dial/transport failure, rack closed) rather than a per-operation outcome
// the rack computed and answered, or a call the caller itself abandoned.
// Only faults count toward ejection. The wire error codes keep this check
// structural: a decoded sentinel or a RemoteError means the rack answered —
// not a fault — with no error-text inspection anywhere.
func rackFault(err error) bool {
	if err == nil {
		return false
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return false // the rack executed and answered
	}
	var ab *transport.AbandonedError
	if errors.As(err, &ab) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false // the caller's bound fired, not the rack
	}
	switch {
	case errors.Is(err, broker.ErrUnknownBottle),
		errors.Is(err, broker.ErrDuplicateBottle),
		errors.Is(err, broker.ErrBadQuery),
		errors.Is(err, broker.ErrFetchBudget),
		errors.Is(err, core.ErrExpired),
		errors.Is(err, core.ErrMalformedPackage),
		errors.Is(err, ErrCourierClosed):
		return false // in-process racks return these unwrapped
	case errors.Is(err, broker.ErrUnauthorized),
		errors.Is(err, broker.ErrOverload),
		errors.Is(err, broker.ErrDraining):
		// Definitive admission answers: a rack shedding one identity's flood
		// (or refusing an imposter) is healthy — ejecting it would let an
		// attacker take racks out of the ring by being refused. A draining
		// rack likewise: it is still serving sweeps, replies and the replica
		// stream, so it stays in the ring while handoff hints migrate new
		// writes to the surviving replicas.
		return false
	}
	var we *broker.WireError
	if errors.As(err, &we) {
		return false // a coded per-item outcome decoded off the wire
	}
	return true
}

// note records one call outcome against a rack's health. The CompareAndSwap
// on the down flag makes the ejection/readmission transitions observable
// exactly once each, so the metrics count state changes, not samples.
func (r *Ring) note(n *rackNode, err error) {
	if rackFault(err) {
		if n.fails.Add(1) >= int32(r.failThreshold) && n.down.CompareAndSwap(false, true) {
			if m := r.metrics.Load(); m != nil {
				m.ejections.Inc()
			}
		}
		return
	}
	n.fails.Store(0)
	if n.down.CompareAndSwap(true, false) {
		if m := r.metrics.Load(); m != nil {
			m.readmissions.Inc()
		}
	}
}

// healthy returns the racks currently admitted to routing, in rack order.
func (r *Ring) healthy() []*rackNode {
	nodes := r.members()
	out := make([]*rackNode, 0, len(nodes))
	for _, n := range nodes {
		if !n.down.Load() {
			out = append(out, n)
		}
	}
	return out
}

// hrwScore is the rendezvous-hash weight of a (rack, id) pair.
func hrwScore(name, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return h.Sum64()
}

// pickHRW returns the highest-random-weight rack for an ID among nodes.
func pickHRW(nodes []*rackNode, id string) *rackNode {
	var best *rackNode
	var bestScore uint64
	for _, n := range nodes {
		if s := hrwScore(n.name, id); best == nil || s > bestScore || (s == bestScore && n.idx < best.idx) {
			best, bestScore = n, s
		}
	}
	return best
}

// sortHRW orders nodes by descending rendezvous weight for an ID, so routed
// fan-outs try racks in a deterministic, placement-aware order.
func sortHRW(nodes []*rackNode, id string) []*rackNode {
	out := append([]*rackNode(nil), nodes...)
	sort.SliceStable(out, func(i, j int) bool {
		return hrwScore(out[i].name, id) > hrwScore(out[j].name, id)
	})
	return out
}

// learn records that a rack handed out (or recognized) an ID: the untagged
// ID goes into the bounded routing table and the tag prefix, if any, is
// remembered as naming that rack.
func (r *Ring) learn(n *rackNode, id string) {
	tag, rest := broker.SplitTaggedID(id)
	r.idTab.put(rest, n)
	if tag != "" {
		r.tagMu.Lock()
		// The tag set is racks-sized in practice; the cap only guards against
		// a misbehaving rack minting unbounded tags.
		if len(r.tags) < 4096 {
			r.tags[tag] = n
		}
		r.tagMu.Unlock()
	}
}

// tagNode resolves a learned rack tag; nodes removed from the membership no
// longer resolve.
func (r *Ring) tagNode(tag string) *rackNode {
	r.tagMu.Lock()
	defer r.tagMu.Unlock()
	if n := r.tags[tag]; n != nil && !n.removed.Load() {
		return n
	}
	return nil
}

// candidates orders the racks to try for an already-issued ID: the learned
// table entry first, then the rack named by the ID's tag prefix, then the
// remaining healthy racks in rendezvous-hash order of the untagged ID (which
// is where an untagged submit would have placed it).
func (r *Ring) candidates(id string) []*rackNode {
	tag, rest := broker.SplitTaggedID(id)
	nodes := r.members()
	out := make([]*rackNode, 0, len(nodes))
	seen := make(map[*rackNode]bool, len(nodes))
	add := func(n *rackNode) {
		if n != nil && !n.removed.Load() && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if n, ok := r.idTab.get(rest); ok {
		add(n)
	}
	if tag != "" {
		add(r.tagNode(tag))
	}
	for _, n := range sortHRW(r.healthy(), rest) {
		add(n)
	}
	return out
}

// Submit routes a marshalled request package to the rendezvous-hashed
// healthy rack and returns the (rack-tagged, when so configured) request ID
// it is held under.
func (r *Ring) Submit(ctx context.Context, raw []byte) (string, error) {
	pkg, err := core.UnmarshalPackage(raw)
	if err != nil {
		return "", err
	}
	if r.rf > 1 {
		return r.submitReplicated(ctx, raw, pkg.ID)
	}
	healthy := r.healthy()
	if len(healthy) == 0 {
		return "", ErrNoHealthyRacks
	}
	n := pickHRW(healthy, pkg.ID)
	id, err := n.b.Submit(ctx, raw)
	r.note(n, err)
	if err != nil {
		return "", err
	}
	r.learn(n, id)
	return id, nil
}

// SubmitBatch groups the packages by their rendezvous-hashed rack and sends
// one SubmitBatch per rack, concurrently. Outcomes are per item, in order; a
// rack call that faults marks all of that rack's items with the fault. The
// call itself only fails when every rack is ejected or the context ends —
// cancellation stops further rack dispatches (their items carry the context
// error) and returns the context error alongside the partial outcomes.
func (r *Ring) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	if r.rf > 1 {
		return r.submitBatchReplicated(ctx, raws)
	}
	healthy := r.healthy()
	if len(healthy) == 0 {
		return nil, ErrNoHealthyRacks
	}
	results := make([]broker.SubmitResult, len(raws))
	groups := make(map[*rackNode][]int)
	for i, raw := range raws {
		pkg, err := core.UnmarshalPackage(raw)
		if err != nil {
			results[i].Err = err
			continue
		}
		n := pickHRW(healthy, pkg.ID)
		groups[n] = append(groups[n], i)
	}
	var wg sync.WaitGroup
	var ctxErr error
	for n, idxs := range groups {
		if ctxErr = ctx.Err(); ctxErr != nil {
			for _, i := range idxs {
				results[i] = broker.SubmitResult{Err: ctxErr}
			}
			continue
		}
		wg.Add(1)
		go func(n *rackNode, idxs []int) {
			defer wg.Done()
			sub := make([][]byte, len(idxs))
			for j, i := range idxs {
				sub[j] = raws[i]
			}
			rs, err := n.b.SubmitBatch(ctx, sub)
			r.note(n, err)
			if err != nil {
				for _, i := range idxs {
					results[i] = broker.SubmitResult{Err: err}
				}
				return
			}
			for j, i := range idxs {
				results[i] = rs[j]
				if rs[j].Err == nil {
					r.learn(n, rs[j].ID)
				}
			}
		}(n, idxs)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, ctxErr
}

// Sweep fans the query out to every healthy rack concurrently and merges the
// results in rack order under the query limit. Racks that fault are skipped
// (and noted against their health); the sweep only fails when no rack
// answered or the context ended. Cancellation stops further rack dispatches,
// cancels the in-flight ones, and returns the context error together with
// the partial merge of whatever racks answered in time (bottles from those
// racks are real and already learned into the routing table — callers may
// use or discard them). Each returned bottle teaches the routing table which
// rack holds it, which is what lets the subsequent replies route without
// fan-out. The result asks for a resync when any rack did: a member that
// missed sweeps (ejected, restarted) no longer holds the sweeper's window at
// the query's base. It is marked partial when a rack that was asked did not
// answer, so that the sweeper's next query brings that rack's window up to
// date by itself.
func (r *Ring) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	healthy := r.healthy()
	if len(healthy) == 0 {
		return broker.SweepResult{}, ErrNoHealthyRacks
	}
	limit := q.Limit
	if limit <= 0 {
		limit = broker.DefaultSweepLimit
	}
	type part struct {
		res broker.SweepResult
		err error
	}
	parts := make([]part, len(healthy))
	var wg sync.WaitGroup
	var ctxErr error
	for i, n := range healthy {
		if ctxErr = ctx.Err(); ctxErr != nil {
			parts[i] = part{err: ctxErr}
			continue
		}
		wg.Add(1)
		go func(i int, n *rackNode) {
			defer wg.Done()
			res, err := n.b.Sweep(ctx, q)
			r.note(n, err)
			parts[i] = part{res: res, err: err}
		}(i, n)
	}
	wg.Wait()
	var out broker.SweepResult
	var firstErr error
	answered := 0
	// Replicated racks can return the same bottle from several members (the
	// rack tags differ, the bottle is one); merge on the untagged ID so the
	// caller sees each bottle once. With R=1 the set is simply never hit.
	// The set is pooled: a steady-state sweeper otherwise re-grows this map
	// to thousands of entries every tick.
	merged := sweepMergeSets.Get().(map[string]struct{})
	defer func() {
		clear(merged)
		sweepMergeSets.Put(merged)
	}()
	for i, p := range parts {
		if p.err != nil {
			if firstErr == nil {
				firstErr = p.err
			}
			continue
		}
		answered++
		out.Scanned += p.res.Scanned
		out.Rejected += p.res.Rejected
		out.Truncated = out.Truncated || p.res.Truncated
		// One rack without the sweeper's window makes the whole sweep a
		// resync: the sweeper keeps one base for all racks, and its full
		// resend brings every rack back to it.
		out.Resync = out.Resync || p.res.Resync
		for _, b := range p.res.Bottles {
			if _, dup := merged[broker.UntagID(b.ID)]; dup {
				r.replicaDedup.Add(1)
				continue
			}
			merged[broker.UntagID(b.ID)] = struct{}{}
			r.learn(healthy[i], b.ID)
			if len(out.Bottles) >= limit {
				out.Truncated = true
				continue
			}
			out.Bottles = append(out.Bottles, b)
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if answered == 0 {
		return broker.SweepResult{}, firstErr
	}
	out.Partial = answered < len(parts)
	return out, nil
}

// routed runs one ID-addressed operation against the candidate racks in
// order until one recognizes the bottle. op returns the rack's error;
// unknown-bottle and rack-fault outcomes fall through to the next candidate,
// any other (validation) error is definitive. When every candidate misses,
// a fault observed along the way wins over a trailing unknown-bottle: the
// unreachable rack may hold the bottle, and "unknown" would read as a
// definitive broker answer — the Sweeper, for one, drops (rather than
// queues) replies on definitive answers, so masking the fault would lose
// the reply exactly the way the pre-PR-4 sweeper did.
func (r *Ring) routed(ctx context.Context, id string, op func(n *rackNode) error) error {
	cands := r.candidates(id)
	if len(cands) == 0 {
		return ErrNoHealthyRacks
	}
	var lastErr, faultErr error
	for _, n := range cands {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(n)
		r.note(n, err)
		if err == nil {
			r.learn(n, id)
			return nil
		}
		lastErr = err
		if rackFault(err) {
			if faultErr == nil {
				faultErr = err
			}
			continue
		}
		if errors.Is(err, broker.ErrUnknownBottle) {
			continue
		}
		return err
	}
	if faultErr != nil {
		return faultErr
	}
	return lastErr
}

// primaryFor returns the first-choice rack for an already-issued ID without
// building the full candidate ordering — the batch paths group thousands of
// items and only need the head; the full fan-out is reserved for their
// per-item retry fallback. Nil when every rack is ejected and the ID is
// unlearned.
func (r *Ring) primaryFor(id string) *rackNode {
	tag, rest := broker.SplitTaggedID(id)
	if n, ok := r.idTab.get(rest); ok && !n.removed.Load() {
		return n
	}
	if tag != "" {
		if n := r.tagNode(tag); n != nil {
			return n
		}
	}
	healthy := r.healthy()
	if len(healthy) == 0 {
		return nil
	}
	return pickHRW(healthy, rest)
}

// Reply posts a marshalled reply to whichever rack holds the addressed
// bottle.
func (r *Ring) Reply(ctx context.Context, requestID string, raw []byte) error {
	if r.rf > 1 {
		return r.replyReplicated(ctx, requestID, raw)
	}
	return r.routed(ctx, requestID, func(n *rackNode) error {
		return n.b.Reply(ctx, requestID, raw)
	})
}

// Fetch drains the replies queued for a request from the rack holding it.
func (r *Ring) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	if r.rf > 1 {
		return r.fetchReplicated(ctx, requestID)
	}
	var out [][]byte
	err := r.routed(ctx, requestID, func(n *rackNode) error {
		raws, err := n.b.Fetch(ctx, requestID)
		if err == nil {
			out = raws
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Remove takes the bottle off whichever rack holds it; it reports whether
// any rack held it. When a rack faulted mid-search the fault is returned —
// the bottle may live on the unreachable rack, and a clean held=false would
// misreport that ambiguity.
func (r *Ring) Remove(ctx context.Context, requestID string) (bool, error) {
	if r.rf > 1 {
		return r.removeReplicated(ctx, requestID)
	}
	cands := r.candidates(requestID)
	if len(cands) == 0 {
		return false, ErrNoHealthyRacks
	}
	var faultErr error
	for _, n := range cands {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		held, err := n.b.Remove(ctx, requestID)
		r.note(n, err)
		if err == nil {
			if held {
				_, rest := broker.SplitTaggedID(requestID)
				r.idTab.del(rest)
				return true, nil
			}
			continue
		}
		if rackFault(err) {
			if faultErr == nil {
				faultErr = err
			}
			continue
		}
		if errors.Is(err, broker.ErrUnknownBottle) {
			continue
		}
		return false, err
	}
	return false, faultErr
}

// ReplyBatch groups the posts by their routed rack and sends one ReplyBatch
// per rack concurrently; posts whose routed rack does not recognize the
// bottle (stale table entry) or faulted fall back to individually routed
// replies. Outcomes are per item, in order. Cancellation stops further rack
// dispatches and the per-item fallback round; affected items carry the
// context's error, which is also returned.
func (r *Ring) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	if len(posts) == 0 {
		return nil, nil
	}
	if r.rf > 1 {
		return r.replyBatchReplicated(ctx, posts)
	}
	errs := make([]error, len(posts))
	groups := make(map[*rackNode][]int)
	for i, p := range posts {
		n := r.primaryFor(p.RequestID)
		if n == nil {
			errs[i] = ErrNoHealthyRacks
			continue
		}
		groups[n] = append(groups[n], i)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var retry []int
	var ctxErr error
	for n, idxs := range groups {
		if ctxErr = ctx.Err(); ctxErr != nil {
			for _, i := range idxs {
				errs[i] = ctxErr
			}
			continue
		}
		wg.Add(1)
		go func(n *rackNode, idxs []int) {
			defer wg.Done()
			sub := make([]broker.ReplyPost, len(idxs))
			for j, i := range idxs {
				sub[j] = posts[i]
			}
			rs, err := n.b.ReplyBatch(ctx, sub)
			r.note(n, err)
			if err != nil {
				mu.Lock()
				retry = append(retry, idxs...)
				mu.Unlock()
				return
			}
			var misses []int
			for j, i := range idxs {
				if rs[j] != nil && errors.Is(rs[j], broker.ErrUnknownBottle) {
					misses = append(misses, i)
					continue
				}
				errs[i] = rs[j]
			}
			if len(misses) > 0 {
				mu.Lock()
				retry = append(retry, misses...)
				mu.Unlock()
			}
		}(n, idxs)
	}
	wg.Wait()
	for _, i := range retry {
		errs[i] = r.Reply(ctx, posts[i].RequestID, posts[i].Raw)
	}
	if err := ctx.Err(); err != nil {
		return errs, err
	}
	return errs, nil
}

// FetchBatch groups the IDs by their routed rack and sends one FetchBatch
// per rack concurrently; IDs the routed rack does not recognize (stale table
// entry) or whose rack faulted fall back to individually routed fetches.
// Outcomes are per item, in order. Cancellation stops further rack
// dispatches and the per-item fallback round; affected items carry the
// context's error (their queues stay intact), which is also returned.
func (r *Ring) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	if r.rf > 1 {
		return r.fetchBatchReplicated(ctx, ids)
	}
	results := make([]broker.FetchResult, len(ids))
	groups := make(map[*rackNode][]int)
	for i, id := range ids {
		n := r.primaryFor(id)
		if n == nil {
			results[i].Err = ErrNoHealthyRacks
			continue
		}
		groups[n] = append(groups[n], i)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var retry []int
	var ctxErr error
	for n, idxs := range groups {
		if ctxErr = ctx.Err(); ctxErr != nil {
			for _, i := range idxs {
				results[i].Err = ctxErr
			}
			continue
		}
		wg.Add(1)
		go func(n *rackNode, idxs []int) {
			defer wg.Done()
			sub := make([]string, len(idxs))
			for j, i := range idxs {
				sub[j] = ids[i]
			}
			rs, err := n.b.FetchBatch(ctx, sub)
			r.note(n, err)
			if err != nil {
				mu.Lock()
				retry = append(retry, idxs...)
				mu.Unlock()
				return
			}
			var misses []int
			for j, i := range idxs {
				if rs[j].Err != nil && errors.Is(rs[j].Err, broker.ErrUnknownBottle) {
					misses = append(misses, i)
					continue
				}
				results[i] = rs[j]
			}
			if len(misses) > 0 {
				mu.Lock()
				retry = append(retry, misses...)
				mu.Unlock()
			}
		}(n, idxs)
	}
	wg.Wait()
	for _, i := range retry {
		results[i].Replies, results[i].Err = r.Fetch(ctx, ids[i])
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// Stats aggregates every rack's stats: counters and held totals are summed,
// per-shard snapshots concatenated in rack order, and primes merged. Racks
// that fail to answer are skipped (their failure is noted against their
// health — Stats doubles as a probe); the call only fails when no rack
// answered or the context ended (cancellation stops further rack dispatches
// and returns the context error). Shards and Workers report cluster-wide
// sums.
func (r *Ring) Stats(ctx context.Context) (broker.Stats, error) {
	type part struct {
		st  broker.Stats
		err error
	}
	nodes := r.members()
	parts := make([]part, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		if err := ctx.Err(); err != nil {
			parts[i] = part{err: err}
			continue
		}
		wg.Add(1)
		go func(i int, n *rackNode) {
			defer wg.Done()
			st, err := n.b.Stats(ctx)
			r.note(n, err)
			parts[i] = part{st: st, err: err}
		}(i, n)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return broker.Stats{}, err
	}
	var out broker.Stats
	var firstErr error
	answered := 0
	var primes []uint32
	for _, p := range parts {
		if p.err != nil {
			if firstErr == nil {
				firstErr = p.err
			}
			continue
		}
		answered++
		out.Shards += p.st.Shards
		out.Workers += p.st.Workers
		out.Held += p.st.Held
		out.PerShard = append(out.PerShard, p.st.PerShard...)
		addShardStats(&out.Totals, p.st.Totals)
		primes = append(primes, p.st.Primes...)
		out.Recovered += p.st.Recovered
		out.WALBytes += p.st.WALBytes
		out.Replication.Add(p.st.Replication)
	}
	if answered == 0 {
		return broker.Stats{}, firstErr
	}
	out.Primes = core.MergePrimes(primes...)
	out.Replication.ReadRepairs += r.readRepairs.Load()
	out.Replication.ReplicaDedup += r.replicaDedup.Load()
	return out, nil
}

// addShardStats accumulates src into dst field by field.
func addShardStats(dst *broker.ShardStats, src broker.ShardStats) {
	dst.Held += src.Held
	dst.Submitted += src.Submitted
	dst.Duplicates += src.Duplicates
	dst.Expired += src.Expired
	dst.Sweeps += src.Sweeps
	dst.Scanned += src.Scanned
	dst.Rejected += src.Rejected
	dst.Returned += src.Returned
	dst.RepliesIn += src.RepliesIn
	dst.RepliesOut += src.RepliesOut
	dst.RepliesDropped += src.RepliesDropped
}

// RackHealth is one rack's health snapshot.
type RackHealth struct {
	// Name is the rack's configured name (its address in Addrs mode).
	Name string
	// Down reports the rack is ejected from routing.
	Down bool
	// ConsecutiveFails is the current run of rack faults.
	ConsecutiveFails int
}

// Health snapshots every rack's health, in rack order.
func (r *Ring) Health() []RackHealth {
	nodes := r.members()
	out := make([]RackHealth, len(nodes))
	for i, n := range nodes {
		out[i] = RackHealth{Name: n.name, Down: n.down.Load(), ConsecutiveFails: int(n.fails.Load())}
	}
	return out
}

// ringProbeID is the deliberately unknown request ID health probes fetch: a
// live rack answers ErrUnknownBottle (not a fault), a dead one errors at the
// transport.
const ringProbeID = "ring-health-probe"

// Probe synchronously probes every ejected rack once, re-admitting the ones
// that answer. The background prober calls this on its interval; tests and
// deployments that disabled the prober call it directly.
func (r *Ring) Probe(ctx context.Context) {
	for _, n := range r.members() {
		if ctx.Err() != nil {
			return
		}
		if !n.down.Load() {
			continue
		}
		_, err := n.b.Fetch(ctx, ringProbeID)
		r.note(n, err)
	}
}

// prober re-admits recovered racks until the ring closes.
func (r *Ring) prober(interval time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.Probe(context.Background())
		case <-r.closed:
			return
		}
	}
}

// idTable is the bounded ID→rack routing table: a map plus a FIFO eviction
// ring. Entries are learned from submit results and sweep fan-out; eviction
// of a live entry is harmless — routing falls back to the ID's tag prefix
// and then to hash-ordered fan-out.
type idTable struct {
	mu   sync.Mutex
	cap  int
	m    map[string]*rackNode
	keys []string
	pos  int
}

func newIDTable(cap int) *idTable {
	return &idTable{cap: cap, m: make(map[string]*rackNode, cap/4)}
}

func (t *idTable) put(id string, n *rackNode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[id]; ok {
		t.m[id] = n
		return
	}
	if len(t.keys) < t.cap {
		t.keys = append(t.keys, id)
	} else {
		delete(t.m, t.keys[t.pos])
		t.keys[t.pos] = id
		t.pos = (t.pos + 1) % t.cap
	}
	t.m[id] = n
}

func (t *idTable) get(id string) (*rackNode, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.m[id]
	return n, ok
}

func (t *idTable) del(id string) {
	t.mu.Lock()
	delete(t.m, id)
	t.mu.Unlock()
}
