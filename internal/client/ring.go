package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
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
	// TLS, token); its Addr and Dialer fields are ignored.
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
	// Replication is the replica count R for every bottle (zero: 1). It only
	// sizes the intent set — the bottle's top-R rendezvous racks: submits
	// write to it, reads and replies fan out to it merging the answers, and
	// writes that miss a member queue hinted handoff on one that took them
	// (when the backends support it — couriers to replica-enabled racks, or
	// replica.Node backends in-process). R=1 is the same path with a set of
	// one. See docs/PROTOCOL.md §2.10.
	Replication int
}

// rackNode is one rack of the ring with its health state. fails counts
// consecutive rack faults; down flips once fails crosses the threshold and
// back the moment any call (or probe) succeeds. owned marks backends the ring
// dialed itself (and therefore closes). noHints marks a rack that answered a
// Hint by refusing to relay any (it serves without replication); hints stop
// going through it until it is readmitted after an ejection, which may be a
// reconfigured restart.
type rackNode struct {
	idx     int
	name    string
	b       broker.Backend
	fails   atomic.Int32
	down    atomic.Bool
	owned   bool
	noHints atomic.Bool
}

// Ring routes the rendezvous protocol across N rack endpoints behind the
// same broker.Backend surface a single rack offers, so every consumer —
// Sweeper, the scenario runner, loadgen, the examples — scales
// out with zero call-site changes.
//
// Routing:
//
//   - Submits go to the bottle's intent set: the top-R members by
//     rendezvous (highest-random-weight) hash of the package's request ID,
//     extended past ejected members to the next live ones. The hash is
//     deterministic, so independent rings agree on placement.
//   - Every verb runs one list body; a single call is a list of one. A list
//     asks each rack once: a rack given one item gets its single call, a
//     rack given more its list call.
//   - Sweeps fan out to every healthy rack concurrently, each with the
//     sweeper's cursor for it, and merge under the query limit.
//   - Reply, Fetch and Remove go, concurrently, to the live members of the
//     intent set of the untagged ID: the ring keeps no per-ID state. Only
//     when every one of them answers "unknown bottle" does the call try the
//     other healthy racks, in hash order, until one recognizes the bottle —
//     one a submit placed past an ejected member, one a membership change
//     re-ranked, or one this ring never placed. A remove goes on until R
//     racks held it.
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

	// jobs hands fan-out indexes to parked workers (each, fanWorker); parked
	// counts the workers waiting on it, at most fanPark.
	jobs   chan fanJob
	parked atomic.Int32
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
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	r := &Ring{
		failThreshold: cfg.FailThreshold,
		rf:            cfg.Replication,
		courierTmpl:   cfg.Courier,
		closed:        make(chan struct{}),
		jobs:          make(chan fanJob),
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

// Close stops the prober and the parked fan-out workers, and closes the
// backends the ring dialed itself (Addrs mode and AddRackAddr). Supplied
// Backends are left running — they belong to the caller. A worker still
// running a call's job exits when the job is done; a fan-out after Close
// starts workers that exit the same way.
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
// used (and only Put back) by the Sweep call that Got it, after its fan-out
// has been joined, so pooled sets are always empty and unshared.
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
		n.noHints.Store(false)
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

// rank orders nodes by descending rendezvous weight for an ID, ties going to
// the lower rack index; every placement and fallback order reads it. Each
// node is scored once (an insertion sort: rings are a handful of racks). The
// order is built in dst's array when it has the room.
func rank(dst, nodes []*rackNode, id string) []*rackNode {
	out := slices.Grow(dst[:0], len(nodes))[:len(nodes)]
	var small [8]uint64
	scores := small[:]
	if len(nodes) > len(small) {
		scores = make([]uint64, len(nodes))
	}
	for i, n := range nodes {
		s := hrwScore(n.name, id)
		j := i
		for ; j > 0 && (s > scores[j-1] || s == scores[j-1] && n.idx < out[j-1].idx); j-- {
			out[j], scores[j] = out[j-1], scores[j-1]
		}
		out[j], scores[j] = n, s
	}
	return out
}

// Sweep fans the query out to every healthy rack concurrently and merges the
// results under the query limit. Each rack gets the query with its own
// cursors (broker.MemberCursors) and answers with its next one, which the
// merge names after the rack; a rack that does not answer adds none, so the
// sweeper keeps its old cursor there. A page the limit cuts is taken in
// arrival order and its rack's cursor set to the last bottle taken, so the
// rest comes next time. Racks that fault are skipped (and noted against their
// health); the sweep only fails when no rack answered or the context ended.
// Cancellation stops further rack dispatches, cancels the in-flight ones, and
// returns the context error together with the partial merge of whatever racks
// answered in time (bottles from those racks are real — callers may use or
// discard them).
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
		cursors []broker.SweepCursor
		res     broker.SweepResult
		err     error
		// taken counts the page's bottles merged or skipped as copies;
		// stopped marks a page the limit cut.
		taken   int
		stopped bool
	}
	parts := make([]part, len(healthy))
	// One backing holds every member's cursors: each cursor is one member's.
	cursors := make([]broker.SweepCursor, 0, len(q.Cursors))
	for i, n := range healthy {
		from := len(cursors)
		cursors = broker.MemberCursors(cursors, q.Cursors, n.name)
		parts[i].cursors = cursors[from:len(cursors):len(cursors)]
	}
	r.each(len(healthy), func(i int) {
		if err := ctx.Err(); err != nil {
			parts[i].err = err
			return
		}
		mq := q
		mq.Cursors = parts[i].cursors
		parts[i].res, parts[i].err = healthy[i].b.Sweep(ctx, mq)
		r.note(healthy[i], parts[i].err)
	})
	out := broker.SweepResult{Cursors: make([]broker.SweepCursor, 0, len(healthy))}
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
	for _, p := range parts {
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
		slices.SortFunc(p.res.Bottles, func(a, b broker.SweptBottle) int { return cmp.Compare(a.Seq, b.Seq) })
	}
	// The pages are merged in stamp order, each page's bottles in arrival
	// order: a page the limit cuts is then a prefix that ends at a cursor,
	// and since racks stamp by the clock, every page is cut at about the
	// same moment — a bottle two racks hold is taken from one and skipped as
	// a copy on the other in the same sweep, not handed over again later by
	// a rack left behind.
	for {
		next := -1
		for i := range parts {
			p := &parts[i]
			if p.err == nil && !p.stopped && p.taken < len(p.res.Bottles) &&
				(next < 0 || p.res.Bottles[p.taken].Seq < parts[next].res.Bottles[parts[next].taken].Seq) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		p := &parts[next]
		b := p.res.Bottles[p.taken]
		if _, dup := merged[broker.UntagID(b.ID)]; dup {
			r.replicaDedup.Add(1)
		} else if len(out.Bottles) < limit {
			merged[broker.UntagID(b.ID)] = struct{}{}
			out.Bottles = append(out.Bottles, b)
		} else {
			out.Truncated, p.stopped = true, true
			continue
		}
		p.taken++
	}
	for i, p := range parts {
		answer := p.res.Cursors
		switch {
		case p.err != nil:
			continue
		case p.taken == len(p.res.Bottles):
		case p.taken > 0 && len(answer) == 1 && answer[0].Member == "":
			answer = []broker.SweepCursor{{Epoch: answer[0].Epoch, After: p.res.Bottles[p.taken-1].Seq}}
		default:
			// Nothing taken, or a nested ring's page, whose sequences are
			// several racks': the member keeps its cursor.
			answer = nil
		}
		out.Cursors = broker.AppendMemberAnswer(out.Cursors, answer, healthy[i].name)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if answered == 0 {
		return broker.SweepResult{}, firstErr
	}
	return out, nil
}

// Stats aggregates every rack's stats: counters and held totals are summed,
// per-shard snapshots concatenated in rack order, and primes merged. Racks
// that fail to answer are skipped (their failure is noted against their
// health — Stats doubles as a probe); the call only fails when no rack
// answered or the context ended (cancellation stops further rack dispatches
// and returns the context error). Shards reports the cluster-wide sum.
func (r *Ring) Stats(ctx context.Context) (broker.Stats, error) {
	type part struct {
		st  broker.Stats
		err error
	}
	nodes := r.members()
	parts := make([]part, len(nodes))
	r.each(len(nodes), func(i int) {
		if err := ctx.Err(); err != nil {
			parts[i] = part{err: err}
			return
		}
		st, err := nodes[i].b.Stats(ctx)
		r.note(nodes[i], err)
		parts[i] = part{st: st, err: err}
	})
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
		out.Held += p.st.Held
		out.PerShard = append(out.PerShard, p.st.PerShard...)
		addShardStats(&out.Totals, p.st.Totals)
		primes = append(primes, p.st.Primes...)
		out.Recovered += p.st.Recovered
		out.WALBytes += p.st.WALBytes
		out.CursorResets += p.st.CursorResets
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
