// Package broker implements the "bottle rack": a concurrent store-and-forward
// rendezvous service for sealed-bottle requests. Initiators submit marshalled
// core.RequestPackages; candidates sweep the rack with residue presence sets
// (the public remainder-vector prefilter of Section III-C1) and receive only
// the bottles they could plausibly open, which they then evaluate locally
// with the full core.Matcher machinery; repliers post marshalled core.Reply
// frames that the initiator fetches later. The broker never sees a profile
// vector, a profile key or a plaintext — it holds exactly the public request
// package plus residue sets, the same view any relay in the paper's mobile
// social network has.
//
// The rack is sharded (power-of-two shard count, one mutex per shard) so
// submissions scale across cores, and a sweep's caller scans shards itself
// while idle workers of a fixed pool claim the rest, so a single large query
// is served by every idle core and none waits behind another's queue. Expiry
// is lazy (expired bottles are skipped and unlinked as sweeps encounter them)
// with a background reaper closing the long tail.
//
// Racks are in-memory by default; Config.Durability backs one with the
// write-ahead log and snapshots of internal/broker/wal, in which case Open
// recovers the previous state on startup (see durability.go and
// docs/PROTOCOL.md for the record and snapshot formats). The durability
// hook costs the in-memory path nothing: a nil hook leaves every operation
// exactly as before.
package broker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sealedbottle/internal/core"
)

// Defaults for Config fields left zero.
const (
	DefaultShards       = 16
	DefaultSweepLimit   = 256
	DefaultReapInterval = 5 * time.Second
	// DefaultMaxReplies bounds the reply queue per request; repliers beyond it
	// are dropped (and counted) rather than allowed to exhaust memory — the
	// broker-side analogue of the paper's ack-set cardinality screen.
	DefaultMaxReplies = 1024
)

// Errors returned by rack operations.
var (
	// ErrRackClosed indicates the rack has been shut down.
	ErrRackClosed = errors.New("broker: rack closed")
	// ErrDuplicateBottle indicates a submission reusing a held request ID.
	ErrDuplicateBottle = errors.New("broker: duplicate bottle id")
	// ErrUnknownBottle indicates a reply or fetch for an ID not on the rack.
	ErrUnknownBottle = errors.New("broker: unknown bottle id")
	// ErrBadQuery indicates a sweep query with no valid residue sets.
	ErrBadQuery = errors.New("broker: sweep query has no valid residue sets")
	// ErrUnauthorized indicates the caller's identity does not permit the
	// operation: a missing or invalid capability token, an op outside the
	// token's scope, or an attempt to Fetch/Remove/Reply against another
	// identity's bottle. It is a definitive broker answer, never a rack
	// fault — the ring must not eject a rack for refusing an imposter.
	ErrUnauthorized = errors.New("broker: unauthorized")
	// ErrOverload indicates per-identity admission shed the call before it
	// touched a shard. It is backpressure, not failure: the caller should
	// retry after a pause, and the ring's health accounting ignores it.
	ErrOverload = errors.New("broker: identity over admission quota, retry later")
	// ErrDraining indicates the rack is draining: client submits are refused
	// while sweeps, replies, fetches and the replica stream keep serving, so
	// in-flight rendezvous complete and the ring migrates new writes to the
	// surviving replicas. Like ErrOverload it is a definitive answer, not a
	// rack fault — the replicated ring routes around it via handoff hints
	// without ejecting the rack.
	ErrDraining = errors.New("broker: rack draining, submits refused")
)

// Config tunes a Rack.
type Config struct {
	// Shards is the shard count; it is rounded up to a power of two
	// (zero: DefaultShards).
	Shards int
	// Workers sizes the pool that helps sweeps and bounds the goroutines
	// scanning one sweep: its caller scans shards itself, and up to
	// Workers-1 idle workers claim shards beside it (zero: GOMAXPROCS).
	Workers int
	// ReapInterval is the background reaper period (zero: default; negative:
	// no background reaper, expiry is purely lazy).
	ReapInterval time.Duration
	// MaxRepliesPerBottle bounds each bottle's reply queue (zero: default).
	MaxRepliesPerBottle int
	// Now supplies the clock (nil: time.Now); injected by tests and by the
	// discrete-event simulator so expiry follows simulated time.
	Now func() time.Time
	// RackTag, when non-empty, prefixes every ID the rack hands out (Submit
	// results, swept bottle IDs) with "tag@", and the rack strips its own tag
	// from inbound IDs (Reply/Fetch/Remove targets, sweep Seen lists). The tag
	// is a pure routing hint for multi-rack deployments: a cluster router can
	// recover which rack holds a bottle from the ID alone, even after losing
	// its routing table to a restart. Internally — ID index, WAL, snapshots —
	// bottles are always keyed by the untagged ID, so turning tagging on or
	// off never invalidates a durable rack's on-disk state. Tags must satisfy
	// ValidateTag ([A-Za-z0-9._-], at most MaxTagLen bytes).
	RackTag string
	// Durability, when non-nil, backs the rack with a write-ahead log and
	// snapshots under DurabilityConfig.Dir; Open then recovers the previous
	// state on startup. Nil keeps the rack purely in-memory with zero
	// durability overhead. Racks with durability must be built with Open
	// (recovery can fail); New panics on such configs' errors.
	Durability *DurabilityConfig
}

// withDefaults fills unset fields and normalizes the shard count.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ReapInterval == 0 {
		c.ReapInterval = DefaultReapInterval
	}
	if c.MaxRepliesPerBottle <= 0 {
		c.MaxRepliesPerBottle = DefaultMaxReplies
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Rack is the concurrent bottle rack. All methods are safe for concurrent
// use; Close releases the worker pool and reaper.
type Rack struct {
	cfg    Config
	mask   uint64
	shards []*shard

	// dur and recovered are set once by Open (before the rack serves) and
	// never change: nil/zero on in-memory racks.
	dur       *durability
	recovered uint64

	// windows holds the sweepers' exclusion windows (window.go).
	windows *windowTable

	// jobs hands a sweep to an idle worker; unbuffered, so a post never
	// waits for a busy one.
	jobs    chan *sweepRun
	closed  chan struct{}
	closeMu sync.Mutex
	done    bool
	wg      sync.WaitGroup
}

// sweepRun is what the scanners of one sweep — its caller and the workers
// helping it — share. They claim shards through next, each index once, and
// write each shard's result into parts at its index. seen is the query's
// exclusion window, read-only while they scan; remaining is the query's
// collection budget — shards reserve slots from it and stop scanning once it
// is spent, so one sweep never collects more than Limit bottles across the
// whole rack.
type sweepRun struct {
	q         SweepQuery
	seen      *SeenWindow
	now       time.Time
	remaining atomic.Int64
	shards    []*shard
	next      atomic.Int64
	parts     []shardSweep

	// pending counts the shards not yet reported; the report that takes it
	// to zero closes done and frees held, the window the rack keeps, if any:
	// Sweep returns early on cancellation, and the window must not take the
	// next delta while an abandoned claim still reads it.
	pending atomic.Int64
	done    chan struct{}
	held    *heldWindow
}

// scan claims shards and screens them until none is left to claim or ctx
// ends, reporting each one it screened.
func (run *sweepRun) scan(ctx context.Context) {
	for ctx.Err() == nil {
		i := run.next.Add(1) - 1
		if i >= int64(len(run.shards)) {
			return
		}
		run.parts[i] = run.shards[i].sweep(&run.q, run.seen, run.now, &run.remaining)
		run.reported(1)
	}
}

// reported accounts n shards as screened (or never to be) and, after the
// last, frees the held window and closes done.
func (run *sweepRun) reported(n int64) {
	if run.pending.Add(-n) == 0 {
		if run.held != nil {
			<-run.held.busy
		}
		close(run.done)
	}
}

// cancel stops the run: in-flight claims stop at their next passing bottle,
// and the shards nobody claimed yet are claimed here and reported unscanned.
func (run *sweepRun) cancel() {
	run.remaining.Store(0)
	n := int64(len(run.shards))
	if claimed := run.next.Swap(n); claimed < n {
		run.reported(n - claimed)
	}
}

// New builds a rack and starts its worker pool and (unless disabled) reaper.
// It panics if the config's durability setup fails; durable racks should use
// Open, whose error is the disk's to give.
func New(cfg Config) *Rack {
	r, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("broker.New: %v (use broker.Open for durable racks)", err))
	}
	return r
}

// Open builds a rack, recovering prior state from the durability directory
// when the config asks for it, and starts its worker pool, reaper and
// (when configured) periodic snapshot loop.
func Open(cfg Config) (*Rack, error) {
	cfg = cfg.withDefaults()
	if err := ValidateTag(cfg.RackTag); err != nil {
		return nil, err
	}
	r := &Rack{
		cfg:     cfg,
		mask:    uint64(cfg.Shards - 1),
		shards:  make([]*shard, cfg.Shards),
		windows: newWindowTable(),
		jobs:    make(chan *sweepRun),
		closed:  make(chan struct{}),
	}
	for i := range r.shards {
		r.shards[i] = newShard()
	}
	if cfg.Durability != nil {
		if err := r.openDurability(*cfg.Durability); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	if cfg.ReapInterval > 0 {
		r.wg.Add(1)
		go r.reaper()
	}
	if r.dur != nil && r.dur.snapshotEvery > 0 {
		r.wg.Add(1)
		go r.snapshotLoop()
	}
	return r, nil
}

// Close stops the worker pool and reaper. Operations after Close return
// ErrRackClosed. On a durable rack the returned error reports a failed
// final flush/fsync of the write-ahead-log tail — silent loss of the last
// interval's records would otherwise surface only at the next recovery;
// in-memory racks always return nil.
func (r *Rack) Close() error {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	if r.done {
		return nil
	}
	r.done = true
	// Workers exit via the closed channel once their claims are screened;
	// r.jobs is deliberately never closed, since a sweep between its isClosed
	// check and its post could otherwise panic sending on it.
	close(r.closed)
	r.wg.Wait()
	if r.dur != nil {
		// Flush and fsync the log tail; the workers are gone, so nothing new
		// can enqueue behind the close.
		return r.dur.log.Close()
	}
	return nil
}

// isClosed reports whether Close has been called.
func (r *Rack) isClosed() bool {
	select {
	case <-r.closed:
		return true
	default:
		return false
	}
}

// shardFor hashes a request ID to its shard with an inlined FNV-1a —
// hash/fnv's New64a allocates its state object, and this runs once per
// operation on the hot path. The values are identical to fnv.New64a.
func (r *Rack) shardFor(id string) *shard {
	h := uint64(14695981039346269811)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return r.shards[h&r.mask]
}

// Submit validates a marshalled request package and racks it. It returns the
// request ID under which the bottle is held — prefixed with the rack's tag
// when one is configured; on a durable rack, a nil error additionally means
// the bottle is persisted per the fsync policy.
func (r *Rack) Submit(ctx context.Context, raw []byte) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if r.isClosed() {
		return "", ErrRackClosed
	}
	b, err := bottleFromRaw(raw, r.cfg.Now().UTC())
	if err != nil {
		return "", err
	}
	b.owner = IdentityFromContext(ctx)
	if err := r.shardFor(b.id).put(b); err != nil {
		return "", err
	}
	if err := r.commitDur(); err != nil {
		return "", err
	}
	return r.tagID(b.id), nil
}

// SubmitResult is the outcome of one package within a SubmitBatch.
type SubmitResult struct {
	// ID is the request ID the bottle is held under (empty on error).
	ID string
	// Err is the per-item failure, if any.
	Err error
}

// bottleFromRaw validates one marshalled package and builds its rack entry.
// The broker decodes only the header view (core.UnmarshalPackageView): the
// hint matrix is candidate-side machinery, and skipping its field-element
// parsing is most of the submit path's CPU. Copy-on-retain happens here — the
// caller's buffer may be a transport frame that is reused after the handler
// returns, so the bottle copies first and the view aliases the bottle's own
// copy. Every bottle — submitted, replayed or handed off — is made here, so
// this is also where its necessary-residue mask is derived; the mask is never
// logged.
func bottleFromRaw(raw []byte, now time.Time) (*bottle, error) {
	owned := append([]byte(nil), raw...)
	v, err := core.UnmarshalPackageView(owned)
	if err != nil {
		return nil, err
	}
	if v.Expired(now) {
		return nil, core.ErrExpired
	}
	return &bottle{
		id:        v.ID,
		origin:    v.Origin,
		prime:     v.Prime,
		raw:       owned,
		pkg:       v,
		expiresAt: v.ExpiresAt,
		need:      necessaryMask(&v),
	}, nil
}

// SubmitBatch racks several marshalled packages at once: bottles are grouped
// by shard and each shard's lock is taken once for its whole group, so the
// per-operation locking cost is amortized across the batch. Outcomes are
// returned per item, in order; the call itself only fails if the rack is
// closed or the context ends. Cancellation is honored between shard visits:
// shards already visited keep their bottles (their items report success),
// unvisited items carry the context's error, and the call returns it too.
func (r *Rack) SubmitBatch(ctx context.Context, raws [][]byte) ([]SubmitResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.isClosed() {
		return nil, ErrRackClosed
	}
	now := r.cfg.Now().UTC()
	owner := IdentityFromContext(ctx)
	results := make([]SubmitResult, len(raws))
	type item struct {
		idx int
		b   *bottle
	}
	perShard := make(map[*shard][]item)
	for i, raw := range raws {
		b, err := bottleFromRaw(raw, now)
		if err != nil {
			results[i].Err = err
			continue
		}
		b.owner = owner
		sh := r.shardFor(b.id)
		perShard[sh] = append(perShard[sh], item{idx: i, b: b})
		results[i].ID = r.tagID(b.id)
	}
	var ctxErr error
	for sh, items := range perShard {
		if ctxErr = ctx.Err(); ctxErr != nil {
			// Cancellation between shard visits: unvisited items are marked
			// with the context error instead of silently reporting the IDs
			// they never racked under.
			for _, it := range items {
				results[it.idx] = SubmitResult{Err: ctxErr}
			}
			continue
		}
		bs := make([]*bottle, len(items))
		for j, it := range items {
			bs[j] = it.b
		}
		for j, err := range sh.putBatch(bs) {
			if err != nil {
				results[items[j].idx] = SubmitResult{Err: err}
			}
		}
	}
	// One durability wait for the whole batch: the shard loops above enqueued
	// every racked bottle, so a single group commit covers them all.
	if err := r.commitDur(); err != nil {
		return results, err
	}
	return results, ctxErr
}

// ReplyPost is one reply within a ReplyBatch: the request it is addressed to
// plus the marshalled core.Reply.
type ReplyPost struct {
	// RequestID addresses the racked bottle.
	RequestID string
	// Raw is the marshalled reply.
	Raw []byte
}

// ReplyBatch posts several replies at once, grouping by shard so each shard's
// lock is taken once per batch. Outcomes are returned per item, in order; the
// call itself only fails if the rack is closed or the context ends.
// Cancellation is honored between shard visits: posted replies stay posted,
// unvisited items carry the context's error.
func (r *Rack) ReplyBatch(ctx context.Context, posts []ReplyPost) ([]error, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.isClosed() {
		return nil, ErrRackClosed
	}
	if r.cfg.RackTag != "" {
		// Normalize addressed IDs on a copy — the caller's slice is not ours
		// to rewrite.
		norm := make([]ReplyPost, len(posts))
		copy(norm, posts)
		for i := range norm {
			norm[i].RequestID = r.untagID(norm[i].RequestID)
		}
		posts = norm
	}
	now := r.cfg.Now().UTC()
	errs := make([]error, len(posts))
	perShard := make(map[*shard][]int)
	for i, p := range posts {
		rep, err := core.UnmarshalReply(p.Raw)
		if err != nil {
			errs[i] = err
			continue
		}
		if rep.RequestID != p.RequestID {
			errs[i] = fmt.Errorf("broker: reply addressed to %q but carries request id %q", p.RequestID, rep.RequestID)
			continue
		}
		sh := r.shardFor(p.RequestID)
		perShard[sh] = append(perShard[sh], i)
	}
	var ctxErr error
	for sh, idxs := range perShard {
		if ctxErr = ctx.Err(); ctxErr != nil {
			for _, i := range idxs {
				errs[i] = ctxErr
			}
			continue
		}
		for j, err := range sh.pushReplyBatch(posts, idxs, r.cfg.MaxRepliesPerBottle, now) {
			errs[idxs[j]] = err
		}
	}
	if err := r.commitDur(); err != nil {
		return errs, err
	}
	return errs, ctxErr
}

// FetchResult is the outcome of one request ID within a FetchBatch.
type FetchResult struct {
	// Replies are the drained marshalled replies (nil on error).
	Replies [][]byte
	// Err is the per-item failure, if any.
	Err error
}

// ErrFetchBudget marks FetchBatch items left undrained because the batch hit
// its byte budget; their replies are still queued — fetch them again (alone
// or in a smaller batch).
var ErrFetchBudget = errors.New("broker: fetch batch byte budget exhausted, retry this id")

// MaxFetchBatchBytes bounds the reply payload drained by one FetchBatch.
// Draining is destructive, so the budget must keep the whole response under
// the transport's frame cap: items past the budget are refused with
// ErrFetchBudget instead of drained-and-then-dropped by an oversized frame.
const MaxFetchBatchBytes = 8 << 20

// FetchBatch drains the reply queues of several requests at once, grouping by
// shard so each shard's lock is taken once per batch. Outcomes are returned
// per item, in order; items beyond MaxFetchBatchBytes are left queued and
// marked ErrFetchBudget. The call itself only fails if the rack is closed or
// the context ends. Cancellation is honored between shard visits: queues
// already drained stay drained (their items carry the replies), unvisited
// items keep their queues and carry the context's error.
func (r *Rack) FetchBatch(ctx context.Context, ids []string) ([]FetchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.isClosed() {
		return nil, ErrRackClosed
	}
	if r.cfg.RackTag != "" {
		norm := make([]string, len(ids))
		for i, id := range ids {
			norm[i] = r.untagID(id)
		}
		ids = norm
	}
	results := make([]FetchResult, len(ids))
	perShard := make(map[*shard][]int)
	for i, id := range ids {
		sh := r.shardFor(id)
		perShard[sh] = append(perShard[sh], i)
	}
	var ctxErr error
	caller := IdentityFromContext(ctx)
	budget := MaxFetchBatchBytes
	for sh, idxs := range perShard {
		if ctxErr = ctx.Err(); ctxErr != nil {
			for _, i := range idxs {
				results[i].Err = ctxErr
			}
			continue
		}
		budget = sh.drainBatch(ids, idxs, results, budget, caller)
	}
	return results, ctxErr
}

// SweepQuery describes one candidate's sweep: its residue presence sets (one
// per prime it is willing to screen against), a result cap, and optional
// exclusions.
type SweepQuery struct {
	// Residues holds one presence set per prime; bottles with a prime not
	// covered here are skipped (not rejected — the candidate simply cannot
	// screen them).
	Residues []core.ResidueSet
	// Limit caps the number of bottles returned (zero: DefaultSweepLimit).
	Limit int
	// ExcludeOrigin skips bottles submitted by this origin (a candidate never
	// wants its own requests back).
	ExcludeOrigin string
	// Seen lists request IDs the candidate has already evaluated; they are
	// skipped server-side so the limit is spent on fresh bottles. With Window
	// zero it is the whole exclusion list of this one query and the rack keeps
	// nothing. With a window named it is either that window's whole content
	// (SeenFull) or only the IDs added to it since the query before.
	Seen []string
	// Window, when nonzero, names an exclusion window the rack holds for the
	// caller's identity between sweeps (soft state: see SweepResult.Resync).
	// Sweepers draw it at random once.
	Window uint64
	// SeenBase is how many IDs had ever been added to the window before
	// those in Seen; the rack applies a delta only to a window standing
	// exactly there, so a lost or repeated query can never skew it.
	SeenBase uint64
	// SeenFull marks Seen as the window's whole content, replacing whatever
	// the rack holds under Window.
	SeenFull bool
	// SeenCap is the window's bound (zero or beyond MaxSeenCap: MaxSeenCap);
	// the rack evicts oldest-first at the same length the sweeper does.
	SeenCap int
}

// normalize validates the query and fills defaults. Residue sets are
// deduplicated by prime (first wins): a query repeating a prime would
// otherwise rescan that prime's group once per duplicate — returning the same
// bottles several times and handing remote clients a scan-amplification
// lever.
func (q *SweepQuery) normalize() error {
	valid := q.Residues[:0:0]
	primes := make(map[uint32]struct{}, len(q.Residues))
	for _, s := range q.Residues {
		if !s.Valid() {
			continue
		}
		if _, dup := primes[s.Prime]; dup {
			continue
		}
		primes[s.Prime] = struct{}{}
		valid = append(valid, s)
	}
	if len(valid) == 0 {
		return ErrBadQuery
	}
	q.Residues = valid
	if q.Limit <= 0 {
		q.Limit = DefaultSweepLimit
	}
	return nil
}

// residueFor returns the query's presence set for a prime.
func (q *SweepQuery) residueFor(prime uint32) (core.ResidueSet, bool) {
	for _, s := range q.Residues {
		if s.Prime == prime {
			return s, true
		}
	}
	return core.ResidueSet{}, false
}

// SweptBottle is one rack entry returned by a sweep.
type SweptBottle struct {
	// ID is the request ID.
	ID string
	// Raw is the marshalled request package, exactly as submitted.
	Raw []byte
}

// SweepResult is the outcome of one sweep query.
type SweepResult struct {
	// Bottles holds the prefilter-passing packages, in shard order.
	Bottles []SweptBottle
	// Scanned is how many live bottles were screened: every one the scan
	// visited, including those the exclusion window or ExcludeOrigin then
	// skipped.
	Scanned int
	// Rejected is how many of them the residue prefilter dismissed.
	Rejected int
	// Truncated is true when more bottles passed than Limit allowed.
	Truncated bool
	// Resync is true when the rack did not hold the query's Window at
	// SeenBase (never seen, evicted, restarted, a missed delta): nothing was
	// scanned, and the caller must repeat the query with SeenFull set.
	Resync bool
	// Partial is set by a backend that fans a sweep out to several racks (a
	// ring) when a rack it asked gave no answer — shed, timed out, down. That
	// rack has missed the query's delta, so the caller's next query should
	// carry the whole window rather than wait for the rack to ask for it:
	// a rack that sheds load may not admit the two queries a resync takes.
	// Never on the wire.
	Partial bool
}

// Sweep screens every racked bottle against the query's residue sets and
// returns the ones the candidate could plausibly open. The caller scans the
// shards itself, claiming them one at a time, and up to Workers-1 idle
// workers of the rack's pool help by claiming from the same sequence; a
// spare worker is left to a concurrent sweep. Cancellation stops the sweep
// through its collection budget: the budget is zeroed so in-flight claims
// stop at their next passing bottle, no further shards are claimed, and the
// call returns the context's error — bottles already collected are
// discarded. A sweep mutates no bottle, and the one thing it does mutate,
// the caller's held exclusion window, takes the same delta twice as a no-op
// — so a canceled or lost sweep is free to repeat.
func (r *Rack) Sweep(ctx context.Context, q SweepQuery) (SweepResult, error) {
	if err := ctx.Err(); err != nil {
		return SweepResult{}, err
	}
	if r.isClosed() {
		return SweepResult{}, ErrRackClosed
	}
	run := &sweepRun{
		q:      q,
		now:    r.cfg.Now().UTC(),
		shards: r.shards,
		parts:  make([]shardSweep, len(r.shards)),
		done:   make(chan struct{}),
	}
	if err := run.q.normalize(); err != nil {
		return SweepResult{}, err
	}
	switch {
	case q.Window != 0:
		held, err := r.windows.hold(ctx, r.closed, &run.q, r.cfg.RackTag, run.now)
		if held == nil {
			return SweepResult{Resync: err == nil}, err
		}
		run.held, run.seen = held, &held.set
	case len(q.Seen) > 0:
		// An ad-hoc list is a window nobody holds: same membership code.
		run.q.SeenFull = true
		run.seen = new(SeenWindow)
		run.seen.apply(&run.q, r.cfg.RackTag)
	}
	run.remaining.Store(int64(run.q.Limit))
	run.pending.Store(int64(len(r.shards)))
post:
	for range min(r.cfg.Workers-1, len(r.shards)-1) {
		select {
		case r.jobs <- run:
		default:
			break post
		}
	}
	run.scan(ctx)
	select {
	case <-run.done:
	case <-ctx.Done():
		run.cancel()
		return SweepResult{}, ctx.Err()
	}
	// Merge in shard order: results are deterministic for a quiescent rack as
	// long as the sweep is not truncated. Under truncation, which shards win
	// the budget race depends on scheduling — any Limit-sized subset of the
	// passing bottles is a valid answer, Truncated tells the sweeper to come
	// back, and its seen window makes repeat sweeps converge.
	var res SweepResult
	for _, p := range run.parts {
		res.Scanned += p.scanned
		res.Rejected += p.rejected
		res.Truncated = res.Truncated || p.truncated
		for _, b := range p.bottles {
			if len(res.Bottles) >= run.q.Limit {
				res.Truncated = true
				break
			}
			res.Bottles = append(res.Bottles, b)
		}
	}
	if r.cfg.RackTag != "" {
		for i := range res.Bottles {
			res.Bottles[i].ID = r.tagID(res.Bottles[i].ID)
		}
	}
	return res, nil
}

// worker helps the sweeps posted to it claim shards until the rack closes.
func (r *Rack) worker() {
	defer r.wg.Done()
	for {
		select {
		case run := <-r.jobs:
			run.scan(context.Background())
		case <-r.closed:
			return
		}
	}
}

// Reply racks a marshalled core.Reply for the initiator of the addressed
// request to fetch. The reply must parse and must echo the request ID it is
// posted under; replies to unknown or expired bottles are rejected.
func (r *Rack) Reply(ctx context.Context, requestID string, raw []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.isClosed() {
		return ErrRackClosed
	}
	requestID = r.untagID(requestID)
	rep, err := core.UnmarshalReply(raw)
	if err != nil {
		return err
	}
	if rep.RequestID != requestID {
		return fmt.Errorf("broker: reply addressed to %q but carries request id %q", requestID, rep.RequestID)
	}
	sh := r.shardFor(requestID)
	if err := sh.pushReply(requestID, raw, r.cfg.MaxRepliesPerBottle, r.cfg.Now().UTC()); err != nil {
		return err
	}
	return r.commitDur()
}

// Fetch drains and returns the replies queued for a request. Only bottles
// still on the rack (not yet reaped) can be fetched from, and only by the
// identity that submitted them when ownership is recorded.
func (r *Rack) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.isClosed() {
		return nil, ErrRackClosed
	}
	requestID = r.untagID(requestID)
	return r.shardFor(requestID).drainReplies(requestID, IdentityFromContext(ctx))
}

// Remove takes a bottle (and its pending replies) off the rack, e.g. when an
// initiator has found enough matches. It reports whether the bottle was
// held; the error is only non-nil on a durable rack whose log commit failed.
func (r *Rack) Remove(ctx context.Context, requestID string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if r.isClosed() {
		return false, ErrRackClosed
	}
	requestID = r.untagID(requestID)
	held, err := r.shardFor(requestID).remove(requestID, IdentityFromContext(ctx), r.cfg.Now().UTC())
	if err != nil || !held {
		return false, err
	}
	return true, r.commitDur()
}

// Reap removes every expired bottle now; it returns the number reaped. The
// background reaper calls this on its interval, and it is exported for
// clock-injected deployments (the simulator) that want deterministic expiry.
func (r *Rack) Reap() int {
	now := r.cfg.Now().UTC()
	n := 0
	for _, sh := range r.shards {
		n += sh.reap(now)
	}
	r.windows.reap(now)
	return n
}

// reaper runs Reap on the configured interval until the rack closes.
func (r *Rack) reaper() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.Reap()
		case <-r.closed:
			return
		}
	}
}

// Primes returns the sorted set of remainder primes currently live on the
// rack; sweepers use it to decide which residue sets to compute.
func (r *Rack) Primes() []uint32 {
	var all []uint32
	for _, sh := range r.shards {
		all = append(all, sh.primes()...)
	}
	return core.MergePrimes(all...)
}

// ShardStats is one shard's counter snapshot.
type ShardStats struct {
	// Held is the number of live bottles on the shard.
	Held int
	// Submitted counts bottles ever racked on the shard.
	Submitted uint64
	// Duplicates counts submissions rejected for ID reuse.
	Duplicates uint64
	// Expired counts bottles removed by lazy or background expiry.
	Expired uint64
	// Sweeps counts shard scans served.
	Sweeps uint64
	// Scanned counts live bottles screened across all sweeps.
	Scanned uint64
	// Rejected counts prefilter dismissals.
	Rejected uint64
	// Returned counts bottles handed to sweepers.
	Returned uint64
	// RepliesIn / RepliesOut / RepliesDropped count reply traffic.
	RepliesIn      uint64
	RepliesOut     uint64
	RepliesDropped uint64
}

// Stats is a point-in-time snapshot of the whole rack.
type Stats struct {
	// Shards and Workers echo the effective configuration.
	Shards  int
	Workers int
	// Held is the number of live bottles across all shards.
	Held int
	// Totals aggregates every shard's counters.
	Totals ShardStats
	// PerShard holds the individual shard snapshots, in shard order.
	PerShard []ShardStats
	// Primes is the sorted set of live remainder primes.
	Primes []uint32
	// Recovered is the number of bottles restored from the write-ahead log
	// and snapshot at startup (zero on in-memory racks).
	Recovered uint64
	// WALBytes is the current on-disk size of the durability log — live
	// segments plus the live snapshot (zero on in-memory racks). Operators
	// watch it fall after compaction and grow between snapshots.
	WALBytes uint64
	// Replication counts replication traffic: hint-queue counters merged in
	// by a replica-enabled server, plus the ring's client-side read-repair
	// and dedup counters in ring-aggregated stats. Zero on a bare rack.
	Replication ReplicationStats
	// Windows counts the sweep exclusion windows this rack holds. It is read
	// in process (the rack's /metrics); the Stats opcode does not carry it.
	Windows WindowStats
}

// PrefilterRejectRate is the fraction of screened bottles the residue
// prefilter dismissed without a full matcher evaluation.
func (s Stats) PrefilterRejectRate() float64 {
	if s.Totals.Scanned == 0 {
		return 0
	}
	return float64(s.Totals.Rejected) / float64(s.Totals.Scanned)
}

// MatchRate is the fraction of screened bottles handed to sweepers.
func (s Stats) MatchRate() float64 {
	if s.Totals.Scanned == 0 {
		return 0
	}
	return float64(s.Totals.Returned) / float64(s.Totals.Scanned)
}

// Stats snapshots every shard's counters. The error is only ever the
// context's — an in-process snapshot cannot otherwise fail — and exists so
// the signature matches the Backend surface shared with couriers and rings.
func (r *Rack) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	st := Stats{
		Shards:   r.cfg.Shards,
		Workers:  r.cfg.Workers,
		PerShard: make([]ShardStats, len(r.shards)),
	}
	var primes []uint32
	for i, sh := range r.shards {
		ss := sh.snapshot()
		st.PerShard[i] = ss
		st.Held += ss.Held
		st.Totals.Held += ss.Held
		st.Totals.Submitted += ss.Submitted
		st.Totals.Duplicates += ss.Duplicates
		st.Totals.Expired += ss.Expired
		st.Totals.Sweeps += ss.Sweeps
		st.Totals.Scanned += ss.Scanned
		st.Totals.Rejected += ss.Rejected
		st.Totals.Returned += ss.Returned
		st.Totals.RepliesIn += ss.RepliesIn
		st.Totals.RepliesOut += ss.RepliesOut
		st.Totals.RepliesDropped += ss.RepliesDropped
		primes = append(primes, sh.primes()...)
	}
	st.Primes = core.MergePrimes(primes...)
	st.Recovered = r.recovered
	st.Windows = r.windows.snapshot()
	if r.dur != nil {
		st.WALBytes = uint64(r.dur.log.SizeBytes())
	}
	return st, nil
}
