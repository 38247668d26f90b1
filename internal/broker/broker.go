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
// concurrent calls scale across cores. Every call runs on its caller's
// goroutine: a sweep screens the shards in index order, and a list of
// submits, replies or fetches takes each shard's lock once, in the same
// order; a single call is a list of one. Expiry is lazy (expired bottles are
// skipped and unlinked as sweeps encounter them) with a background reaper
// closing the long tail.
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
	"math"
	"math/rand/v2"
	"slices"
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
	// ErrBadQuery indicates a sweep query with no valid residue sets, or a
	// sweep frame this protocol revision cannot decode.
	ErrBadQuery = errors.New("broker: bad sweep query")
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
	// names the rack that issued an ID; client.Ring routes by the untagged ID
	// and does not read it. Internally — ID index, WAL, snapshots —
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
// use; Close stops the reaper and the snapshot loop.
type Rack struct {
	cfg    Config
	mask   uint64
	shards []*shard

	// dur and recovered are set once by Open (before the rack serves) and
	// never change: nil/zero on in-memory racks.
	dur       *durability
	recovered uint64

	// epoch names this opening of the rack in sweep cursors, and seq is its
	// last arrival stamp (cursor.go); cursorResets counts the queries that
	// carried a cursor of another epoch.
	epoch        uint64
	seq          atomic.Uint64
	cursorResets atomic.Uint64

	closed  chan struct{}
	closeMu sync.Mutex
	done    bool
	wg      sync.WaitGroup
}

// sweepRun is one sweep: its query, and each shard's part of the result at
// the shard's index, which merge assembles. seen is the query's one-off
// exclusion list; the sweep collects the bottles stamped in (after, high].
type sweepRun struct {
	q           SweepQuery
	seen        *SeenWindow
	after, high uint64
	parts       []shardSweep
	// cursor backs the result's one cursor.
	cursor [1]SweepCursor
}

// New builds a rack and starts its reaper (unless disabled).
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
// when the config asks for it, and starts its reaper and (when configured)
// periodic snapshot loop.
func Open(cfg Config) (*Rack, error) {
	cfg = cfg.withDefaults()
	if err := ValidateTag(cfg.RackTag); err != nil {
		return nil, err
	}
	r := &Rack{
		cfg:    cfg,
		mask:   uint64(cfg.Shards - 1),
		shards: make([]*shard, cfg.Shards),
		epoch:  rand.Uint64() | 1,
		closed: make(chan struct{}),
	}
	for i := range r.shards {
		r.shards[i] = newShard(&r.seq)
	}
	if cfg.Durability != nil {
		if err := r.openDurability(*cfg.Durability); err != nil {
			return nil, err
		}
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

// Close stops the reaper and the snapshot loop. Operations after Close return
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
	close(r.closed)
	r.wg.Wait()
	if r.dur != nil {
		// Flush and fsync the log tail; the reaper, which logs expiries, is
		// gone.
		return r.dur.log.Close()
	}
	return nil
}

// ready returns the error a call answers with before it touches a shard: the
// context's, or ErrRackClosed.
func (r *Rack) ready(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.isClosed() {
		return ErrRackClosed
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

// shardIndex hashes a request ID to its shard's index with an inlined
// FNV-1a — hash/fnv's New64a allocates its state object, and this runs once
// per item on the hot path. The values are identical to fnv.New64a.
func (r *Rack) shardIndex(id string) uint64 {
	h := uint64(14695981039346269811)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h & r.mask
}

// shardFor returns the shard that holds a request ID.
func (r *Rack) shardFor(id string) *shard { return r.shards[r.shardIndex(id)] }

// listBuf is how many items of a list the rack groups by shard (and holds
// untagged) in stack buffers; a longer list allocates them, once each.
const listBuf = 16

// shardKey packs an item's shard index above its index in the list, so that
// sorted keys group a list's items by shard, in shard-index order, and keep
// each shard's items in list order.
func (r *Rack) shardKey(id string, i int) uint64 { return r.shardIndex(id)<<32 | uint64(i) }

// eachShard visits the shards a list's items touch, in shard-index order:
// keys holds a shardKey for each item that reaches a shard, and visit runs
// for each such item under its shard's lock, which is taken once per shard.
// ctx is checked before each shard; once it has ended, cut runs instead for
// every item not yet visited, and eachShard returns the context's error. A
// canceled list is thus applied up to a shard boundary that depends only on
// its items and the moment ctx ended.
func (r *Rack) eachShard(ctx context.Context, keys []uint64, visit func(sh *shard, i int), cut func(i int, err error)) error {
	slices.Sort(keys)
	for len(keys) > 0 {
		n, s := 1, keys[0]>>32
		for n < len(keys) && keys[n]>>32 == s {
			n++
		}
		if err := ctx.Err(); err != nil {
			for _, k := range keys {
				cut(int(uint32(k)), err)
			}
			return err
		}
		r.shards[s].visit(keys[:n], visit)
		keys = keys[n:]
	}
	return nil
}

// Submit validates a marshalled request package and racks it, as a
// one-item SubmitBatch. It returns the request ID under which the bottle is
// held — prefixed with the rack's tag when one is configured; on a durable
// rack, a nil error additionally means the bottle is persisted per the fsync
// policy.
func (r *Rack) Submit(ctx context.Context, raw []byte) (string, error) {
	if err := r.ready(ctx); err != nil {
		return "", err
	}
	var res [1]SubmitResult
	if err := r.submit(ctx, [][]byte{raw}, res[:]); err != nil {
		return "", err
	}
	return res[0].ID, res[0].Err
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
// this is also where its screen (the residue masks and gate byte) is derived;
// the screen is never logged or sent — and where a request ID longer than
// maxRequestIDLen is refused, so that replay and handoff drop one too.
func bottleFromRaw(raw []byte, now time.Time) (*bottle, error) {
	owned := append([]byte(nil), raw...)
	v, err := core.UnmarshalPackageView(owned)
	if err != nil {
		return nil, err
	}
	if len(v.ID) > maxRequestIDLen {
		return nil, fmt.Errorf("%w: request id of %d bytes, over %d", core.ErrMalformedPackage, len(v.ID), maxRequestIDLen)
	}
	if v.Expired(now) {
		return nil, core.ErrExpired
	}
	b := &bottle{id: v.ID, origin: v.Origin, raw: owned, pkg: v, need: necessaryMask(&v)}
	b.opt, b.gate = optionalMask(&v)
	return b, nil
}

// SubmitBatch racks several marshalled packages at once, taking each shard's
// lock once for all its bottles (eachShard). Outcomes are returned per item,
// in order; the call itself only fails if the rack is closed, the context
// ends or the log commit fails. Cancellation is honored between shard
// visits: shards already visited keep their bottles (their items report
// success), unvisited items carry the context's error, and the call returns
// it too.
func (r *Rack) SubmitBatch(ctx context.Context, raws [][]byte) ([]SubmitResult, error) {
	if err := r.ready(ctx); err != nil {
		return nil, err
	}
	results := make([]SubmitResult, len(raws))
	return results, r.submit(ctx, raws, results)
}

// submit is Submit and SubmitBatch: it validates every package, racks the
// bottles shard by shard, writes each item's outcome to results, and waits
// once for the durability of the whole list — when anything was racked, for
// a list that racked nothing enqueued nothing to wait for.
func (r *Rack) submit(ctx context.Context, raws [][]byte, results []SubmitResult) error {
	now := r.cfg.Now().UTC()
	owner := IdentityFromContext(ctx)
	var keyBuf [listBuf]uint64
	var bottleBuf [listBuf]*bottle
	keys, bs := keyBuf[:0], bottleBuf[:]
	if len(raws) > listBuf {
		keys, bs = make([]uint64, 0, len(raws)), make([]*bottle, len(raws))
	}
	for i, raw := range raws {
		b, err := bottleFromRaw(raw, now)
		if err != nil {
			results[i].Err = err
			continue
		}
		b.owner = owner
		bs[i] = b
		keys = append(keys, r.shardKey(b.id, i))
		results[i].ID = r.tagID(b.id)
	}
	applied := false
	err := r.eachShard(ctx, keys, func(sh *shard, i int) {
		if err := sh.putLocked(bs[i], now.UnixNano()); err != nil {
			results[i] = SubmitResult{Err: err}
			return
		}
		applied = true
	}, func(i int, err error) {
		// The context's error, not the ID the bottle was never racked under.
		results[i] = SubmitResult{Err: err}
	})
	if applied {
		if cerr := r.commitDur(); cerr != nil {
			return cerr
		}
	}
	return err
}

// ReplyPost is one reply within a ReplyBatch: the request it is addressed to
// plus the marshalled core.Reply.
type ReplyPost struct {
	// RequestID addresses the racked bottle.
	RequestID string
	// Raw is the marshalled reply.
	Raw []byte
}

// ReplyBatch posts several replies at once, taking each shard's lock once
// for all its replies (eachShard). Outcomes are returned per item, in order;
// the call itself only fails if the rack is closed, the context ends or the
// log commit fails. Cancellation is honored between shard visits: posted
// replies stay posted, unvisited items carry the context's error.
func (r *Rack) ReplyBatch(ctx context.Context, posts []ReplyPost) ([]error, error) {
	if err := r.ready(ctx); err != nil {
		return nil, err
	}
	errs := make([]error, len(posts))
	return errs, r.reply(ctx, posts, errs)
}

// reply is Reply and ReplyBatch: it checks every reply (checkReply), queues
// them shard by shard, writes each item's outcome to errs, and, as submit
// does, waits once for the durability of what it queued.
func (r *Rack) reply(ctx context.Context, posts []ReplyPost, errs []error) error {
	now := r.cfg.Now().UTC()
	var keyBuf [listBuf]uint64
	var idBuf [listBuf]string
	keys, own := keyBuf[:0], idBuf[:]
	if len(posts) > listBuf {
		keys, own = make([]uint64, 0, len(posts)), make([]string, len(posts))
	}
	for i, p := range posts {
		own[i] = r.untagID(p.RequestID)
		if errs[i] = checkReply(own[i], p.Raw); errs[i] == nil {
			keys = append(keys, r.shardKey(own[i], i))
		}
	}
	applied := false
	err := r.eachShard(ctx, keys, func(sh *shard, i int) {
		errs[i] = sh.pushReplyLocked(own[i], posts[i].Raw, r.cfg.MaxRepliesPerBottle, now)
		applied = applied || errs[i] == nil
	}, func(i int, err error) { errs[i] = err })
	if applied {
		if cerr := r.commitDur(); cerr != nil {
			return cerr
		}
	}
	return err
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

// FetchBatch drains the reply queues of several requests at once, taking
// each shard's lock once for all its queues (eachShard). Outcomes are
// returned per item, in order; items beyond MaxFetchBatchBytes are left
// queued and marked ErrFetchBudget. The call itself only fails if the rack is
// closed or the context ends. Cancellation is honored between shard visits:
// queues already drained stay drained (their items carry the replies),
// unvisited items keep their queues and carry the context's error.
func (r *Rack) FetchBatch(ctx context.Context, ids []string) ([]FetchResult, error) {
	if err := r.ready(ctx); err != nil {
		return nil, err
	}
	results := make([]FetchResult, len(ids))
	return results, r.fetch(ctx, ids, results, MaxFetchBatchBytes)
}

// fetch is Fetch and FetchBatch: it drains the queues shard by shard, as the
// caller's identity, while their replies fit the byte budget, and writes
// each item's outcome to results.
func (r *Rack) fetch(ctx context.Context, ids []string, results []FetchResult, budget int) error {
	// Each item's untagged ID is kept as the length of the tag cut from it,
	// not as a string: a buffer of strings would make ids escape, and a
	// caller that converts a frame to the ID would then allocate per call.
	var keyBuf [listBuf]uint64
	var cutBuf [listBuf]int
	keys, cut := keyBuf[:0], cutBuf[:]
	if len(ids) > listBuf {
		keys, cut = make([]uint64, 0, len(ids)), make([]int, len(ids))
	}
	for i, id := range ids {
		own := r.untagID(id)
		cut[i] = len(id) - len(own)
		keys = append(keys, r.shardKey(own, i))
	}
	caller := IdentityFromContext(ctx)
	return r.eachShard(ctx, keys, func(sh *shard, i int) {
		results[i].Replies, results[i].Err = sh.drainLocked(ids[i][cut[i]:], caller, &budget)
	}, func(i int, err error) { results[i].Err = err })
}

// maxRequestIDLen bounds a racked request ID: room for a 32-hex-character ID
// behind a MaxTagLen rack tag, several times over.
const maxRequestIDLen = 128

// SweepQuery describes one candidate's sweep: its residue presence sets (one
// per prime it is willing to screen against), a result cap, optional
// exclusions and the sweeper's cursors.
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
	// Seen lists request IDs to skip server-side, for this one query; the
	// rack keeps nothing of it. A list longer than 65536 IDs is a bad query.
	Seen []string
	// Cursors are the sweeper's positions on the racks it has swept, as
	// earlier results handed them out: the rack returns only bottles stamped
	// after its own cursor (Member "") and screens from zero without one.
	Cursors []SweepCursor
}

// maxSeenIDs bounds a query's Seen list, on the wire and in process: the
// rack builds an exclusion set of that size for the one query.
const maxSeenIDs = 1 << 16

// normalize validates the query and fills defaults. Residue sets are
// deduplicated by prime (first wins): a query repeating a prime would
// otherwise rescan that prime's group once per duplicate — returning the same
// bottles several times and handing remote clients a scan-amplification
// lever.
func (q *SweepQuery) normalize() error {
	if len(q.Seen) > maxSeenIDs {
		return ErrBadQuery
	}
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

// SweptBottle is one rack entry returned by a sweep.
type SweptBottle struct {
	// ID is the request ID.
	ID string
	// Raw is the marshalled request package, exactly as submitted.
	Raw []byte
	// Seq is the bottle's arrival stamp on the rack that returned it: a
	// fan-out that passes on only part of a rack's page moves that rack's
	// cursor to the last it passed on.
	Seq uint64
}

// SweepResult is the outcome of one sweep query.
type SweepResult struct {
	// Bottles holds the prefilter-passing packages stamped after the query's
	// cursor, in shard order.
	Bottles []SweptBottle
	// Scanned is how many live bottles were screened: every one the scan
	// visited, including those the cursor, Seen or ExcludeOrigin then
	// skipped.
	Scanned int
	// Rejected is how many of them the residue prefilter dismissed.
	Rejected int
	// Truncated is true when more bottles passed than Limit allowed; the
	// ones returned are those stamped first.
	Truncated bool
	// Cursors are the cursors to send next, one for each rack that answered;
	// a rack that did not answer keeps its old one.
	Cursors []SweepCursor
}

// Sweep screens every racked bottle against the query's residue sets and
// returns the ones the candidate could plausibly open that arrived after the
// query's cursor, with the cursor to send next. The caller's goroutine
// screens the shards in index order, checking ctx before each; cancellation
// returns the context's error and discards the bottles collected. A sweep
// mutates nothing a later sweep reads, so a canceled or lost sweep is free to
// repeat.
func (r *Rack) Sweep(ctx context.Context, q SweepQuery) (SweepResult, error) {
	if err := r.ready(ctx); err != nil {
		return SweepResult{}, err
	}
	now := r.cfg.Now().UTC()
	run := &sweepRun{q: q, parts: make([]shardSweep, len(r.shards))}
	if err := run.q.normalize(); err != nil {
		return SweepResult{}, err
	}
	if len(q.Seen) > 0 {
		run.seen = NewSeenWindow(len(q.Seen))
		for _, id := range q.Seen {
			run.seen.Add(untagOwn(r.cfg.RackTag, id))
		}
	}
	// The high-water mark is read before the first shard lock: every bottle
	// stamped up to it is racked by the time its shard is scanned, and one
	// stamped later is left to the next sweep, so the cursor never passes a
	// bottle this sweep did not see.
	run.high = r.seq.Load()
	run.after = r.sweepFrom(q.Cursors, run.high)
	for i, sh := range r.shards {
		if err := ctx.Err(); err != nil {
			return SweepResult{}, err
		}
		run.parts[i] = sh.sweep(&run.q, run.seen, run.after, run.high, now)
	}
	return r.merge(run), nil
}

// merge assembles a sweep's result from its shards' parts, in shard order —
// deterministic for a quiescent rack. Past the limit it keeps the Limit
// lowest sequences collected, which are the Limit lowest that passed: each
// group collects its own lowest. The cursor is then the highest sequence
// returned, and without truncation the sweep's high-water mark.
func (r *Rack) merge(run *sweepRun) SweepResult {
	var res SweepResult
	n := 0
	for _, p := range run.parts {
		res.Scanned += p.scanned
		res.Rejected += p.rejected
		res.Truncated = res.Truncated || p.truncated
		n += len(p.found)
	}
	last := run.high
	if res.Truncated = res.Truncated || n > run.q.Limit; res.Truncated {
		seqs := make([]uint64, 0, n)
		for _, p := range run.parts {
			for _, f := range p.found {
				seqs = append(seqs, f.seq)
			}
		}
		slices.Sort(seqs)
		last = seqs[min(n, run.q.Limit)-1]
	}
	res.Bottles = make([]SweptBottle, 0, min(n, run.q.Limit))
	for i, p := range run.parts {
		kept := len(res.Bottles)
		for _, f := range p.found {
			if f.seq <= last {
				res.Bottles = append(res.Bottles, SweptBottle{ID: r.tagID(f.b.id), Raw: f.b.raw, Seq: f.seq})
			}
		}
		if kept = len(res.Bottles) - kept; kept > 0 {
			r.shards[i].returned.Add(uint64(kept))
		}
	}
	run.cursor[0] = SweepCursor{Epoch: r.epoch, After: last}
	res.Cursors = run.cursor[:]
	return res
}

// Reply racks a marshalled core.Reply for the initiator of the addressed
// request to fetch, as a one-item ReplyBatch. The reply must parse and must
// echo the request ID it is posted under; replies to unknown or expired
// bottles are rejected.
func (r *Rack) Reply(ctx context.Context, requestID string, raw []byte) error {
	if err := r.ready(ctx); err != nil {
		return err
	}
	var errs [1]error
	if err := r.reply(ctx, []ReplyPost{{RequestID: requestID, Raw: raw}}, errs[:]); err != nil {
		return err
	}
	return errs[0]
}

// checkReply makes the checks every queued reply passes, whichever path
// queues it: the reply parses, and it echoes the request ID it is posted
// under.
func checkReply(requestID string, raw []byte) error {
	rep, err := core.UnmarshalReply(raw)
	if err != nil {
		return err
	}
	if rep.RequestID != requestID {
		return fmt.Errorf("broker: reply addressed to %q but carries request id %q", requestID, rep.RequestID)
	}
	return nil
}

// Fetch drains and returns the replies queued for a request, as a one-item
// FetchBatch with no byte budget: the transport's frame cap bounds it. Only
// bottles still on the rack (not yet reaped) can be fetched from, and only
// by the identity that submitted them when ownership is recorded.
func (r *Rack) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	if err := r.ready(ctx); err != nil {
		return nil, err
	}
	var res [1]FetchResult
	if err := r.fetch(ctx, []string{requestID}, res[:], math.MaxInt); err != nil {
		return nil, err
	}
	return res[0].Replies, res[0].Err
}

// Remove takes a bottle (and its pending replies) off the rack, e.g. when an
// initiator has found enough matches. It reports whether the bottle was
// held; the error is only non-nil on a durable rack whose log commit failed.
func (r *Rack) Remove(ctx context.Context, requestID string) (bool, error) {
	if err := r.ready(ctx); err != nil {
		return false, err
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
	// Shards echoes the effective shard count.
	Shards int
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
	// CursorResets counts the sweeps whose cursor was of another epoch (a
	// restart, another rack) and that were screened from zero. It is read in
	// process (the rack's /metrics); the Stats opcode does not carry it.
	CursorResets uint64
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
	st.CursorResets = r.cursorResets.Load()
	if r.dur != nil {
		st.WALBytes = uint64(r.dur.log.SizeBytes())
	}
	return st, nil
}
