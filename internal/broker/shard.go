package broker

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sealedbottle/internal/core"
)

// bottle is one racked request package.
type bottle struct {
	id     string
	origin string
	// owner is the authenticated identity that submitted the bottle; only it
	// may Fetch or Remove the bottle. Empty is open ownership: anonymous
	// submits, and bottles restored from the WAL or a handoff stream (the
	// persisted record format predates ownership, so recovery cannot prove
	// who submitted — documented in docs/PROTOCOL.md §1.5.3).
	owner string
	prime uint32
	// raw is the marshalled package exactly as submitted; pkg is the broker's
	// header view decoded over raw (it aliases raw, which the bottle owns).
	raw       []byte
	pkg       core.PackageView
	expiresAt time.Time
	// need is the bottle's necessary-residue mask (necessaryMask); slot is its
	// index in its prime group, kept current by compaction.
	need uint64
	slot int
}

// expired reports whether the bottle is past its validity window.
func (b *bottle) expired(now time.Time) bool {
	return !b.expiresAt.IsZero() && now.After(b.expiresAt)
}

// maskPrimes bounds the primes that get a necessary-residue mask: below it
// every residue is a bit of one word. Larger primes store a zero mask, which
// the screen always passes, so their bottles go to PrefilterMatch alone — a
// submitter's choice of prime never sizes anything the rack keeps.
const maskPrimes = 64

// deadSlot is the mask of a removed or expired bottle's slot until its group
// is compacted. No live mask has bit 63 (it is a residue only of primes above
// maskPrimes, whose masks are zero) and the sweep clears it from what the
// candidate has, so a dead slot fails the screen like a reject and is told
// apart from one by equality.
const deadSlot uint64 = 1 << 63

// necessaryMask is the presence bitmap of a package's necessary remainders,
// in the shape of ResidueSet.Bits[0]: a candidate whose first word lacks any
// of its bits fails the presence form of Eqs. 6–7 on a necessary position,
// which PrefilterMatch would reject too.
func necessaryMask(v *core.PackageView) uint64 {
	if v.Prime >= maskPrimes {
		return 0
	}
	var m uint64
	for i := 0; i < v.AttributeCount(); i++ {
		if !v.IsOptional(i) {
			m |= 1 << v.Remainder(i)
		}
	}
	return m
}

// primeGroup is one prime's bottles on a shard in insertion order, with their
// necessary-residue masks in a column beside them: the sweep's reject path
// reads one word per bottle and never the bottle. A removed or expired bottle
// leaves a dead slot (nil bottle, deadSlot mask) until the group compacts.
type primeGroup struct {
	bottles []*bottle
	need    []uint64
	dead    int
	// expiry is the earliest deadline among the group's bottles (zero: none
	// expires). A removed bottle can leave it early, which costs one
	// compaction that then recomputes it.
	expiry time.Time
}

// deadShare is the share of a group's slots (one in so many) that may be dead
// before it compacts: removal then costs a constant number of slot moves
// however often the group is swept, and a dead slot costs the scan one word.
const deadShare = 4

func (g *primeGroup) add(b *bottle) {
	b.slot = len(g.bottles)
	g.bottles = append(g.bottles, b)
	g.need = append(g.need, b.need)
	if !b.expiresAt.IsZero() && (g.expiry.IsZero() || b.expiresAt.Before(g.expiry)) {
		g.expiry = b.expiresAt
	}
}

// due reports whether the group holds too many dead slots or may hold an
// expired bottle.
func (g *primeGroup) due(now time.Time) bool {
	return g.dead*deadShare > len(g.bottles) || (!g.expiry.IsZero() && now.After(g.expiry))
}

// ownerAllows reports whether caller may drain or remove an owned bottle:
// open ownership (no recorded owner) admits everyone, otherwise only the
// submitter itself. The check is deliberately not applied to Reply — replies
// come from other identities by design.
func ownerAllows(owner, caller string) bool { return owner == "" || owner == caller }

// shard is one lock domain of the rack: an ID index, insertion-ordered prime
// groups for sweeps, per-request reply queues, and counters. All fields are
// guarded by mu; sweeps hold the lock for the duration of one shard scan,
// which is the unit a sweep's scanners claim.
type shard struct {
	mu      sync.Mutex
	bottles map[string]*bottle
	byPrime map[uint32]*primeGroup
	replies map[string][][]byte
	stats   ShardStats

	// logRec, when set, appends one write-ahead-log record for a mutation.
	// It is invoked inside the critical section that applies the mutation,
	// so the log's order equals the apply order for any bottle (both orders
	// serialize on this mutex); durability waiting happens outside the lock.
	// Nil on in-memory racks and during recovery replay.
	logRec func(typ byte, payload []byte)

	// encBuf is scratch for encoding logRec payloads (guarded by mu). logRec
	// copies the payload before returning (wal.Log.Enqueue encodes it into a
	// pooled record buffer synchronously), so the scratch is free again as
	// soon as the call returns.
	encBuf []byte
}

func newShard() *shard {
	return &shard{
		bottles: make(map[string]*bottle),
		byPrime: make(map[uint32]*primeGroup),
		replies: make(map[string][][]byte),
	}
}

// put racks a bottle, rejecting duplicate IDs.
func (s *shard) put(b *bottle) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(b)
}

// putBatch racks several bottles under one lock acquisition, returning one
// outcome per bottle in order.
func (s *shard) putBatch(bs []*bottle) []error {
	errs := make([]error, len(bs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, b := range bs {
		errs[i] = s.putLocked(b)
	}
	return errs
}

// putLocked is the insertion path shared by put and putBatch. The caller
// holds mu.
func (s *shard) putLocked(b *bottle) error {
	if _, dup := s.bottles[b.id]; dup {
		s.stats.Duplicates++
		return ErrDuplicateBottle
	}
	s.bottles[b.id] = b
	g := s.byPrime[b.prime]
	if g == nil {
		g = &primeGroup{}
		s.byPrime[b.prime] = g
	}
	g.add(b)
	s.stats.Submitted++
	if s.logRec != nil {
		s.logRec(walRecSubmit, b.raw)
	}
	return nil
}

// shardSweep is the per-shard slice of a sweep result.
type shardSweep struct {
	bottles   []SweptBottle
	scanned   int
	rejected  int
	truncated bool
}

// sweep screens the shard's bottles against the query; seen is the query's
// exclusion window (nil: none), shared read-only across the sweep's
// scanners, and remaining is the query's whole-rack collection budget shared
// by every shard of the sweep. A group whose earliest deadline has passed is
// compacted first, so the scan meets no expired bottle (lazy expiry).
//
// The screen is ordered by cost: the mask column rejects most bottles in one
// word operation without touching them; survivors take PrefilterMatch for
// the optional/γ count, then the origin and exclusion-window checks. Every
// live bottle visited counts as scanned, seen or not. Each bottle that passes
// everything reserves one slot from the budget before it is collected; once
// the budget is spent the scan stops immediately — without the shared bound
// every shard would collect up to the full query limit, handing the merge up
// to shards×Limit bottles of which all but Limit are discarded.
func (s *shard) sweep(q *SweepQuery, seen *SeenWindow, now time.Time, remaining *atomic.Int64) shardSweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out shardSweep
scan:
	for _, rs := range q.Residues {
		g := s.byPrime[rs.Prime]
		if g != nil && g.due(now) {
			g = s.compactLocked(rs.Prime, g, now)
		}
		if g == nil {
			continue
		}
		have := rs.Bits[0] &^ deadSlot
		for i, need := range g.need {
			if need&^have != 0 {
				if need != deadSlot {
					out.scanned++
					out.rejected++
				}
				continue
			}
			out.scanned++
			b := g.bottles[i]
			if !b.pkg.PrefilterMatch(rs) {
				out.rejected++
				continue
			}
			if b.origin != "" && b.origin == q.ExcludeOrigin || seen != nil && seen.Has(b.id) {
				continue
			}
			if remaining.Add(-1) < 0 {
				// A bottle passed but the sweep's budget is spent: the result
				// is truncated and nothing more can be collected, so stop
				// scanning — the next sweep (with this tick's IDs in its seen
				// window) picks up where the budget ran out.
				out.truncated = true
				break scan
			}
			out.bottles = append(out.bottles, SweptBottle{ID: b.id, Raw: b.raw})
		}
	}
	s.stats.Sweeps++
	s.stats.Scanned += uint64(out.scanned)
	s.stats.Rejected += uint64(out.rejected)
	s.stats.Returned += uint64(len(out.bottles))
	return out
}

// compactLocked squeezes the dead slots out of a prime group, expiring (and
// unlinking from the ID index) every bottle past its deadline on the way, and
// returns the group, or nil once it is empty and gone. It is the single
// compaction path shared by removal, lazy (sweep) and background (reap)
// expiry. A group left under a quarter of its capacity is copied into smaller
// slices, so a burst's high-water mark is not held until the next one. The
// caller holds mu.
func (s *shard) compactLocked(prime uint32, g *primeGroup, now time.Time) *primeGroup {
	// Survivors are re-added in place: each lands at or before the slot it
	// is read from.
	old := g.bottles
	g.bottles, g.need, g.dead, g.expiry = old[:0], g.need[:0], 0, time.Time{}
	for _, b := range old {
		if b == nil {
			continue
		}
		if b.expired(now) {
			s.dropLocked(b)
			continue
		}
		g.add(b)
	}
	kept := len(g.bottles)
	if kept == 0 {
		delete(s.byPrime, prime)
		return nil
	}
	clear(old[kept:])
	if kept < cap(g.bottles)/4 {
		g.bottles, g.need = slices.Clone(g.bottles), slices.Clone(g.need)
	}
	return g
}

// dropLocked expires a bottle: it leaves the ID index and its reply queue.
// Only compaction calls it, which unlinks the bottle itself. The caller holds
// mu.
func (s *shard) dropLocked(b *bottle) {
	delete(s.bottles, b.id)
	delete(s.replies, b.id)
	s.stats.Expired++
	if s.logRec != nil {
		s.logRec(walRecExpire, []byte(b.id))
	}
}

// pushReply queues a reply for a racked bottle.
func (s *shard) pushReply(id string, raw []byte, maxQueue int, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushReplyLocked(id, raw, maxQueue, now)
}

// pushReplyBatch queues the posts at the given indices under one lock
// acquisition, returning one outcome per index in order.
func (s *shard) pushReplyBatch(posts []ReplyPost, idxs []int, maxQueue int, now time.Time) []error {
	errs := make([]error, len(idxs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, idx := range idxs {
		errs[i] = s.pushReplyLocked(posts[idx].RequestID, posts[idx].Raw, maxQueue, now)
	}
	return errs
}

// pushReplyLocked is the reply-queueing path shared by pushReply and
// pushReplyBatch. The caller holds mu.
func (s *shard) pushReplyLocked(id string, raw []byte, maxQueue int, now time.Time) error {
	b, ok := s.bottles[id]
	if !ok || b.expired(now) {
		return ErrUnknownBottle
	}
	if len(s.replies[id]) >= maxQueue {
		s.stats.RepliesDropped++
		return nil
	}
	s.replies[id] = append(s.replies[id], append([]byte(nil), raw...))
	s.stats.RepliesIn++
	if s.logRec != nil {
		s.encBuf = AppendReplyPost(s.encBuf[:0], id, raw)
		s.logRec(walRecReply, s.encBuf)
	}
	return nil
}

// drainReplies returns and clears the reply queue for a racked bottle.
// caller is the authenticated identity draining it (empty: anonymous).
func (s *shard) drainReplies(id, caller string) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainRepliesLocked(id, caller)
}

// drainBatch drains the reply queues of the bottles at the given indices
// under one lock acquisition, writing each outcome back to results. Draining
// stops once the byte budget is spent — remaining items keep their queues and
// are marked ErrFetchBudget — and the leftover budget is returned.
func (s *shard) drainBatch(ids []string, idxs []int, results []FetchResult, budget int, caller string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, idx := range idxs {
		if b, ok := s.bottles[ids[idx]]; ok && !ownerAllows(b.owner, caller) {
			// Refused before sizing: an imposter must not learn whether the
			// queue would have fit the budget, let alone drain it.
			results[idx].Err = ErrUnauthorized
			continue
		}
		size := 0
		for _, raw := range s.replies[ids[idx]] {
			size += len(raw)
		}
		// Sized before draining so the budget is never overshot; a queue that
		// alone exceeds the whole budget is as unfetchable as it would be
		// through a single Fetch's frame cap.
		if size > budget {
			results[idx].Err = ErrFetchBudget
			continue
		}
		results[idx].Replies, results[idx].Err = s.drainRepliesLocked(ids[idx], caller)
		budget -= size
	}
	return budget
}

// drainRepliesLocked is the drain path shared by drainReplies and drainBatch.
// The caller holds mu.
func (s *shard) drainRepliesLocked(id, caller string) ([][]byte, error) {
	b, ok := s.bottles[id]
	if !ok {
		return nil, ErrUnknownBottle
	}
	if !ownerAllows(b.owner, caller) {
		return nil, ErrUnauthorized
	}
	out := s.replies[id]
	delete(s.replies, id)
	s.stats.RepliesOut += uint64(len(out))
	if s.logRec != nil && len(out) > 0 {
		s.logRec(walRecDrain, []byte(id))
	}
	return out, nil
}

// peek returns copies of a live bottle's raw package and queued replies
// without mutating anything; expired bottles answer as absent.
func (s *shard) peek(id string, now time.Time) (raw []byte, owner string, replies [][]byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, held := s.bottles[id]
	if !held || b.expired(now) {
		return nil, "", nil, false
	}
	raw = append([]byte(nil), b.raw...)
	for _, rep := range s.replies[id] {
		replies = append(replies, append([]byte(nil), rep...))
	}
	return raw, b.owner, replies, true
}

// remove unlinks a bottle by ID; caller is the authenticated identity
// removing it (empty: anonymous). An imposter gets ErrUnauthorized and the
// bottle stays racked. The bottle's slot goes dead at once, so nothing the
// rack holds keeps the bottle alive; its group compacts when due.
func (s *shard) remove(id, caller string, now time.Time) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bottles[id]
	if !ok {
		return false, nil
	}
	if !ownerAllows(b.owner, caller) {
		return false, ErrUnauthorized
	}
	delete(s.bottles, id)
	delete(s.replies, id)
	if s.logRec != nil {
		s.logRec(walRecRemove, []byte(id))
	}
	g := s.byPrime[b.prime]
	g.bottles[b.slot], g.need[b.slot] = nil, deadSlot
	if g.dead++; g.due(now) {
		s.compactLocked(b.prime, g, now)
	}
	return true, nil
}

// installReplies restores a recovered reply queue for a racked bottle; it is
// only called during recovery, before the rack serves traffic.
func (s *shard) installReplies(id string, raws [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bottles[id]; !ok {
		return
	}
	if len(raws) > 0 {
		s.replies[id] = raws
	}
}

// reap removes every expired bottle and compacts the prime groups.
func (s *shard) reap(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.stats.Expired
	for p, g := range s.byPrime {
		s.compactLocked(p, g, now)
	}
	return int(s.stats.Expired - before)
}

// primes lists the primes with live bottles on this shard.
func (s *shard) primes() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint32, 0, len(s.byPrime))
	for p := range s.byPrime {
		out = append(out, p)
	}
	return out
}

// snapshot copies the shard's counters.
func (s *shard) snapshot() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.stats
	ss.Held = len(s.bottles)
	return ss
}
