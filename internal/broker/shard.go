package broker

import (
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
	// gone marks a bottle removed from the ID index but not yet compacted out
	// of its prime group slice.
	gone bool
}

// expired reports whether the bottle is past its validity window.
func (b *bottle) expired(now time.Time) bool {
	return !b.expiresAt.IsZero() && now.After(b.expiresAt)
}

// ownerAllows reports whether caller may drain or remove an owned bottle:
// open ownership (no recorded owner) admits everyone, otherwise only the
// submitter itself. The check is deliberately not applied to Reply — replies
// come from other identities by design.
func ownerAllows(owner, caller string) bool { return owner == "" || owner == caller }

// shard is one lock domain of the rack: an ID index, insertion-ordered prime
// groups for sweeps, per-request reply queues, and counters. All fields are
// guarded by mu; sweeps hold the lock for the duration of one shard scan,
// which is the batching unit of the worker pool.
type shard struct {
	mu      sync.Mutex
	bottles map[string]*bottle
	byPrime map[uint32][]*bottle
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
		byPrime: make(map[uint32][]*bottle),
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
	s.byPrime[b.prime] = append(s.byPrime[b.prime], b)
	s.stats.Submitted++
	if s.logRec != nil {
		s.logRec(walRecSubmit, b.raw)
	}
	return nil
}

// shardSweep is the per-shard slice of a sweep result.
type shardSweep struct {
	idx       int
	bottles   []SweptBottle
	scanned   int
	rejected  int
	truncated bool
}

// sweep screens the shard's bottles against the query; seen is the query's
// exclusion window (nil: none), shared read-only across the sweep's shard
// jobs, and remaining is the query's whole-rack collection
// budget shared by every shard job of the sweep. Expired bottles encountered
// along the way are unlinked (lazy expiry). Each passing bottle reserves one
// slot from the budget before it is collected; once the budget is spent the
// scan stops immediately — without the shared bound every shard would collect
// up to the full query limit, handing the merge up to shards×Limit bottles of
// which all but Limit are discarded.
func (s *shard) sweep(q *SweepQuery, seen *SeenWindow, now time.Time, remaining *atomic.Int64) shardSweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Sweeps++
	var out shardSweep
	for _, rs := range q.Residues {
		for _, b := range s.compactLocked(rs.Prime, now) {
			if b.origin != "" && b.origin == q.ExcludeOrigin {
				continue
			}
			if seen != nil && seen.Has(b.id) {
				continue
			}
			s.stats.Scanned++
			out.scanned++
			if !b.pkg.PrefilterMatch(rs) {
				s.stats.Rejected++
				out.rejected++
				continue
			}
			if remaining.Add(-1) < 0 {
				// A bottle passed but the sweep's budget is spent: the result
				// is truncated and nothing more can be collected, so stop
				// scanning — the next sweep (with this tick's IDs in its seen
				// window) picks up where the budget ran out.
				out.truncated = true
				return out
			}
			out.bottles = append(out.bottles, SweptBottle{ID: b.id, Raw: b.raw})
			s.stats.Returned++
		}
	}
	return out
}

// compactLocked removes gone and expired bottles from a prime group in place
// (unlinking expired ones from the ID index) and returns the surviving
// bottles. It is the single compaction path shared by lazy (sweep) and
// background (reap) expiry. The caller holds mu.
func (s *shard) compactLocked(prime uint32, now time.Time) []*bottle {
	group := s.byPrime[prime]
	if len(group) == 0 {
		return nil
	}
	kept := group[:0]
	for _, b := range group {
		if b.gone {
			continue
		}
		if b.expired(now) {
			s.dropLocked(b)
			continue
		}
		kept = append(kept, b)
	}
	for i := len(kept); i < len(group); i++ {
		group[i] = nil
	}
	if len(kept) == 0 {
		delete(s.byPrime, prime)
		return nil
	}
	s.byPrime[prime] = kept
	return kept
}

// dropLocked removes an expired bottle from the ID index and its reply queue.
// The caller holds mu and is responsible for unlinking it from prime groups.
func (s *shard) dropLocked(b *bottle) {
	if b.gone {
		return
	}
	b.gone = true
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
// bottle stays racked.
func (s *shard) remove(id, caller string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bottles[id]
	if !ok {
		return false, nil
	}
	if !ownerAllows(b.owner, caller) {
		return false, ErrUnauthorized
	}
	b.gone = true
	delete(s.bottles, id)
	delete(s.replies, id)
	if s.logRec != nil {
		s.logRec(walRecRemove, []byte(id))
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
	primes := make([]uint32, 0, len(s.byPrime))
	for p := range s.byPrime {
		primes = append(primes, p)
	}
	for _, p := range primes {
		s.compactLocked(p, now)
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
