package broker

import (
	"math/bits"
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
	// raw is the marshalled package exactly as submitted; pkg is the broker's
	// header view decoded over raw (it aliases raw, which the bottle owns),
	// and the one copy of the bottle's prime and deadline.
	raw []byte
	pkg core.PackageView
	// need, opt and gate are the bottle's screen (necessaryMask,
	// optionalMask), derived once by bottleFromRaw: need is sliced into its
	// prime group's residue rows, opt and gate are its entries in the group's
	// columns. slot is its index in the group, kept current by compaction.
	// Narrow slot and gate keep the bottle in a 256-byte allocation.
	need, opt uint64
	slot      int32
	gate      uint8
}

// maskPrimes bounds the primes that get residue masks: below it every residue
// is a bit of one word. Larger primes store zero masks and no exact bit, which
// the screen always passes, so their bottles go to PrefilterMatch alone — a
// submitter's choice of prime never sizes anything the rack keeps.
const maskPrimes = 64

// rowWords is the length of one residue row of a prime's group: the live
// word, then one word per residue of a prime below maskPrimes.
func rowWords(prime uint32) int {
	if prime >= maskPrimes {
		return 1
	}
	return 1 + int(prime)
}

// necessaryMask is the presence bitmap of a package's necessary remainders,
// in the shape of ResidueSet.Bits[0]: a candidate whose first word lacks any
// of its bits fails the presence form of Eqs. 6–7 on a necessary position,
// which PrefilterMatch would reject too. The rack keeps it sliced by residue
// in its prime group's rows, and on the bottle to rebuild them.
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

// gateExact is the exact bit of a gate byte. The bits below it hold γ clamped
// to gateExact-1, which no one-word count of missing residues exceeds, so the
// clamp never changes a verdict.
const gateExact = 1 << 7

// optionalMask is the presence bitmap of a package's optional remainders, in
// the same shape as necessaryMask, and its gate byte: γ, plus gateExact when
// the optional remainders are pairwise distinct. A candidate lacking k of the
// mask's bits misses at least k optional positions, so k > γ fails Eqs. 6–7
// as PrefilterMatch would; with distinct remainders it misses exactly k, so a
// bottle that passes both masks and has the exact bit passes PrefilterMatch.
func optionalMask(v *core.PackageView) (uint64, uint8) {
	if v.Prime >= maskPrimes {
		return 0, 0
	}
	var m uint64
	n := 0
	for i := 0; i < v.AttributeCount(); i++ {
		if v.IsOptional(i) {
			m |= 1 << v.Remainder(i)
			n++
		}
	}
	gate := uint8(min(v.MaxUnknown, gateExact-1))
	if bits.OnesCount64(m) == n {
		gate |= gateExact
	}
	return m, gate
}

// primeGroup is one prime's bottles on a shard in insertion order, with their
// screen beside them. The necessary masks are bit-sliced into rows, one per
// 64 slots and rowWords(prime) words each, back to back in rows: a row's
// first word is its live word, whose bit i is set while slot i holds a
// bottle, and the word for residue r has bit i set when slot i's necessary
// mask holds r (bit-sliced signatures, Faloutsos & Chan, VLDB 1988). The
// optional mask, the gate byte and the arrival stamp are per-slot columns.
// The sweep's reject path reads the rows and columns and never the bottle,
// which it reads only for a slot that passes both masks. A removed or
// expired bottle leaves a dead slot (nil bottle, live bit clear) until the
// group compacts. Slots are appended under the shard lock that stamps them
// and compaction keeps their order, so the seq column only ever rises.
type primeGroup struct {
	bottles []*bottle
	rows    []uint64
	opt     []uint64
	gate    []uint8
	seq     []uint64
	dead    int
	// expiry is the earliest deadline among the group's bottles (zero: none
	// expires). A removed bottle can leave it early, which costs one
	// compaction that then recomputes it.
	expiry time.Time
}

// deadShare is the share of a group's slots (one in so many) that may be dead
// before it compacts: removal then costs a constant number of slot moves
// however often the group is swept, and a dead slot costs the scan one bit
// of its row.
const deadShare = 4

func (g *primeGroup) add(b *bottle, seq uint64) {
	slot, w := len(g.bottles), rowWords(b.pkg.Prime)
	if slot%64 == 0 {
		g.rows = append(g.rows, make([]uint64, w)...)
	}
	row, bit := g.rows[slot/64*w:], uint64(1)<<(slot%64)
	row[0] |= bit
	for m := b.need; m != 0; m &= m - 1 {
		row[1+bits.TrailingZeros64(m)] |= bit
	}
	b.slot = int32(slot)
	g.bottles = append(g.bottles, b)
	g.opt = append(g.opt, b.opt)
	g.gate = append(g.gate, b.gate)
	g.seq = append(g.seq, seq)
	if exp := b.pkg.ExpiresAt; !exp.IsZero() && (g.expiry.IsZero() || exp.Before(g.expiry)) {
		g.expiry = exp
	}
}

// due reports whether the group holds too many dead slots or may hold an
// expired bottle.
func (g *primeGroup) due(now time.Time) bool {
	return g.dead*deadShare > len(g.bottles) || (!g.expiry.IsZero() && now.After(g.expiry))
}

// stamp draws the next arrival stamp from last: the clock's nanoseconds, or
// one past the previous stamp when the clock has not moved past it. Stamps
// rise on every rack, and racks stamp copies of one bottle at about the same
// time, so a fan-out can merge several racks' pages in stamp order.
func stamp(last *atomic.Uint64, now int64) uint64 {
	for {
		prev := last.Load()
		next := max(prev+1, uint64(max(now, 0)))
		if last.CompareAndSwap(prev, next) {
			return next
		}
	}
}

// ownerAllows reports whether caller may drain or remove an owned bottle:
// open ownership (no recorded owner) admits everyone, otherwise only the
// submitter itself. The check is deliberately not applied to Reply — replies
// come from other identities by design.
func ownerAllows(owner, caller string) bool { return owner == "" || owner == caller }

// shard is one lock domain of the rack: an ID index, insertion-ordered prime
// groups for sweeps, per-request reply queues, and counters. All fields but
// returned are guarded by mu; sweeps hold the lock for the duration of one
// shard scan, between whose scans a sweep checks its context.
type shard struct {
	mu      sync.Mutex
	bottles map[string]*bottle
	byPrime map[uint32]*primeGroup
	replies map[string][][]byte
	stats   ShardStats
	// returned counts the bottles of this shard that sweep results handed
	// out; the merge that settles a result adds to it, without mu.
	returned atomic.Uint64
	// seq is the rack's last arrival stamp, shared by every shard.
	seq *atomic.Uint64

	// logRec, when set, appends one write-ahead-log record for a mutation.
	// It is invoked inside the critical section that applies the mutation,
	// so the log's order equals the apply order for any bottle (both orders
	// serialize on this mutex); durability waiting happens outside the lock.
	// Nil on in-memory racks and during recovery replay.
	logRec func(typ byte, payload []byte)

	// encBuf is scratch for staging logRec payloads (guarded by mu). logRec
	// copies the payload before returning (wal.Log.Enqueue encodes it into
	// the log's staging buffer), so the scratch is free again as soon as the
	// call returns.
	encBuf []byte
}

func newShard(seq *atomic.Uint64) *shard {
	return &shard{
		seq:     seq,
		bottles: make(map[string]*bottle),
		byPrime: make(map[uint32]*primeGroup),
		replies: make(map[string][][]byte),
	}
}

// visit runs f for each item of keys (shardKey) under the shard's lock: the
// one place a list's items meet a shard (Rack.eachShard).
func (s *shard) visit(keys []uint64, f func(sh *shard, i int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		f(s, int(uint32(k)))
	}
}

// putLocked racks a bottle, rejecting duplicate IDs; now is the rack's
// clock. It is the one insertion path: Submit, WAL replay and handoff ingest
// all rack through it. It stamps the bottle's arrival under mu: a sweep that
// reads the last stamp at or past this one takes this lock after it, and so
// finds the bottle. The caller holds mu.
func (s *shard) putLocked(b *bottle, now int64) error {
	if _, dup := s.bottles[b.id]; dup {
		s.stats.Duplicates++
		return ErrDuplicateBottle
	}
	s.bottles[b.id] = b
	g := s.byPrime[b.pkg.Prime]
	if g == nil {
		g = &primeGroup{}
		s.byPrime[b.pkg.Prime] = g
	}
	g.add(b, stamp(s.seq, now))
	s.stats.Submitted++
	if s.logRec != nil {
		s.logRec(RecSubmit, b.raw)
	}
	return nil
}

// shardSweep is the per-shard slice of a sweep result.
type shardSweep struct {
	found     []found
	scanned   int
	rejected  int
	truncated bool
}

// found is one bottle a shard collected for a sweep, with its arrival
// sequence.
type found struct {
	b   *bottle
	seq uint64
}

// sweep screens the shard's bottles against the query and collects those
// that pass, were stamped in (after, high] and are not excluded; seen is the
// query's one-off exclusion list (nil: none), read-only here. A group whose
// earliest deadline has passed is compacted first, so the scan meets no
// expired bottle (lazy expiry).
//
// The screen is ordered by cost and takes a group 64 slots at a time: from a
// row's live word it clears the rows of the residues the candidate lacks,
// which rejects every slot missing a necessary residue without touching it.
// Each surviving slot is then rejected from the columns when the candidate
// lacks more than γ of its distinct optional residues. Only a survivor of
// both is read: one with the exact bit passes the prefilter outright, any
// other takes PrefilterMatch, and a pass then takes the cursor check, from
// the sequence column, and the origin and exclusion checks. Every live bottle
// visited counts as scanned, whatever its sequence, and every one the
// prefilter fails as rejected: a row's live bits are counted, and the
// rejects are what the passes leave. A group's sequences rise, so its first
// Limit bottles collected are its Limit lowest: at a further one the group
// stops, the sweep is truncated, and the merge keeps the Limit lowest of all
// groups.
func (s *shard) sweep(q *SweepQuery, seen *SeenWindow, after, high uint64, now time.Time) shardSweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out shardSweep
	for _, rs := range q.Residues {
		g := s.byPrime[rs.Prime]
		if g != nil && g.due(now) {
			g = s.compactLocked(rs.Prime, g, now)
		}
		if g == nil {
			continue
		}
		// The offsets in a row of the residues the candidate lacks.
		have, w := rs.Bits[0], rowWords(rs.Prime)
		var lackBuf [maskPrimes]int
		lacks := lackBuf[:0]
		for r := range w - 1 {
			if have&(1<<r) == 0 {
				lacks = append(lacks, 1+r)
			}
		}
		opt, gate, seq := g.opt, g.gate, g.seq
		scanned, passed, taken := 0, 0, 0
	rows:
		for base, k := 0, 0; k < len(g.rows); base, k = base+64, k+w {
			row := g.rows[k : k+w]
			live := row[0]
			pass := live
			for _, o := range lacks {
				pass &^= row[o]
			}
			scanned += bits.OnesCount64(live)
			for ; pass != 0; pass &= pass - 1 {
				j := bits.TrailingZeros64(pass)
				i := base + j
				if bits.OnesCount64(opt[i]&^have) > int(gate[i]&^gateExact) {
					continue
				}
				if gate[i]&gateExact == 0 && !g.bottles[i].pkg.PrefilterMatch(rs) {
					continue
				}
				passed++
				// The cursor first: it reads a column, the exclusions the bottle.
				if seq[i] <= after || seq[i] > high {
					continue
				}
				b := g.bottles[i]
				if b.origin != "" && b.origin == q.ExcludeOrigin || seen != nil && seen.Has(b.id) {
					continue
				}
				if taken == q.Limit {
					// The group's Limit lowest are collected; the counters cover
					// the slots visited, this one included.
					scanned -= bits.OnesCount64(live >> j >> 1)
					out.truncated = true
					break rows
				}
				taken++
				out.found = append(out.found, found{b: b, seq: seq[i]})
			}
		}
		out.scanned += scanned
		out.rejected += scanned - passed
	}
	s.stats.Sweeps++
	s.stats.Scanned += uint64(out.scanned)
	s.stats.Rejected += uint64(out.rejected)
	return out
}

// compactLocked squeezes the dead slots out of a prime group, expiring (and
// unlinking from the ID index) every bottle past its deadline on the way, and
// returns the group, or nil once it is empty and gone. It is the single
// compaction path shared by removal, lazy (sweep) and background (reap)
// expiry. The rows are rebuilt from the survivors' necessary masks. A group
// left under a quarter of its capacity is copied into smaller slices, so a
// burst's high-water mark is not held until the next one. The caller holds
// mu.
func (s *shard) compactLocked(prime uint32, g *primeGroup, now time.Time) *primeGroup {
	// Survivors are re-added in place: each lands at or before the slot it
	// is read from, and its row is cleared before it is rewritten.
	old, seq := g.bottles, g.seq
	g.bottles, g.rows, g.opt, g.gate, g.seq = old[:0], g.rows[:0], g.opt[:0], g.gate[:0], seq[:0]
	g.dead, g.expiry = 0, time.Time{}
	for i, b := range old {
		if b == nil {
			continue
		}
		if b.pkg.Expired(now) {
			s.dropLocked(b)
			continue
		}
		g.add(b, seq[i])
	}
	kept := len(g.bottles)
	if kept == 0 {
		delete(s.byPrime, prime)
		return nil
	}
	clear(old[kept:])
	if kept < cap(g.bottles)/4 {
		g.bottles, g.rows = slices.Clone(g.bottles), slices.Clone(g.rows)
		g.opt, g.gate, g.seq = slices.Clone(g.opt), slices.Clone(g.gate), slices.Clone(g.seq)
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
		s.encBuf = append(s.encBuf[:0], b.id...)
		s.logRec(recExpire, s.encBuf)
	}
}

// pushReplyLocked queues a reply for a racked bottle: the one reply path,
// of Reply, ReplyBatch, WAL replay and handoff ingest. The caller holds mu.
func (s *shard) pushReplyLocked(id string, raw []byte, maxQueue int, now time.Time) error {
	b, ok := s.bottles[id]
	if !ok || b.pkg.Expired(now) {
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
		s.logRec(RecReply, s.encBuf)
	}
	return nil
}

// drainLocked returns and clears the reply queue of a racked bottle when the
// queue fits *budget, and spends the queue's size in bytes from *budget: the
// one drain path, of Fetch, FetchBatch and WAL replay. caller is the identity
// draining it (empty: anonymous). A queue over budget is left whole and
// answers ErrFetchBudget; a queue that alone exceeds a FetchBatch's whole
// budget is as unfetchable as it would be through a single Fetch's frame cap.
// The caller holds mu.
func (s *shard) drainLocked(id, caller string, budget *int) ([][]byte, error) {
	b, ok := s.bottles[id]
	if !ok {
		return nil, ErrUnknownBottle
	}
	if !ownerAllows(b.owner, caller) {
		// Refused before sizing: an imposter must not learn whether the
		// queue would have fit the budget, let alone drain it.
		return nil, ErrUnauthorized
	}
	out, size := s.replies[id], 0
	for _, raw := range out {
		size += len(raw)
	}
	if size > *budget {
		return nil, ErrFetchBudget
	}
	*budget -= size
	delete(s.replies, id)
	s.stats.RepliesOut += uint64(len(out))
	if s.logRec != nil && len(out) > 0 {
		s.encBuf = append(s.encBuf[:0], id...)
		s.logRec(recDrain, s.encBuf)
	}
	return out, nil
}

// peek returns copies of a live bottle's raw package and queued replies
// without mutating anything; expired bottles answer as absent.
func (s *shard) peek(id string, now time.Time) (raw []byte, owner string, replies [][]byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, held := s.bottles[id]
	if !held || b.pkg.Expired(now) {
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
// bottle stays racked. The bottle's slot goes dead at once (its pointer
// cleared, its live bit too), so nothing the rack holds keeps the bottle
// alive and no sweep screens it; its group compacts when due.
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
		s.encBuf = append(s.encBuf[:0], id...)
		s.logRec(RecRemove, s.encBuf)
	}
	g := s.byPrime[b.pkg.Prime]
	g.bottles[b.slot] = nil
	g.rows[int(b.slot)/64*rowWords(b.pkg.Prime)] &^= 1 << (b.slot % 64)
	if g.dead++; g.due(now) {
		s.compactLocked(b.pkg.Prime, g, now)
	}
	return true, nil
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
	ss.Returned = s.returned.Load()
	return ss
}
