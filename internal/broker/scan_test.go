package broker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"sealedbottle/internal/core"
	"sealedbottle/internal/crypt"
)

// synthPackage marshals a request package with random remainders modulo
// prime, a random optional mask and a random γ. The rack reads only the
// header, so the hint matrix is built over random digests and the sealed
// message is one byte.
func synthPackage(tb testing.TB, rng *rand.Rand, prime uint32, id, origin string, created, expires time.Time) []byte {
	tb.Helper()
	n := 1 + rng.Intn(10)
	pkg := &core.RequestPackage{
		ID: id, Origin: origin, Mode: core.SealModeVerifiable, Prime: prime,
		Sealed: []byte{1}, CreatedAt: created, ExpiresAt: expires,
	}
	for i := 0; i < n; i++ {
		pkg.Remainders = append(pkg.Remainders, uint32(rng.Intn(int(prime))))
		pkg.Optional = append(pkg.Optional, rng.Intn(2) == 0)
	}
	if opt := pkg.OptionalCount(); opt > 0 && rng.Intn(2) == 0 {
		pkg.MaxUnknown = 1 + rng.Intn(opt)
		vec := make(crypt.ProfileVector, n)
		for i := range vec {
			rng.Read(vec[i][:])
		}
		var err error
		if pkg.Hint, err = core.NewHintMatrix(&detReader{rng: rng}, vec, pkg.Optional, pkg.MaxUnknown); err != nil {
			tb.Fatal(err)
		}
	}
	raw, err := pkg.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// synthResidues is a candidate's presence set with each residue present at
// the given rate.
func synthResidues(rng *rand.Rand, prime uint32, rate float64) core.ResidueSet {
	var present []uint32
	for r := uint32(0); r < prime; r++ {
		if rng.Float64() < rate {
			present = append(present, r)
		}
	}
	return core.NewResidueSet(prime, present)
}

// TestMaskScreenSound is the screen columns' property, with the sweep's
// predicate over them: whenever the necessary or the optional mask rejects a
// bottle, PrefilterMatch rejects it too, so the screen adds no false
// dismissal; and whenever a bottle with the exact bit passes both masks,
// PrefilterMatch passes it, so skipping it adds no false pass. Primes from 3
// to past one word; synthPackage repeats remainders and often has γ = 0. Each
// branch must be met, so the property cannot hold vacuously.
func TestMaskScreenSound(t *testing.T) {
	primes := []uint32{3, 5, 11, 31, 61, 67, 97, 131}
	epoch := newTestClock().Now()
	var needRejects, optRejects, exactPasses, inexact int
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prime := primes[rng.Intn(len(primes))]
		raw := synthPackage(t, rng, prime, "id", "origin", epoch, epoch.Add(time.Hour))
		b, err := bottleFromRaw(raw, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if prime >= maskPrimes && (b.need != 0 || b.opt != 0 || b.gate&gateExact != 0) {
			t.Errorf("prime %d: masks %#x/%#x, gate %#x, want none and no exact bit", prime, b.need, b.opt, b.gate)
			return false
		}
		rs := synthResidues(rng, prime, rng.Float64())
		have := rs.Bits[0]
		match := b.pkg.PrefilterMatch(rs)
		switch {
		case b.need&^have != 0:
			needRejects++
		case bits.OnesCount64(b.opt&^have) > int(b.gate&^gateExact):
			optRejects++
		case b.gate&gateExact != 0:
			exactPasses++
			if !match {
				t.Errorf("seed %d: an exact bottle passes both masks and fails PrefilterMatch", seed)
				return false
			}
			return true
		default:
			inexact++
			return true
		}
		if match {
			t.Errorf("seed %d: the masks reject a bottle PrefilterMatch passes", seed)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	t.Logf("rejected %d + %d, exact passes %d, left to PrefilterMatch %d", needRejects, optRejects, exactPasses, inexact)
	if needRejects == 0 || optRejects == 0 || exactPasses == 0 || inexact == 0 {
		t.Fatalf("a branch was never met: rejected %d + %d, exact passes %d, left to PrefilterMatch %d", needRejects, optRejects, exactPasses, inexact)
	}
}

// refEntry is one bottle of the reference rack, with the arrival sequence
// the rack stamped it with.
type refEntry struct {
	b    *bottle
	seq  uint64
	gone bool
}

// refRack keeps a rack's bottles the way the scan held them before the mask
// column — per shard and prime, in insertion order, with a gone flag — and
// screens them with that scan's loop.
type refRack struct {
	index  map[*shard]int
	groups []map[uint32][]*refEntry
	byID   map[string]*refEntry
}

func newRefRack(r *Rack) *refRack {
	m := &refRack{index: make(map[*shard]int), byID: make(map[string]*refEntry)}
	for i, sh := range r.shards {
		m.index[sh] = i
		m.groups = append(m.groups, make(map[uint32][]*refEntry))
	}
	return m
}

func (m *refRack) submit(r *Rack, raw []byte, now time.Time) {
	b, err := bottleFromRaw(raw, now)
	if err != nil {
		return
	}
	e := &refEntry{b: b, seq: seqOf(r, b.id)}
	g := m.groups[m.index[r.shardFor(b.id)]]
	g[b.pkg.Prime] = append(g[b.pkg.Prime], e)
	m.byID[b.id] = e
}

// seqOf reads the arrival sequence a rack stamped a held bottle with.
func seqOf(r *Rack, id string) uint64 {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.bottles[id]
	return sh.byPrime[b.pkg.Prime].seq[b.slot]
}

func (m *refRack) remove(id string) {
	if e, ok := m.byID[id]; ok {
		e.gone = true
		delete(m.byID, id)
	}
}

func (m *refRack) reap(now time.Time) {
	for id, e := range m.byID {
		if e.b.pkg.Expired(now) {
			m.remove(id)
		}
	}
}

// refSweep is the reference's answer to one query.
type refSweep struct {
	bottles []*refEntry
	// scanned and rejected count every live bottle visited and those of them
	// PrefilterMatch fails.
	scanned, rejected int
	truncated         bool
	cursor            uint64
}

// sweep is the old loop — expired bottles dropped as the group is walked,
// then PrefilterMatch, origin and seen list — with the cursor: a passing
// bottle is returned when stamped in (after, high], a group stops at the
// first such bottle past the limit, and past the limit the Limit lowest
// sequences are kept, the highest of them the cursor. The counters follow
// today's definition.
func (m *refRack) sweep(q SweepQuery, seen func(string) bool, after, high uint64, now time.Time) refSweep {
	out := refSweep{cursor: high}
	for _, groups := range m.groups {
		for _, rs := range q.Residues {
			taken := 0
			for _, e := range groups[rs.Prime] {
				if e.gone {
					continue
				}
				if e.b.pkg.Expired(now) {
					m.remove(e.b.id)
					continue
				}
				out.scanned++
				if !e.b.pkg.PrefilterMatch(rs) {
					out.rejected++
					continue
				}
				if e.b.origin != "" && e.b.origin == q.ExcludeOrigin || seen(e.b.id) || e.seq <= after || e.seq > high {
					continue
				}
				if taken == q.Limit {
					out.truncated = true
					break
				}
				taken++
				out.bottles = append(out.bottles, e)
			}
		}
	}
	if len(out.bottles) > q.Limit {
		out.truncated = true
	}
	if !out.truncated {
		return out
	}
	var seqs []uint64
	for _, e := range out.bottles {
		seqs = append(seqs, e.seq)
	}
	slices.Sort(seqs)
	out.cursor = seqs[min(q.Limit, len(seqs))-1]
	out.bottles = slices.DeleteFunc(out.bottles, func(e *refEntry) bool { return e.seq > out.cursor })
	return out
}

// TestSweepMatchesReference runs seeded histories of submits, batches,
// removals, clock advances, reaps and sweeps — with a sweeper's cursor, stale
// cursors, ad-hoc seen lists, excluded origins and truncating limits, over a
// prime with residue rows and one without — against a rack and the
// reference. Every sweep must return the reference's bottles in its order
// with its exact counters and cursor, truncated or not, on one shard or
// several. The edge histories lay one group out across the 64-slot words of
// its rows (see checkSweepEdges). Meant for -race -count=10 as well.
func TestSweepMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				checkSweepHistory(t, shards, seed)
			})
		}
	}
	// 61 is the largest prime with residue rows, 67 the smallest without.
	for _, prime := range []uint32{11, 61, 67} {
		t.Run(fmt.Sprintf("edges/prime=%d", prime), func(t *testing.T) {
			checkSweepEdges(t, prime)
		})
	}
}

// checkSweepEdges racks one group of a prime on one shard, where a bottle's
// slot is its submission index, and sweeps it at the edges of the rows' 64-slot
// words: full, with dead slots at 63, 64, 127 and 128, then compacted and
// grown again. Each layout is swept by a candidate holding every residue at
// every limit, so a truncating limit lands on every slot (63 and 127, the
// last of a word, included); by each single-residue candidate, which lacks
// every row but one; and by random ones.
func checkSweepEdges(t *testing.T, prime uint32) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(prime)))
	clock := newTestClock()
	rack := newTestRack(clock, 1)
	defer rack.Close()
	ref := newRefRack(rack)
	origins := []string{"", "alice", "bob"}
	var ids []string
	submit := func(n int) {
		for range n {
			id := fmt.Sprintf("edge-%04d", len(ids))
			ids = append(ids, id)
			now := clock.Now()
			raw := synthPackage(t, rng, prime, id, origins[rng.Intn(len(origins))], now, now.Add(time.Hour))
			if _, err := rack.Submit(ctx, raw); err != nil {
				t.Fatal(err)
			}
			ref.submit(rack, raw, now)
		}
	}
	// group reads the group under its shard's lock.
	group := func(read func(g *primeGroup)) {
		sh := rack.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		read(sh.byPrime[prime])
	}
	remove := func(id string) {
		if _, err := rack.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
		ref.remove(id)
	}
	step := 0
	sweep := func(rs core.ResidueSet, limit int, exclude string) SweepResult {
		q := SweepQuery{Residues: []core.ResidueSet{rs}, Limit: limit, ExcludeOrigin: exclude}
		high := rack.seq.Load()
		res, err := rack.Sweep(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.normalize(); err != nil {
			t.Fatal(err)
		}
		checkSweep(t, step, res, ref.sweep(q, func(string) bool { return false }, 0, high, clock.Now()), rack.epoch)
		step++
		return res
	}
	every := make([]uint32, prime)
	for r := range every {
		every[r] = uint32(r)
	}
	exclude := func() string { return origins[rng.Intn(len(origins))] }
	layout := func() {
		t.Helper()
		for limit := 1; limit <= len(ids)+1; limit++ {
			sweep(core.NewResidueSet(prime, every), limit, "")
		}
		for r := range min(prime, 2*maskPrimes) {
			sweep(core.NewResidueSet(prime, []uint32{r}), len(ids), exclude())
		}
		for range 20 {
			sweep(synthResidues(rng, prime, 0.3+0.7*rng.Float64()), 1+rng.Intn(len(ids)), exclude())
		}
	}

	submit(3*64 + 5)
	layout()
	// Every bottle passes the full candidate, so at limit 63 the sweep stops
	// at slot 63, the last of the first word, having scanned the word.
	if res := sweep(core.NewResidueSet(prime, every), 63, ""); !res.Truncated || res.Scanned != 64 {
		t.Fatalf("limit 63: truncated %v after %d scanned, want true after 64", res.Truncated, res.Scanned)
	}
	edges := []int{63, 64, 127, 128}
	for _, slot := range edges {
		remove(ids[slot])
	}
	group(func(g *primeGroup) {
		for _, slot := range edges {
			if g.bottles[slot] != nil || g.rows[slot/64*rowWords(prime)]&(1<<(slot%64)) != 0 {
				t.Fatalf("slot %d is not dead", slot)
			}
		}
	})
	layout()
	// Once over a quarter of its slots are dead, the group compacts and
	// rebuilds its rows; it then grows new rows in the capacity it kept.
	compacted := false
	for slot := 0; !compacted; slot += 3 {
		if !slices.Contains(edges, slot) {
			remove(ids[slot])
		}
		group(func(g *primeGroup) { compacted = g.dead == 0 })
	}
	layout()
	submit(64)
	layout()
}

func checkSweepHistory(t *testing.T, shards int, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	clock := newTestClock()
	rack := newTestRack(clock, shards)
	defer rack.Close()
	ref := newRefRack(rack)
	primes := []uint32{11, 67}
	origins := []string{"", "alice", "bob", "carol"}
	var ids []string
	nextPackage := func() []byte {
		id := fmt.Sprintf("req-%d-%04d", seed, len(ids))
		ids = append(ids, id)
		now := clock.Now()
		validity := time.Duration(1+rng.Intn(120)) * time.Minute
		return synthPackage(t, rng, primes[rng.Intn(len(primes))], id, origins[rng.Intn(len(origins))], now, now.Add(validity))
	}
	// The sweeper's cursor, as the last sweep that carried it left it.
	var cursors []SweepCursor
	var stale uint64

	for step := 0; step < 400; step++ {
		now := clock.Now()
		switch op := rng.Intn(20); {
		case op < 5:
			raw := nextPackage()
			if _, err := rack.Submit(ctx, raw); err != nil {
				t.Fatal(err)
			}
			ref.submit(rack, raw, now)
		case op < 7:
			raws := make([][]byte, 1+rng.Intn(20))
			for i := range raws {
				raws[i] = nextPackage()
			}
			if _, err := rack.SubmitBatch(ctx, raws); err != nil {
				t.Fatal(err)
			}
			for _, raw := range raws {
				ref.submit(rack, raw, now)
			}
		case op < 10 && len(ids) > 0:
			for k := rng.Intn(6); k >= 0; k-- {
				id := ids[rng.Intn(len(ids))]
				if _, err := rack.Remove(ctx, id); err != nil {
					t.Fatal(err)
				}
				ref.remove(id)
			}
		case op < 11:
			clock.Advance(time.Duration(rng.Intn(20)) * time.Minute)
		case op < 12:
			rack.Reap()
			ref.reap(now)
		default:
			q := SweepQuery{Limit: 1 + rng.Intn(60)}
			if rng.Intn(3) == 0 {
				q.Limit = 1 + rng.Intn(5)
			}
			for _, k := range rng.Perm(3)[:1+rng.Intn(3)] {
				// A third "prime" repeats one: the query keeps the first.
				rate := 0.3 + 0.7*rng.Float64()
				q.Residues = append(q.Residues, synthResidues(rng, primes[k%2], rate))
			}
			if rng.Intn(3) == 0 {
				q.ExcludeOrigin = origins[1+rng.Intn(len(origins)-1)]
			}
			seen := func(string) bool { return false }
			high, after, carried := rack.seq.Load(), uint64(0), false
			switch rng.Intn(4) {
			case 1:
				for k := rng.Intn(30); k > 0 && len(ids) > 0; k-- {
					q.Seen = append(q.Seen, ids[rng.Intn(len(ids))])
				}
				list := slices.Clone(q.Seen)
				seen = func(id string) bool { return slices.Contains(list, id) }
			case 2:
				q.Cursors, carried = cursors, true
				if len(cursors) > 0 {
					after = cursors[0].After
				}
			case 3:
				// Another epoch, or this one's but ahead of the rack: from zero.
				q.Cursors = []SweepCursor{{Epoch: rack.epoch ^ 2, After: high / 2}}
				if rng.Intn(2) == 0 {
					q.Cursors[0] = SweepCursor{Epoch: rack.epoch, After: high + 1}
				}
				stale++
			}
			res, err := rack.Sweep(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if carried {
				cursors = slices.Clone(res.Cursors)
			}
			if err := q.normalize(); err != nil {
				t.Fatal(err)
			}
			checkSweep(t, step, res, ref.sweep(q, seen, after, high, now), rack.epoch)
		}
	}
	if got := rack.cursorResets.Load(); got != stale {
		t.Fatalf("%d cursor resets counted, %d stale cursors sent", got, stale)
	}
}

func checkSweep(t *testing.T, step int, res SweepResult, want refSweep, epoch uint64) {
	t.Helper()
	if res.Truncated != want.truncated || len(res.Bottles) != len(want.bottles) {
		t.Fatalf("step %d: %d bottles (truncated %v), want %d (truncated %v)", step, len(res.Bottles), res.Truncated, len(want.bottles), want.truncated)
	}
	for i, e := range want.bottles {
		if res.Bottles[i].ID != e.b.id || !bytes.Equal(res.Bottles[i].Raw, e.b.raw) || res.Bottles[i].Seq != e.seq {
			t.Fatalf("step %d: bottle %d is %s, want %s", step, i, res.Bottles[i].ID, e.b.id)
		}
	}
	if res.Scanned != want.scanned || res.Rejected != want.rejected {
		t.Fatalf("step %d: scanned/rejected %d/%d, want %d/%d", step, res.Scanned, res.Rejected, want.scanned, want.rejected)
	}
	if c := (SweepCursor{Epoch: epoch, After: want.cursor}); len(res.Cursors) != 1 || res.Cursors[0] != c {
		t.Fatalf("step %d: cursors %+v, want %+v", step, res.Cursors, c)
	}
}

// TestTruncatedSweepContract states what a truncated sweep promises while
// other callers submit and remove: every bottle it returns passes the
// prefilter for its prime, none comes from the excluded origin or was
// stamped at or before the cursor sent, none repeats within the call, there
// are at most Limit of them, and the cursor it answers with is of the rack's
// epoch and never behind the one sent. Meant for -race -count=10 as well.
func TestTruncatedSweepContract(t *testing.T) {
	const shards, writers, perWriter, sweeps = 16, 2, 1500, 300
	ctx := context.Background()
	clock := newTestClock()
	rack := newTestRack(clock, shards)
	defer rack.Close()
	rng := rand.New(rand.NewSource(7))
	primes := []uint32{11, 67}
	origins := []string{"", "alice", "bob", "carol"}
	now := clock.Now()
	// Packages are built up front, so no writer goroutine reaches
	// synthPackage's t.Fatal.
	raws := make([][][]byte, writers)
	for w := range raws {
		for i := 0; i < perWriter; i++ {
			id := fmt.Sprintf("w%d-%05d", w, i)
			raws[w] = append(raws[w], synthPackage(t, rng, primes[rng.Intn(len(primes))], id, origins[rng.Intn(len(origins))], now, now.Add(time.Hour)))
		}
	}
	for _, raw := range raws[0][:perWriter/3] {
		if _, err := rack.Submit(ctx, raw); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range raws {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i = (i + 1) % perWriter {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rack.Submit(ctx, raws[w][i]); err != nil && !errors.Is(err, ErrDuplicateBottle) {
					t.Error(err)
					return
				}
				if _, err := rack.Remove(ctx, fmt.Sprintf("w%d-%05d", w, wrng.Intn(perWriter))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var cursors []SweepCursor
	truncated, returned := 0, 0
	for s := 0; s < sweeps; s++ {
		q := SweepQuery{Limit: 1 + rng.Intn(4), Cursors: cursors}
		sets := make(map[uint32]core.ResidueSet)
		for _, p := range primes {
			rs := synthResidues(rng, p, 0.5+0.5*rng.Float64())
			sets[p] = rs
			q.Residues = append(q.Residues, rs)
		}
		if rng.Intn(2) == 0 {
			q.ExcludeOrigin = origins[1+rng.Intn(len(origins)-1)]
		}
		var after uint64
		if len(cursors) > 0 {
			after = cursors[0].After
		}
		res, err := rack.Sweep(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bottles) > q.Limit {
			t.Fatalf("sweep %d: %d bottles over limit %d", s, len(res.Bottles), q.Limit)
		}
		if len(res.Cursors) != 1 || res.Cursors[0].Epoch != rack.epoch || res.Cursors[0].After < after {
			t.Fatalf("sweep %d: cursors %+v after %d", s, res.Cursors, after)
		}
		cursors = slices.Clone(res.Cursors)
		if res.Truncated {
			truncated++
		}
		returned += len(res.Bottles)
		got := make(map[string]bool, len(res.Bottles))
		for _, sb := range res.Bottles {
			v, err := core.UnmarshalPackageView(sb.Raw)
			if err != nil {
				t.Fatalf("sweep %d: %s: %v", s, sb.ID, err)
			}
			switch {
			case got[sb.ID]:
				t.Fatalf("sweep %d: %s returned twice", s, sb.ID)
			case !v.PrefilterMatch(sets[v.Prime]):
				t.Fatalf("sweep %d: %s fails the prefilter", s, sb.ID)
			case v.Origin != "" && v.Origin == q.ExcludeOrigin:
				t.Fatalf("sweep %d: %s comes from the excluded origin %q", s, sb.ID, v.Origin)
			}
			// The bottle still held under this ID, if it is the one returned
			// and not a later submission, carries its stamp.
			sh := rack.shardFor(sb.ID)
			sh.mu.Lock()
			b := sh.bottles[sb.ID]
			early := b != nil && &b.raw[0] == &sb.Raw[0] && sh.byPrime[b.pkg.Prime].seq[b.slot] <= after
			sh.mu.Unlock()
			if early {
				t.Fatalf("sweep %d: %s was stamped at or before the cursor %d", s, sb.ID, after)
			}
			got[sb.ID] = true
		}
	}
	t.Logf("%d of %d sweeps truncated, %d bottles returned", truncated, sweeps, returned)
	if truncated == 0 {
		t.Fatal("no sweep was truncated")
	}
}

// TestRemoveFreesMemory loops submit and remove on a rack that is never swept
// or reaped: the heap must stay within a constant of what is held, and a
// drained burst must leave no prime group at its high-water capacity. A held
// bottle itself stays within one 256-byte allocation.
func TestRemoveFreesMemory(t *testing.T) {
	if size := unsafe.Sizeof(bottle{}); size > 256 {
		t.Fatalf("a bottle is %d bytes, over its 256-byte allocation", size)
	}
	clock := newTestClock()
	rack := newTestRack(clock, 4)
	defer rack.Close()
	ctx := context.Background()
	raw := rawBottles(t, clock, 1)[0]
	id0 := fmt.Sprintf("%032x", 0)
	off := bytes.Index(raw, []byte(id0))
	if off < 0 {
		t.Fatal("template ID not found in its encoding")
	}
	idOf := func(i int) string { return fmt.Sprintf("%032x", i) }
	submit := func(i int) {
		copy(raw[off:], idOf(i))
		if _, err := rack.Submit(ctx, raw); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(i int) {
		if ok, err := rack.Remove(ctx, idOf(i)); err != nil || !ok {
			t.Fatalf("Remove(%d) = %v, %v", i, ok, err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	// groups checks every prime group against a bound on its slots.
	groups := func(what string, ok func(p uint32, g *primeGroup) bool) {
		t.Helper()
		for _, sh := range rack.shards {
			sh.mu.Lock()
			for p, g := range sh.byPrime {
				if !ok(p, g) {
					t.Errorf("%s: prime %d group has %d slots (%d dead) in %d capacity, %d of %d row words", what, p, len(g.bottles), g.dead, cap(g.bottles), len(g.rows), cap(g.rows))
				}
			}
			sh.mu.Unlock()
		}
	}

	const held, n = 64, 40000
	base := heap()
	for i := 0; i < n; i++ {
		submit(i)
		if i >= held {
			remove(i - held)
		}
		if (i+1)%10000 == 0 {
			// Each submitted-then-removed bottle left behind is ≥ 600 bytes:
			// 10 000 of them are 6 MB.
			if grown := int64(heap()) - int64(base); grown > 1<<20+4<<10*held {
				t.Fatalf("after %d submits with %d held the heap grew %d bytes", i+1, held, grown)
			}
		}
	}
	// Dead slots are bounded too, not only the bottles they held.
	groups("steady churn", func(_ uint32, g *primeGroup) bool { return g.dead*deadShare <= len(g.bottles) })

	const burst = 20000
	for i := n; i < n+burst; i++ {
		submit(i)
	}
	for i := n - held; i < n+burst-held; i++ {
		remove(i)
	}
	if st := statsOf(rack); st.Held != held {
		t.Fatalf("held %d, want %d", st.Held, held)
	}
	groups("burst drained", func(p uint32, g *primeGroup) bool {
		// The rows are held to the slots' bound, with one row of slack.
		return cap(g.bottles) <= 4*len(g.bottles)+8 && cap(g.rows) <= 4*len(g.rows)+rowWords(p)
	})
}
