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
		have := rs.Bits[0] &^ deadSlot
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

// refEntry is one bottle of the reference rack.
type refEntry struct {
	b    *bottle
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
	e := &refEntry{b: b}
	g := m.groups[m.index[r.shardFor(b.id)]]
	g[b.pkg.Prime] = append(g[b.pkg.Prime], e)
	m.byID[b.id] = e
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
	bottles []*bottle
	// scanned and rejected count every live bottle visited and those of them
	// PrefilterMatch fails; at[k] holds both as they stood when the k-th
	// passing bottle was met, which is where a sweep truncated at k stops.
	scanned, rejected int
	at                [][2]int
}

// sweep is the old loop: expired bottles dropped as the group is walked, then
// origin, window and PrefilterMatch. The counters follow today's definition.
func (m *refRack) sweep(q SweepQuery, seen func(string) bool, now time.Time) refSweep {
	var out refSweep
	for _, groups := range m.groups {
		for _, rs := range q.Residues {
			for _, e := range groups[rs.Prime] {
				if e.gone {
					continue
				}
				if e.b.pkg.Expired(now) {
					m.remove(e.b.id)
					continue
				}
				out.scanned++
				match := e.b.pkg.PrefilterMatch(rs)
				if !match {
					out.rejected++
				}
				if e.b.origin != "" && e.b.origin == q.ExcludeOrigin {
					continue
				}
				if seen(e.b.id) {
					continue
				}
				if !match {
					continue
				}
				out.bottles = append(out.bottles, e.b)
				out.at = append(out.at, [2]int{out.scanned, out.rejected})
			}
		}
	}
	return out
}

// TestSweepMatchesReference runs seeded histories of submits, batches,
// removals, clock advances, reaps and sweeps — with held windows, ad-hoc
// seen lists, excluded origins and truncating limits, over a prime with a
// mask column and one without — against a rack and the reference. Untruncated
// sweeps must return the reference's bottles in its order with its exact
// counters; truncated ones only bottles it passes, counting only what was
// visited (exactly so on one shard, where the visit order is fixed).
// Meant for -race -count=10 as well.
func TestSweepMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				checkSweepHistory(t, shards, seed)
			})
		}
	}
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
	// The held window as a sweeper keeps it (client.Sweeper's protocol).
	const handle, seenCap = 5, 24
	win := NewSeenWindow(seenCap)
	var acked uint64
	held := false

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
			switch rng.Intn(3) {
			case 1:
				for k := rng.Intn(30); k > 0 && len(ids) > 0; k-- {
					q.Seen = append(q.Seen, ids[rng.Intn(len(ids))])
				}
				list := slices.Clone(q.Seen)
				seen = func(id string) bool { return slices.Contains(list, id) }
			case 2:
				for k := rng.Intn(8); k > 0 && len(ids) > 0; k-- {
					win.Add(ids[rng.Intn(len(ids))])
				}
				q.Window, q.SeenCap = handle, seenCap
				seen = win.Has
			}
			res := sweepWindowed(t, rack, q, win, &acked, &held)
			if err := q.normalize(); err != nil {
				t.Fatal(err)
			}
			want := ref.sweep(q, seen, now)
			checkSweep(t, step, shards, q.Limit, res, want)
		}
	}
}

// sweepWindowed sends a query, carrying a held window's delta the way the
// client's sweeper does and resending it whole when the rack asks.
func sweepWindowed(t *testing.T, rack *Rack, q SweepQuery, win *SeenWindow, acked *uint64, held *bool) SweepResult {
	t.Helper()
	if q.Window != 0 {
		total := win.Total()
		unacked := total - *acked
		q.SeenFull = !*held || unacked >= uint64(win.Len())
		for {
			if q.SeenFull {
				q.Seen = win.AppendNewest(nil, win.Len())
			} else {
				q.Seen = win.AppendNewest(nil, int(unacked))
			}
			q.SeenBase = total - uint64(len(q.Seen))
			res, err := rack.Sweep(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resync {
				*acked, *held = total, true
				return res
			}
			if q.SeenFull {
				t.Fatal("the rack asked to resync a whole window")
			}
			q.SeenFull = true
		}
	}
	res, err := rack.Sweep(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkSweep(t *testing.T, step, shards, limit int, res SweepResult, want refSweep) {
	t.Helper()
	passing := make(map[string]*bottle, len(want.bottles))
	for _, b := range want.bottles {
		passing[b.id] = b
	}
	got := make(map[string]bool, len(res.Bottles))
	for _, sb := range res.Bottles {
		b, ok := passing[sb.ID]
		if !ok || got[sb.ID] {
			t.Fatalf("step %d: swept %s, which the reference does not pass (or twice)", step, sb.ID)
		}
		if !bytes.Equal(sb.Raw, b.raw) {
			t.Fatalf("step %d: swept %s with other bytes than submitted", step, sb.ID)
		}
		got[sb.ID] = true
	}
	if len(want.bottles) <= limit {
		if res.Truncated || len(res.Bottles) != len(want.bottles) {
			t.Fatalf("step %d: %d bottles (truncated %v), want all %d", step, len(res.Bottles), res.Truncated, len(want.bottles))
		}
		for i, b := range want.bottles {
			if res.Bottles[i].ID != b.id {
				t.Fatalf("step %d: bottle %d is %s, want %s", step, i, res.Bottles[i].ID, b.id)
			}
		}
		if res.Scanned != want.scanned || res.Rejected != want.rejected {
			t.Fatalf("step %d: scanned/rejected %d/%d, want %d/%d", step, res.Scanned, res.Rejected, want.scanned, want.rejected)
		}
		return
	}
	if !res.Truncated || len(res.Bottles) != limit {
		t.Fatalf("step %d: %d bottles (truncated %v) of %d passing, want limit %d", step, len(res.Bottles), res.Truncated, len(want.bottles), limit)
	}
	if shards == 1 {
		// One shard job: it stops at the first passing bottle past the limit.
		for i, sb := range res.Bottles {
			if sb.ID != want.bottles[i].id {
				t.Fatalf("step %d: truncated bottle %d is %s, want %s", step, i, sb.ID, want.bottles[i].id)
			}
		}
		if at := want.at[limit]; res.Scanned != at[0] || res.Rejected != at[1] {
			t.Fatalf("step %d: truncated scanned/rejected %d/%d, want %d/%d", step, res.Scanned, res.Rejected, at[0], at[1])
		}
		return
	}
	// Which shards won the budget is scheduling's choice; each visited bottle
	// was rejected, skipped, returned or the one that found the budget spent.
	if res.Scanned > want.scanned || res.Rejected > want.rejected || res.Scanned < res.Rejected+len(res.Bottles) {
		t.Fatalf("step %d: truncated scanned/rejected %d/%d with %d bottles, reference %d/%d", step, res.Scanned, res.Rejected, len(res.Bottles), want.scanned, want.rejected)
	}
}

// TestTruncatedSweepContract states what a truncated sweep promises while
// other callers submit and remove: which bottles it returns depends on how
// the shard jobs race for the budget, but every one passes the prefilter for
// its prime, none comes from the excluded origin or sits in the held window,
// none repeats within the call, and there are at most Limit of them. Meant
// for -race -count=10 as well.
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

	const handle, seenCap = 3, 64
	win := NewSeenWindow(seenCap)
	var acked uint64
	held := false
	truncated, returned := 0, 0
	for s := 0; s < sweeps; s++ {
		q := SweepQuery{Limit: 1 + rng.Intn(4), Window: handle, SeenCap: seenCap}
		sets := make(map[uint32]core.ResidueSet)
		for _, p := range primes {
			rs := synthResidues(rng, p, 0.5+0.5*rng.Float64())
			sets[p] = rs
			q.Residues = append(q.Residues, rs)
		}
		if rng.Intn(2) == 0 {
			q.ExcludeOrigin = origins[1+rng.Intn(len(origins)-1)]
		}
		windowed := make(map[string]bool)
		for _, id := range win.AppendNewest(nil, win.Len()) {
			windowed[id] = true
		}
		res := sweepWindowed(t, rack, q, win, &acked, &held)
		if len(res.Bottles) > q.Limit {
			t.Fatalf("sweep %d: %d bottles over limit %d", s, len(res.Bottles), q.Limit)
		}
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
			case windowed[sb.ID]:
				t.Fatalf("sweep %d: %s is in the held window", s, sb.ID)
			}
			got[sb.ID] = true
			if rng.Intn(2) == 0 {
				win.Add(sb.ID)
			}
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
	groups := func(what string, ok func(g *primeGroup) bool) {
		t.Helper()
		for _, sh := range rack.shards {
			sh.mu.Lock()
			for p, g := range sh.byPrime {
				if !ok(g) {
					t.Errorf("%s: prime %d group has %d slots (%d dead) in %d/%d capacity", what, p, len(g.bottles), g.dead, cap(g.bottles), cap(g.need))
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
	groups("steady churn", func(g *primeGroup) bool { return g.dead*deadShare <= len(g.bottles) })

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
	groups("burst drained", func(g *primeGroup) bool {
		return cap(g.bottles) <= 4*len(g.bottles)+8 && cap(g.need) <= 4*len(g.need)+8
	})
}
