package broker

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/core"
)

// TestSeenWindowMatchesModel drives a SeenWindow and a plain slice model with
// the same seeded adds — repeats included, the window compacted now and then
// — and demands the same membership, order, length, byte count and add count
// after every step.
func TestSeenWindowMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 61, 300} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		w := NewSeenWindow(capacity)
		var model []string
		in := map[string]bool{}
		var total uint64
		for step := 0; step < 12*capacity+50; step++ {
			// Draw from a pool a few times the bound: repeats of IDs inside
			// the window, repeats of evicted ones, fresh ones.
			id := fmt.Sprintf("id-%d", rng.Intn(3*capacity+2))
			fresh := !in[id]
			if fresh {
				total++
				in[id] = true
				if model = append(model, id); len(model) > capacity {
					delete(in, model[0])
					model = model[1:]
				}
			}
			if got := w.Add(id); got != fresh {
				t.Fatalf("cap %d step %d: Add(%s) = %v, want %v", capacity, step, id, got, fresh)
			}
			if rng.Intn(7) == 0 {
				w.compact()
			}
			if bytes := len(strings.Join(model, "")); w.Len() != len(model) || w.Total() != total || w.bytes != bytes {
				t.Fatalf("cap %d step %d: len %d total %d bytes %d, want %d %d %d", capacity, step, w.Len(), w.Total(), w.bytes, len(model), total, bytes)
			}
			for i := 0; i < 3*capacity+2; i++ {
				probe := fmt.Sprintf("id-%d", i)
				if got, want := w.Has(probe), in[probe]; got != want {
					t.Fatalf("cap %d step %d: Has(%s) = %v, want %v", capacity, step, probe, got, want)
				}
			}
			n := rng.Intn(len(model) + 2)
			want := model[max(0, len(model)-n):]
			if got := w.AppendNewest(nil, n); !slices.Equal(got, want) {
				t.Fatalf("cap %d step %d: newest %d = %v, want %v", capacity, step, n, got, want)
			}
			if !w.endsWith(want, "") || (len(want) > 0 && w.endsWith(append([]string{"other"}, want[1:]...), "")) {
				t.Fatalf("cap %d step %d: endsWith disagrees with the newest %d", capacity, step, n)
			}
		}
	}
}

// windowRack is a rack loaded with n bottles that one residue set passes.
func windowRack(t *testing.T, cfg Config, clock *testClock, n int) (*Rack, []core.ResidueSet, []string) {
	t.Helper()
	rack, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raws := rawBottles(t, clock, n)
	if _, err := rack.SubmitBatch(context.Background(), raws); err != nil {
		t.Fatal(err)
	}
	pkg, err := core.UnmarshalPackage(raws[0])
	if err != nil {
		t.Fatal(err)
	}
	all, err := rack.Sweep(context.Background(), SweepQuery{Residues: passAll(pkg.Prime), Limit: n})
	if err != nil || len(all.Bottles) != n {
		t.Fatalf("loaded rack sweeps %d of %d bottles: %v", len(all.Bottles), n, err)
	}
	return rack, passAll(pkg.Prime), sweptIDs(all)
}

// passAll is a residue set with every residue present: no bottle of the prime
// is rejected, so a sweep returns exactly what the seen window lets through.
func passAll(prime uint32) []core.ResidueSet {
	residues := make([]uint32, prime)
	for i := range residues {
		residues[i] = uint32(i)
	}
	return []core.ResidueSet{core.NewResidueSet(prime, residues)}
}

func sweptIDs(res SweepResult) []string {
	ids := make([]string, len(res.Bottles))
	for i, b := range res.Bottles {
		ids[i] = UntagID(b.ID)
	}
	slices.Sort(ids)
	return ids
}

// without returns the sorted IDs of all that are not in seen.
func without(all, seen []string) []string {
	var out []string
	for _, id := range all {
		if !slices.Contains(seen, id) {
			out = append(out, id)
		}
	}
	return out
}

// TestRackWindowProtocol walks one window through every branch of the
// contract: a delta nobody holds, full, delta, the repeated delta, a gap, a
// diverged tail, a changed bound, another identity, a restart.
func TestRackWindowProtocol(t *testing.T) {
	clock := newTestClock()
	cfg := durableConfig(clock, filepath.Join(t.TempDir(), "rack"), wal.PolicyInterval)
	cfg.RackTag = "r7"
	const n = 40
	rack, rs, all := windowRack(t, cfg, clock, n)
	defer func() { rack.Close() }()
	ctx := context.Background()
	query := func(base uint64, full bool, seen ...string) SweepQuery {
		return SweepQuery{Residues: rs, Limit: n, Window: 99, SeenCap: 8, SeenBase: base, SeenFull: full, Seen: seen}
	}
	expect := func(name string, q SweepQuery, resync bool, seen ...string) {
		t.Helper()
		res, err := rack.Sweep(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Resync != resync {
			t.Fatalf("%s: resync = %v, want %v", name, res.Resync, resync)
		}
		if resync {
			if len(res.Bottles) != 0 || res.Scanned != 0 {
				t.Fatalf("%s: a resync answer scanned %d and returned %d", name, res.Scanned, len(res.Bottles))
			}
			return
		}
		if got, want := sweptIDs(res), without(all, seen); !slices.Equal(got, want) {
			t.Fatalf("%s: swept %d bottles, want the %d outside %v", name, len(got), len(want), seen)
		}
	}

	expect("delta to an unknown handle", query(0, false, all[0]), true)
	expect("full", query(0, true, all[0], all[1]), false, all[0], all[1])
	// The rack strips its own tag from what sweeps handed out.
	expect("delta", query(2, false, "r7@"+all[2]), false, all[0], all[1], all[2])
	expect("same delta again", query(2, false, "r7@"+all[2]), false, all[0], all[1], all[2])
	expect("empty delta", query(3, false), false, all[0], all[1], all[2])
	expect("gap", query(4, false, all[5]), true)
	expect("diverged tail", query(2, false, all[9]), true)
	expect("window untouched by the refusals", query(3, false), false, all[0], all[1], all[2])
	grown := query(3, false)
	grown.SeenCap = 9
	expect("changed bound", grown, true)
	other := WithIdentity(ctx, "mallory")
	if res, err := rack.Sweep(other, query(3, false)); err != nil || !res.Resync {
		t.Fatalf("another identity reached the window: %+v, %v", res, err)
	}
	// The bound evicts oldest-first exactly as the sweeper's window does.
	expect("delta past the bound", query(3, false, all[3:10]...), false, all[2:10]...)

	st, err := rack.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := (WindowStats{Held: 1, IDs: 8, Bytes: st.Windows.Bytes, Resyncs: 5}); st.Windows != want || st.Windows.Bytes < 8*len(all[0]) {
		t.Fatalf("window stats = %+v, want %+v", st.Windows, want)
	}

	// Windows are soft state: a restart keeps the bottles and loses them.
	if err := rack.Close(); err != nil {
		t.Fatal(err)
	}
	if rack, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	expect("delta after a restart", query(10, false), true)
	expect("full after a restart", query(2, true, all[2:10]...), false, all[2:10]...)
	expect("delta after the resync", query(10, false, all[10]), false, all[3:11]...)
}

// TestRackAdHocSeenList pins that a list without a window handle is the
// stateless exclusion it always was: honoured for that query, nothing kept.
func TestRackAdHocSeenList(t *testing.T) {
	clock := newTestClock()
	rack, rs, all := windowRack(t, Config{Shards: 4, ReapInterval: -1, Now: clock.Now}, clock, 20)
	defer rack.Close()
	ctx := context.Background()
	res, err := rack.Sweep(ctx, SweepQuery{Residues: rs, Limit: 20, Seen: all[:5]})
	if err != nil || res.Resync || !slices.Equal(sweptIDs(res), all[5:]) {
		t.Fatalf("ad-hoc list: %d bottles, resync %v, %v", len(res.Bottles), res.Resync, err)
	}
	if res, err = rack.Sweep(ctx, SweepQuery{Residues: rs, Limit: 20}); err != nil || len(res.Bottles) != 20 {
		t.Fatalf("the list outlived its query: %d bottles, %v", len(res.Bottles), err)
	}
	if st, _ := rack.Stats(ctx); st.Windows != (WindowStats{}) {
		t.Fatalf("an ad-hoc list left window state: %+v", st.Windows)
	}
}

// TestRackWindowEviction proves both bounds: the byte budget drops the least
// recently swept windows whole, the reap pass drops the idle ones by the
// rack's clock, and either loss costs the sweeper exactly one resync.
func TestRackWindowEviction(t *testing.T) {
	clock := newTestClock()
	rack, rs, all := windowRack(t, Config{Shards: 2, ReapInterval: -1, Now: clock.Now}, clock, 12)
	defer rack.Close()
	ctx := context.Background()
	fourIDs := heldWindowOverhead + 4*(seenIDOverhead+2+len(all[0]))
	rack.windows.budget = 3 * fourIDs // three windows of four IDs
	sweep := func(handle, base uint64, full bool, seen ...string) SweepResult {
		t.Helper()
		res, err := rack.Sweep(ctx, SweepQuery{Residues: rs, Limit: 12, Window: handle, SeenBase: base, SeenFull: full, Seen: seen})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for h := uint64(1); h <= 3; h++ {
		sweep(h, 0, true, all[:4]...)
	}
	sweep(1, 4, false) // window 2 is now the least recently swept
	sweep(4, 0, true, all[:4]...)
	if res := sweep(2, 4, false); !res.Resync {
		t.Fatal("the least recently swept window survived the budget")
	}
	for _, h := range []uint64{1, 3, 4} {
		if res := sweep(h, 4, false); res.Resync || len(res.Bottles) != 8 {
			t.Fatalf("window %d: resync %v, %d bottles; want it held", h, res.Resync, len(res.Bottles))
		}
	}
	st, _ := rack.Stats(ctx)
	if want := (WindowStats{Held: 3, IDs: 12, Bytes: 3 * fourIDs, Resyncs: 1, Evicted: 1}); st.Windows != want {
		t.Fatalf("after the budget eviction: %+v, want %+v", st.Windows, want)
	}

	clock.Advance(windowIdleAge - 1)
	sweep(4, 4, false)
	clock.Advance(1)
	rack.Reap()
	if want := (WindowStats{Held: 1, IDs: 4, Bytes: fourIDs, Resyncs: 1, Evicted: 3}); rack.windows.snapshot() != want {
		t.Fatalf("after the idle reap: %+v, want only window 4 held: %+v", rack.windows.snapshot(), want)
	}
	if res := sweep(1, 4, false); !res.Resync {
		t.Fatal("an idle window survived the reap pass")
	}
}

// TestRackWindowIdentityShare pins that an identity running through handles
// evicts its own windows, not another sweeper's, and that the empty identity
// is held to the whole budget only.
func TestRackWindowIdentityShare(t *testing.T) {
	clock := newTestClock()
	rack, rs, all := windowRack(t, Config{Shards: 2, ReapInterval: -1, Now: clock.Now}, clock, 12)
	defer rack.Close()
	fourIDs := heldWindowOverhead + 4*(seenIDOverhead+2+len(all[0]))
	rack.windows.budget = identityBudgetShare * 2 * fourIDs // a share is two windows
	sweep := func(identity string, handle, base uint64, full bool, seen ...string) SweepResult {
		t.Helper()
		ctx := WithIdentity(context.Background(), identity)
		res, err := rack.Sweep(ctx, SweepQuery{Residues: rs, Limit: 12, Window: handle, SeenBase: base, SeenFull: full, Seen: seen})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sweep("bob", 1, 0, true, all[:4]...) // the least recently swept of all
	for h := uint64(1); h <= 5; h++ {
		sweep("mallory", h, 0, true, all[:4]...)
	}
	if res := sweep("bob", 1, 4, false); res.Resync {
		t.Fatal("one identity's handles evicted another identity's window")
	}
	for h := uint64(1); h <= 5; h++ {
		if res := sweep("mallory", h, 4, false); res.Resync != (h <= 3) {
			t.Fatalf("mallory's window %d: resync %v; want only the newest two held", h, res.Resync)
		}
	}
	// A window above the share on its own is refused, whole query or not,
	// once the identity's others have made way in vain.
	var big []string
	for i := 0; i < 20; i++ {
		big = append(big, fmt.Sprintf("%032x", i))
	}
	if res := sweep("mallory", 9, 0, true, big...); !res.Resync {
		t.Fatal("a window larger than its identity's share was held")
	}
	for h := uint64(1); h <= 5; h++ {
		sweep("", h, 0, true, all[:4]...)
	}
	if st := rack.windows.snapshot(); st.Held != 1+5 || st.Bytes != 6*fourIDs {
		t.Fatalf("held %+v; want bob's one and the anonymous five", st)
	}
}

// TestRackWindowBytesBounded pins that what the windows are charged with
// follows the memory they keep alive, whatever shape the seen lists take:
// long IDs, lists longer than the window's bound, and long lists of which
// later deltas leave a single ID — each of which keeps a multi-megabyte
// decoded frame alive unless the rack copies what it retains. Queries go
// through the codec, as a server's do.
func TestRackWindowBytesBounded(t *testing.T) {
	clock := newTestClock()
	rack, rs, _ := windowRack(t, Config{Shards: 2, ReapInterval: -1, Now: clock.Now}, clock, 4)
	defer rack.Close()
	ctx := context.Background()
	sweep := func(q SweepQuery) {
		t.Helper()
		q.Residues, q.Limit = rs, 1
		decoded, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := rack.Sweep(ctx, decoded); err != nil || res.Resync {
			t.Fatalf("window %d: resync %v, %v", q.Window, res.Resync, err)
		}
	}
	long := make([]string, 250) // 16 MB of seen list
	for i := range long {
		long[i] = fmt.Sprintf("%04d", i) + strings.Repeat("x", 1<<16-5)
	}
	const windows = 20
	for h := uint64(1); h <= windows; h++ {
		// The bound keeps one ID of the 250.
		sweep(SweepQuery{Window: h, SeenCap: 1, SeenFull: true, Seen: long})
		// All 250 are kept, then 249 short ones push out all but the last.
		sweep(SweepQuery{Window: windows + h, SeenCap: 250, SeenFull: true, Seen: long})
		short := make([]string, 249)
		for i := range short {
			short[i] = fmt.Sprintf("%032x", i)
		}
		sweep(SweepQuery{Window: windows + h, SeenCap: 250, SeenBase: 250, Seen: short})
	}
	long = nil
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st := rack.windows.snapshot()
	if st.Held != 2*windows || st.IDs != windows*(1+250) {
		t.Fatalf("held %+v, want %d windows", st, 2*windows)
	}
	// 40 IDs of 64 KB are 2.6 MB; uncompacted the windows pin 640 MB.
	if st.Bytes < 40<<16 || st.Bytes > 4<<20 || m.HeapAlloc > 3*uint64(st.Bytes) {
		t.Fatalf("windows charged %d bytes beside %d bytes of live heap; want 2.6 MB and a heap near it", st.Bytes, m.HeapAlloc)
	}

	// Charged by the byte, a window of long IDs takes the room of many.
	rack.windows.budget = st.Bytes
	sweep(SweepQuery{Window: 99, SeenCap: 8, SeenFull: true, Seen: []string{strings.Repeat("y", 1<<16-1), strings.Repeat("z", 1<<16-1)}})
	if now := rack.windows.snapshot(); now.Bytes > st.Bytes || now.Evicted < 2 {
		t.Fatalf("after a window of two long IDs under a full budget: %+v", now)
	}
}

// TestRackWindowRaces runs two faithful sweepers with windows of their own
// against one rack, beside a client whose sweeps are canceled mid-scan and
// followed at once by a query that rewrites the same window — what a retry
// on a fresh connection does while the first attempt is still scanning. The
// abandoned scan's jobs must finish reading before the rewrite. Meant for
// -race -count=10; without it the exactness checks still run.
func TestRackWindowRaces(t *testing.T) {
	clock := newTestClock()
	const n = 600
	// One worker behind many shards: a canceled sweep leaves jobs queued.
	rack, rs, all := windowRack(t, Config{Shards: 16, Workers: 1, ReapInterval: -1, Now: clock.Now}, clock, n)
	defer rack.Close()
	returnedFrom := func(res SweepResult, seen *SeenWindow) string {
		for _, b := range res.Bottles {
			if seen.Has(b.ID) {
				return b.ID
			}
		}
		return ""
	}
	var wg sync.WaitGroup
	for s := 1; s <= 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			mine := NewSeenWindow(64)
			var acked uint64
			for tick := 0; tick < 150; tick++ {
				q := SweepQuery{Residues: rs, Limit: 5, Window: uint64(s), SeenCap: 64, SeenBase: acked, SeenFull: tick == 0}
				q.Seen = mine.AppendNewest(nil, int(mine.Total()-acked))
				res, err := rack.Sweep(context.Background(), q)
				if err != nil || res.Resync {
					t.Errorf("sweeper %d tick %d: resync %v, err %v", s, tick, res.Resync, err)
					return
				}
				acked = mine.Total()
				if id := returnedFrom(res, mine); id != "" {
					t.Errorf("sweeper %d tick %d: bottle %s returned from inside the window", s, tick, id)
					return
				}
				for _, b := range res.Bottles {
					if rng.Intn(4) > 0 {
						mine.Add(b.ID)
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for round := 0; round < 150; round++ {
			q := SweepQuery{Residues: rs, Limit: n, Window: 3, SeenCap: 64, SeenFull: true}
			for i := 0; i < 40; i++ {
				q.Seen = append(q.Seen, all[rng.Intn(n)])
			}
			ctx, cancel := context.WithCancel(context.Background())
			go cancel()
			rack.Sweep(ctx, q) // abandoned somewhere between dispatch and the last shard
			cancel()
			mine := NewSeenWindow(64)
			q.Seen = q.Seen[:0]
			for i := 0; i < 40; i++ {
				q.Seen = append(q.Seen, all[rng.Intn(n)])
				mine.Add(q.Seen[i])
			}
			res, err := rack.Sweep(context.Background(), q)
			if err != nil || len(res.Bottles) != n-mine.Len() || returnedFrom(res, mine) != "" {
				t.Errorf("round %d: rewrite after a canceled sweep returned %d of %d, err %v", round, len(res.Bottles), n-mine.Len(), err)
				return
			}
		}
	}()
	wg.Wait()
	if st, _ := rack.Stats(context.Background()); st.Windows.Held != 3 || st.Windows.Resyncs != 0 {
		t.Fatalf("window stats after the run: %+v", st.Windows)
	}
}

// TestSweepQueryDeltaSize pins the point of the windows: with 4096 IDs
// excluded, what a steady-state sweep puts on the wire is the tick's delta.
func TestSweepQueryDeltaSize(t *testing.T) {
	w := NewSeenWindow(4096)
	for i := 0; i < 5000; i++ {
		w.Add(fmt.Sprintf("%032x", i))
	}
	rs := passAll(core.DefaultPrime)
	full := SweepQuery{Residues: rs, Limit: 64, Window: 1, SeenCap: 4096, SeenFull: true, Seen: w.AppendNewest(nil, w.Len())}
	delta := full
	delta.SeenFull, delta.SeenBase, delta.Seen = false, w.Total()-16, w.AppendNewest(nil, 16)
	if n := len(MarshalSweepQuery(delta)); n >= 1000 {
		t.Fatalf("steady-state query is %d bytes, want under 1000", n)
	}
	if n := len(MarshalSweepQuery(full)); n < 4096*34 {
		t.Fatalf("full query is %d bytes; the window is not in it", n)
	}
	got, err := UnmarshalSweepQuery(MarshalSweepQuery(delta))
	if err != nil || !reflect.DeepEqual(got, delta) {
		t.Fatalf("delta query round trip: %v\n got %+v\nwant %+v", err, got, delta)
	}
}
