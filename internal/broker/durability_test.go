package broker

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/core"
)

// bottleState is one bottle's recoverable state: its exact raw package plus
// its queued replies, in order.
type bottleState struct {
	Raw     string
	Replies []string
}

// rackState fingerprints everything durability must preserve. Counters are
// deliberately absent: they describe traffic history, not rack state.
func rackState(r *Rack) map[string]bottleState {
	out := map[string]bottleState{}
	for _, sh := range r.shards {
		sh.mu.Lock()
		for id, b := range sh.bottles {
			st := bottleState{Raw: string(b.raw)}
			for _, rep := range sh.replies[id] {
				st.Replies = append(st.Replies, string(rep))
			}
			out[id] = st
		}
		sh.mu.Unlock()
	}
	return out
}

// durableConfig builds a rack config persisting under dir with the given
// policy and the shared test clock.
func durableConfig(clock *testClock, dir string, policy wal.Policy) Config {
	return Config{
		Shards:       8,
		ReapInterval: -1,
		Now:          clock.Now,
		Durability:   &DurabilityConfig{Dir: dir, Fsync: policy},
	}
}

// rawBottles pre-marshals n wire-distinct packages sharing one build.
func rawBottles(tb testing.TB, clock *testClock, n int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	_, pkg := buildRawPackage(tb, rng, clock, "origin-durable",
		interests("chess"), interests("go", "shogi", "xiangqi"), 2)
	out := make([][]byte, n)
	for i := range out {
		clone := pkg.Clone()
		clone.ID = fmt.Sprintf("%032x", i)
		var err error
		if out[i], err = clone.Marshal(); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// replyFor marshals a minimal reply addressed to id.
func replyFor(clock *testClock, id, from string) []byte {
	rep := core.Reply{
		RequestID: id,
		From:      from,
		SentAt:    clock.Now(),
		Acks:      [][]byte{[]byte("sealed-ack-" + from)},
	}
	return rep.Marshal()
}

// driveMixedLoad applies an identical op mix to a rack: batched submits,
// replies (batched and single), removes, and fetches, finishing with a
// sentinel submit so that (under PolicyAlways) every asynchronously logged
// drain record sits before a durable commit barrier.
func driveMixedLoad(tb testing.TB, r *Rack, clock *testClock, raws [][]byte) {
	tb.Helper()
	const batch = 128
	for start := 0; start < len(raws); start += batch {
		end := start + batch
		if end > len(raws) {
			end = len(raws)
		}
		results, err := r.SubmitBatch(context.Background(), raws[start:end])
		if err != nil {
			tb.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				tb.Fatal(res.Err)
			}
		}
	}
	// Replies: every 3rd bottle gets one batched reply, every 9th a second,
	// single-call one.
	var posts []ReplyPost
	for i := 0; i < len(raws); i += 3 {
		id := fmt.Sprintf("%032x", i)
		posts = append(posts, ReplyPost{RequestID: id, Raw: replyFor(clock, id, "batch-replier")})
	}
	errs, err := r.ReplyBatch(context.Background(), posts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range errs {
		if e != nil {
			tb.Fatal(e)
		}
	}
	for i := 0; i < len(raws); i += 9 {
		id := fmt.Sprintf("%032x", i)
		if err := r.Reply(context.Background(), id, replyFor(clock, id, "solo-replier")); err != nil {
			tb.Fatal(err)
		}
	}
	// Removes: every 10th bottle comes off the rack.
	for i := 0; i < len(raws); i += 10 {
		if _, err := r.Remove(context.Background(), fmt.Sprintf("%032x", i)); err != nil {
			tb.Fatal(err)
		}
	}
	// Fetches: every 6th bottle's replies are drained (some queues are empty,
	// some bottles already removed — both outcomes must replay identically).
	for i := 0; i < len(raws); i += 6 {
		_, _ = r.Fetch(context.Background(), fmt.Sprintf("%032x", i))
	}
	// Sentinel: orders a durable commit after the drain records above.
	sentinel := rawBottles(tb, clock, 1)
	pkg, err := core.UnmarshalPackage(sentinel[0])
	if err != nil {
		tb.Fatal(err)
	}
	pkg.ID = "sentinel-after-fetches-00000000"
	raw, err := pkg.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.Submit(context.Background(), raw); err != nil {
		tb.Fatal(err)
	}
}

// TestDurableRecoverCleanClose checks the full lifecycle across a clean
// restart: state equals an uninterrupted in-memory twin's, and the recovery
// counters surface in Stats.
func TestDurableRecoverCleanClose(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	raws := rawBottles(t, clock, 200)

	durable, err := Open(durableConfig(clock, dir, wal.PolicyInterval))
	if err != nil {
		t.Fatal(err)
	}
	driveMixedLoad(t, durable, clock, raws)
	want := rackState(durable)
	durable.Close()

	twin := New(Config{Shards: 4, ReapInterval: -1, Now: clock.Now})
	defer twin.Close()
	driveMixedLoad(t, twin, clock, raws)
	if twinState := rackState(twin); !reflect.DeepEqual(want, twinState) {
		t.Fatal("durable rack diverged from in-memory twin before restart")
	}

	recovered, err := Open(durableConfig(clock, dir, wal.PolicyInterval))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := rackState(recovered); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state diverged: %d bottles, want %d", len(got), len(want))
	}
	st := statsOf(recovered)
	if st.Recovered != uint64(len(want)) {
		t.Fatalf("Stats.Recovered = %d, want %d", st.Recovered, len(want))
	}
	if st.WALBytes == 0 {
		t.Fatal("Stats.WALBytes = 0 on a durable rack")
	}
	// Replay must not masquerade as traffic: recovery reports itself only
	// through Recovered, never the operation counters.
	if st.Totals.Submitted != 0 || st.Totals.RepliesIn != 0 || st.Totals.RepliesOut != 0 {
		t.Fatalf("recovery leaked into traffic counters: %+v", st.Totals)
	}
	mem := New(Config{Shards: 2, ReapInterval: -1})
	defer mem.Close()
	if st := statsOf(mem); st.Recovered != 0 || st.WALBytes != 0 {
		t.Fatalf("in-memory rack must report zero Recovered/WALBytes, got %d/%d", st.Recovered, st.WALBytes)
	}
}

// TestDurableCrashReplayEquivalence is the acceptance test: a rack killed
// (not closed) after a 10k-bottle mixed load recovers every acknowledged
// operation — its state is identical to an uninterrupted run's.
func TestDurableCrashReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-bottle load")
	}
	clock := newTestClock()
	dir := t.TempDir()
	raws := rawBottles(t, clock, 10000)

	durable, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	driveMixedLoad(t, durable, clock, raws)
	// kill -9: no flush, no close; acknowledged operations were group-
	// committed, so they must all survive.
	durable.dur.log.Crash()
	durable.Close()

	twin := New(Config{Shards: 16, ReapInterval: -1, Now: clock.Now})
	defer twin.Close()
	driveMixedLoad(t, twin, clock, raws)
	want := rackState(twin)

	recovered, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	got := rackState(recovered)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay not equivalent: recovered %d bottles, uninterrupted twin has %d", len(got), len(want))
	}
	if st := statsOf(recovered); st.Recovered != uint64(len(want)) {
		t.Fatalf("Stats.Recovered = %d, want %d", st.Recovered, len(want))
	}
}

// TestDurableKillMidBatch simulates dying in the middle of writing a batch:
// a partial record is torn onto the log tail after the crash. Recovery must
// ignore the tear and keep every acknowledged operation.
func TestDurableKillMidBatch(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	raws := rawBottles(t, clock, 300)

	durable, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	driveMixedLoad(t, durable, clock, raws)
	want := rackState(durable)
	durable.dur.log.Crash()
	durable.Close()

	// Tear a half-written record onto the newest segment: a plausible length
	// prefix with only part of its body behind it.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to tear (err=%v)", err)
	}
	tail := segs[len(segs)-1]
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := binary.BigEndian.AppendUint32(nil, 4096) // claims 4 KiB...
	torn = binary.BigEndian.AppendUint32(torn, 0xDEADBEEF)
	torn = append(torn, 1, 2, 3, 4, 5) // ...delivers 5 bytes
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := rackState(recovered); !reflect.DeepEqual(want, got) {
		t.Fatal("acknowledged state lost behind a torn batch tail")
	}
}

// TestDurableSnapshotRecoveryAndCompaction drives load across a snapshot
// boundary: recovery loads the snapshot plus the tail, and compaction leaves
// exactly one segment and one snapshot on disk.
func TestDurableSnapshotRecoveryAndCompaction(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	raws := rawBottles(t, clock, 400)

	durable, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	driveMixedLoad(t, durable, clock, raws[:200])
	if err := durable.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after snapshot: %d segments, %d snapshots; want 1 and 1", len(segs), len(snaps))
	}
	// Post-snapshot tail: more submits, replies to pre-snapshot bottles,
	// removes of pre-snapshot bottles.
	if _, err := durable.SubmitBatch(context.Background(), raws[200:]); err != nil {
		t.Fatal(err)
	}
	lateID := fmt.Sprintf("%032x", 2) // submitted before the snapshot, alive
	if err := durable.Reply(context.Background(), lateID, replyFor(clock, lateID, "late-replier")); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Remove(context.Background(), fmt.Sprintf("%032x", 4)); err != nil {
		t.Fatal(err)
	}
	want := rackState(durable)
	durable.dur.log.Crash()
	durable.Close()

	recovered, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := rackState(recovered); !reflect.DeepEqual(want, got) {
		t.Fatal("snapshot+tail recovery diverged from pre-crash state")
	}
}

// TestDurableExpiryReArmed: bottles recovered with persisted deadlines must
// still expire once those deadlines pass.
func TestDurableExpiryReArmed(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	raws := rawBottles(t, clock, 10)

	durable, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.SubmitBatch(context.Background(), raws); err != nil {
		t.Fatal(err)
	}
	durable.Close()

	// Restart within the validity window: everything comes back.
	recovered, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	if held := statsOf(recovered).Held; held != len(raws) {
		t.Fatalf("recovered %d bottles, want %d", held, len(raws))
	}
	// The persisted deadline still governs: advance past it and reap.
	clock.Advance(core.DefaultValidity + time.Minute)
	if n := recovered.Reap(); n != len(raws) {
		t.Fatalf("reaped %d recovered bottles, want %d", n, len(raws))
	}
	recovered.Close()

	// Restart after the deadline: recovery itself drops them.
	late, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if held := statsOf(late).Held; held != 0 {
		t.Fatalf("expired bottles recovered: held=%d, want 0", held)
	}
}

// TestSnapshotOnInMemoryRack: the durability API fails loudly, not quietly,
// without a log.
func TestSnapshotOnInMemoryRack(t *testing.T) {
	r := New(Config{Shards: 2, ReapInterval: -1})
	defer r.Close()
	if err := r.Snapshot(); err != ErrNotDurable {
		t.Fatalf("Snapshot on in-memory rack = %v, want ErrNotDurable", err)
	}
}

// TestDurableFetchStaysDrained: a drained reply queue must not resurrect
// across a clean restart (the drain record replays).
func TestDurableFetchStaysDrained(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	raws := rawBottles(t, clock, 1)
	id := fmt.Sprintf("%032x", 0)

	durable, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Submit(context.Background(), raws[0]); err != nil {
		t.Fatal(err)
	}
	if err := durable.Reply(context.Background(), id, replyFor(clock, id, "replier")); err != nil {
		t.Fatal(err)
	}
	got, err := durable.Fetch(context.Background(), id)
	if err != nil || len(got) != 1 {
		t.Fatalf("Fetch = (%d replies, %v), want 1", len(got), err)
	}
	durable.Close()

	recovered, err := Open(durableConfig(clock, dir, wal.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	again, err := recovered.Fetch(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("drained replies re-delivered after clean restart: %d", len(again))
	}
}
