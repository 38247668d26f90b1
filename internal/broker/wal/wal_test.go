package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// rec is one replayed record, for comparing recoveries.
type rec struct {
	typ     byte
	payload string
}

// collect opens dir, recovers everything (snapshot blob + records) and
// closes again without starting the log.
func collect(t *testing.T, dir string) (snap []byte, recs []rec) {
	t.Helper()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	snap, err = l.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(func(typ byte, payload []byte) error {
		recs = append(recs, rec{typ: typ, payload: string(payload)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return snap, recs
}

// writeLog opens+starts a log in dir, appends the records, and returns it.
func writeLog(t *testing.T, dir string, opts Options, recs []rec) *Log {
	t.Helper()
	opts.Dir = dir
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(func(byte, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		l.Enqueue(r.typ, []byte(r.payload))
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	return l
}

func someRecords(n int) []rec {
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{typ: byte(1 + i%5), payload: fmt.Sprintf("payload-%04d-%s", i, strings.Repeat("x", i%37))}
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"always", PolicyAlways}, {"interval", PolicyInterval}, {"never", PolicyNever}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy must reject unknown names")
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := someRecords(200)
	l := writeLog(t, dir, Options{Policy: PolicyAlways}, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap, got := collect(t, dir)
	if snap != nil {
		t.Fatalf("unexpected snapshot: %d bytes", len(snap))
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	want := someRecords(300)
	l := writeLog(t, dir, Options{Policy: PolicyAlways, SegmentBytes: 1024}, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected several rolled segments, got %d", len(segs))
	}
	_, got := collect(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(want))
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l := writeLog(t, dir, Options{Policy: PolicyAlways, SegmentBytes: 1024}, someRecords(150))
	if l.AppendedSinceSnapshot() != 150 {
		t.Fatalf("AppendedSinceSnapshot = %d, want 150", l.AppendedSinceSnapshot())
	}
	blob := []byte("state-after-150")
	if err := l.Snapshot(func() []byte { return blob })(); err != nil {
		t.Fatal(err)
	}
	if n := l.AppendedSinceSnapshot(); n != 0 {
		t.Fatalf("AppendedSinceSnapshot after snapshot = %d, want 0", n)
	}
	// Everything before the snapshot is compacted away.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(segs))
	}
	// Tail records after the snapshot replay on top of it.
	tail := []rec{{typ: 1, payload: "after-snap-1"}, {typ: 2, payload: "after-snap-2"}}
	for _, r := range tail {
		l.Enqueue(r.typ, []byte(r.payload))
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap, got := collect(t, dir)
	if !bytes.Equal(snap, blob) {
		t.Fatalf("snapshot = %q, want %q", snap, blob)
	}
	if len(got) != len(tail) || got[0] != tail[0] || got[1] != tail[1] {
		t.Fatalf("tail replay = %+v, want %+v", got, tail)
	}
}

// TestCorruptSnapshotRefusesStart: once compaction has deleted the history
// a snapshot superseded, a corrupt snapshot must fail recovery loudly — a
// silent empty start would discard every durably acknowledged record.
func TestCorruptSnapshotRefusesStart(t *testing.T) {
	dir := t.TempDir()
	l := writeLog(t, dir, Options{Policy: PolicyAlways}, someRecords(10))
	if err := l.Snapshot(func() []byte { return []byte("good-snapshot") })(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	// Flip a byte inside the blob: the CRC check must reject it.
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.LoadSnapshot(); err == nil {
		t.Fatal("LoadSnapshot must refuse to start when every snapshot is corrupt")
	}
}

// TestCorruptSnapshotFallsBackToOlder: when an older valid snapshot and its
// full segment chain survive (a crash mid-compaction leaves exactly this),
// recovery falls back to them and replays the longer tail.
func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	tail := []rec{{typ: 1, payload: "tail-1"}, {typ: 2, payload: "tail-2"}}
	// Construct the post-crash directory directly: snap-2 (valid, older),
	// segment 2 carrying the tail, snap-3 (newer, about to be corrupted),
	// segment 3 (empty, current).
	if _, err := writeSnapshotFile(dir, 2, []byte("older-snapshot")); err != nil {
		t.Fatal(err)
	}
	seg2, err := createSegment(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tail {
		if err := seg2.write(appendRecord(nil, r.typ, []byte(r.payload))); err != nil {
			t.Fatal(err)
		}
	}
	seg2.f.Close()
	if _, err := writeSnapshotFile(dir, 3, []byte("newer-snapshot")); err != nil {
		t.Fatal(err)
	}
	seg3, err := createSegment(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	seg3.f.Close()
	// Corrupt the newer snapshot's blob.
	data, err := os.ReadFile(snapshotPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(snapshotPath(dir, 3), data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	snap, err := l.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "older-snapshot" {
		t.Fatalf("fallback snapshot = %q, want older-snapshot", snap)
	}
	var got []rec
	if _, err := l.Replay(func(typ byte, payload []byte) error {
		got = append(got, rec{typ: typ, payload: string(payload)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tail) || got[0] != tail[0] || got[1] != tail[1] {
		t.Fatalf("fallback replay = %+v, want %+v", got, tail)
	}
}

// TestMissingSegmentRefusesReplay: a hole in the segment chain (lost or
// deleted history) must abort recovery rather than silently skip it.
func TestMissingSegmentRefusesReplay(t *testing.T) {
	dir := t.TempDir()
	l := writeLog(t, dir, Options{Policy: PolicyAlways, SegmentBytes: 1024}, someRecords(200))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need a few segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Replay(func(byte, []byte) error { return nil }); err == nil {
		t.Fatal("Replay must refuse a broken segment chain")
	}
}

// TestTruncationSweep is the torn-tail guarantee: for every possible
// truncation point of the log file, recovery must succeed and yield exactly
// the records whose bytes fully survived — a prefix, never garbage, never an
// error.
func TestTruncationSweep(t *testing.T) {
	master := t.TempDir()
	want := someRecords(20)
	l := writeLog(t, master, Options{Policy: PolicyAlways}, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries: offsets (from segment start) at which exactly k
	// records are complete.
	boundaries := []int64{segmentHeaderSize}
	for _, r := range want {
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+int64(recordHeaderSize+1+len(r.payload)))
	}
	if boundaries[len(boundaries)-1] != int64(len(full)) {
		t.Fatalf("boundary math: %d != file size %d", boundaries[len(boundaries)-1], len(full))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, filepath.Base(segs[0]))
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []rec
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if _, err := l.Replay(func(typ byte, payload []byte) error {
			got = append(got, rec{typ: typ, payload: string(payload)})
			return nil
		}); err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		l.Close()
		complete := 0
		for complete < len(want) && boundaries[complete+1] <= int64(cut) {
			complete++
		}
		if len(got) != complete {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), complete)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
	}
}

// TestCorruptTailStopsReplay flips one byte in the final record: replay must
// recover everything before it and treat the flip as a tear.
func TestCorruptTailStopsReplay(t *testing.T) {
	dir := t.TempDir()
	want := someRecords(10)
	l := writeLog(t, dir, Options{Policy: PolicyAlways}, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got := collect(t, dir)
	if len(got) != len(want)-1 {
		t.Fatalf("recovered %d records past a corrupt tail, want %d", len(got), len(want)-1)
	}
}

// TestRestartAfterTornTail covers the crash→recover→crash→recover chain: a
// tear is trimmed on Start, so records appended by the recovered process are
// reachable by the next recovery.
func TestRestartAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	first := someRecords(10)
	l := writeLog(t, dir, Options{Policy: PolicyAlways}, first)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: half of the last record survives.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	// Second incarnation replays 9 records and appends one more.
	second := []rec{{typ: 3, payload: "post-crash"}}
	l2 := writeLog(t, dir, Options{Policy: PolicyAlways}, second)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// Third incarnation must see the 9 surviving records plus the new one.
	_, got := collect(t, dir)
	if len(got) != 10 {
		t.Fatalf("recovered %d records, want 10 (9 surviving + 1 post-crash)", len(got))
	}
	if got[9] != second[0] {
		t.Fatalf("last record = %+v, want %+v", got[9], second[0])
	}
}

// TestCrashLosesOnlyUncommitted exercises the kill -9 hook: records
// committed under PolicyAlways survive a Crash, and the log reopens cleanly.
func TestCrashLosesOnlyUncommitted(t *testing.T) {
	dir := t.TempDir()
	want := someRecords(50)
	l := writeLog(t, dir, Options{Policy: PolicyAlways}, want)
	l.Crash()
	_, got := collect(t, dir)
	if len(got) < len(want) {
		t.Fatalf("recovered %d records after crash, want at least the %d committed", len(got), len(want))
	}
}

// TestDirLockRefusesSecondWriter: two logs on one directory would corrupt
// each other; the second Open must fail while the first holds the flock,
// and succeed once it is released.
func TestDirLockRefusesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	l := writeLog(t, dir, Options{Policy: PolicyAlways}, someRecords(3))
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open on a locked data directory must fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open after release: %v", err)
	}
	l2.Close()
}

func TestSizeBytesTracksDisk(t *testing.T) {
	dir := t.TempDir()
	l := writeLog(t, dir, Options{Policy: PolicyAlways, SegmentBytes: 2048}, someRecords(100))
	defer l.Close()
	onDisk := func() int64 {
		var total int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		return total
	}
	if got, want := l.SizeBytes(), onDisk(); got != want {
		t.Fatalf("SizeBytes = %d, on disk %d", got, want)
	}
	if err := l.Snapshot(func() []byte { return []byte("compact me") })(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.SizeBytes(), onDisk(); got != want {
		t.Fatalf("SizeBytes after compaction = %d, on disk %d", got, want)
	}
}

// holdCommitter stages a snapshot whose blob function blocks, and returns
// once the committer is inside it: until release is closed, nothing staged
// after the call reaches the disk.
func holdCommitter(t *testing.T, l *Log, blob string) (release chan struct{}, wait func() error) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	wait = l.Snapshot(func() []byte {
		close(entered)
		<-release
		return []byte(blob)
	})
	<-entered
	return release, wait
}

// fillStage enqueues records of recLen encoded bytes from a goroutine, more
// than the stage holds, and returns once the stage is too full for the next
// one; done is closed when the goroutine's last Enqueue returns.
func fillStage(t *testing.T, l *Log, prefix string) (recs []rec, done chan struct{}) {
	t.Helper()
	const recLen = 64 << 10
	filler := strings.Repeat("f", recLen-recordHeaderSize-1-len(prefix)-4)
	for i := 0; i < maxStaged/recLen+2; i++ {
		recs = append(recs, rec{typ: 4, payload: fmt.Sprintf("%s%04d%s", prefix, i, filler)})
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		for _, r := range recs {
			l.Enqueue(r.typ, []byte(r.payload))
		}
	}()
	for {
		l.mu.Lock()
		staged := len(l.staged)
		l.mu.Unlock()
		if staged > maxStaged {
			t.Fatalf("stage holds %d bytes, bound %d", staged, maxStaged)
		}
		if staged+recLen > maxStaged {
			return recs, done
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStageBoundBehindSnapshot holds the committer in one snapshot, stages
// records, a second snapshot and then records past maxStaged behind it: the
// Enqueue that meets the bound blocks until the committer is released, the
// next burst carries the snapshot mark and the full stage, and recovery
// returns the second snapshot and exactly the records enqueued after it, in
// order.
func TestStageBoundBehindSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := writeLog(t, dir, Options{Policy: PolicyAlways}, someRecords(5))
	release, waitFirst := holdCommitter(t, l, "first")
	for _, r := range someRecords(3) {
		l.Enqueue(r.typ, []byte(r.payload))
	}
	waitSecond := l.Snapshot(func() []byte { return []byte("second") })
	want, done := fillStage(t, l, "after-")
	select {
	case <-done:
		t.Fatal("every Enqueue returned past a full stage while the committer was held")
	default:
	}
	close(release)
	<-done
	if err := waitFirst(); err != nil {
		t.Fatal(err)
	}
	if err := waitSecond(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap, got := collect(t, dir)
	if string(snap) != "second" {
		t.Fatalf("snapshot = %q, want second", snap)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want the %d enqueued after the snapshot", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %.12q, want %.12q", i, got[i].payload, want[i].payload)
		}
	}
}

// TestCloseReleasesBlockedCallers: with the committer held, Close releases
// an Enqueue blocked on the bound at once, and a PolicyAlways Commit waiting
// on its fsync once the committer exits.
func TestCloseReleasesBlockedCallers(t *testing.T) {
	l := writeLog(t, t.TempDir(), Options{Policy: PolicyAlways}, nil)
	release, wait := holdCommitter(t, l, "held")
	_, enqueued := fillStage(t, l, "blocked-")
	committed := make(chan error, 1)
	go func() { committed <- l.Commit() }()
	for {
		l.mu.Lock()
		waiting := l.syncWant > l.synced
		l.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	<-enqueued
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-committed; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit across Close = %v, want nil or ErrClosed", err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentCommitsKeepOrder: goroutines enqueue and commit under
// PolicyAlways across many segment rolls; replay returns each goroutine's
// records in its own order, and every segment ends on a record boundary.
func TestConcurrentCommitsKeepOrder(t *testing.T) {
	dir := t.TempDir()
	l := writeLog(t, dir, Options{Policy: PolicyAlways, SegmentBytes: 1024}, nil)
	const writers, each = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Enqueue(byte(g), []byte(fmt.Sprintf("w%d-%04d", g, i)))
				if err := l.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := collect(t, dir)
	if len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
	var next [writers]int
	for _, r := range got {
		g := int(r.typ)
		if want := fmt.Sprintf("w%d-%04d", g, next[g]); r.payload != want {
			t.Fatalf("writer %d: replayed %q, want %q", g, r.payload, want)
		}
		next[g]++
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	for _, path := range segs {
		seq, _ := parseName(filepath.Base(path), "wal-", ".log")
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		_, valid, intact, err := replaySegmentFile(path, seq, func(byte, []byte) error { return nil })
		if err != nil || !intact || valid != st.Size() {
			t.Fatalf("%s: intact %v, valid %d of %d bytes (%v)", filepath.Base(path), intact, valid, st.Size(), err)
		}
	}
}
