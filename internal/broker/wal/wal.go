// Package wal gives the bottle rack a durability substrate: an append-only,
// segmented, CRC-checked write-ahead log plus point-in-time snapshots, so a
// broker restart recovers every acknowledged bottle instead of silently
// dropping the rack (the paper's model assumes pending requests persist in
// the network until opened or expired — a production rendezvous service has
// to assume the same of itself).
//
// The package is deliberately generic: records are an opaque (type, payload)
// pair and the snapshot is an opaque blob, both encoded by the caller (the
// broker package reuses its wire codec for them — see docs/PROTOCOL.md for
// the exact on-disk formats). What the log provides is ordering, durability
// and bounded disk use:
//
//   - Enqueue encodes each record straight into one staging buffer under the
//     log's mutex, so the log order equals the order in which callers
//     enqueued (callers enqueue inside the same critical section that applies
//     the mutation, making replay order equal apply order). A single
//     committer goroutine swaps the buffer out and writes it, one write per
//     burst; the buffer is bounded, so enqueuers feel back-pressure.
//   - Durability follows the fsync Policy: PolicyAlways makes Commit a group
//     commit — every record enqueued before the call is fsynced, with
//     concurrent committers amortized into one fsync; PolicyInterval fsyncs
//     on a timer; PolicyNever leaves syncing to the operating system.
//   - The log is cut into segments (rolled at SegmentBytes); a snapshot
//     supersedes every record enqueued before it, so segments older than the
//     newest snapshot are deleted (compaction) and recovery replays only the
//     snapshot plus the tail.
//   - Replay tolerates a torn final record — a crash mid-write loses at most
//     the unsynced suffix, never the ability to recover the prefix.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options fields left zero.
const (
	// DefaultInterval is the PolicyInterval fsync period.
	DefaultInterval = 100 * time.Millisecond
	// DefaultSegmentBytes is the segment roll threshold.
	DefaultSegmentBytes = 64 << 20
)

// maxStaged bounds the record bytes staged for the committer; an enqueuer
// (who may hold a rack shard lock) blocks once one more record would pass it.
// A record is always admitted into an empty stage, however large.
const maxStaged = 1 << 20

// Errors of the log.
var (
	// ErrClosed indicates an operation on a closed (or crashed) log.
	ErrClosed = errors.New("wal: log closed")
	// ErrBadPolicy indicates an unknown fsync policy name.
	ErrBadPolicy = errors.New("wal: unknown fsync policy")
)

// Policy selects when appended records are fsynced.
type Policy int

const (
	// PolicyInterval (the default) fsyncs on a timer: a crash loses at most
	// the last Interval of acknowledged records.
	PolicyInterval Policy = iota
	// PolicyAlways fsyncs before Commit returns: an acknowledged record
	// survives any crash. Concurrent commits are grouped into one fsync.
	PolicyAlways
	// PolicyNever never fsyncs: the operating system decides when dirty pages
	// reach the disk. Fastest, weakest.
	PolicyNever
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy's flag spelling.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "never":
		return PolicyNever, nil
	}
	return 0, fmt.Errorf("%w: %q (want always, interval or never)", ErrBadPolicy, s)
}

// Options tunes a Log.
type Options struct {
	// Dir is the data directory; it is created if missing. Required.
	Dir string
	// Policy selects the fsync behaviour (zero: PolicyInterval).
	Policy Policy
	// Interval is the PolicyInterval fsync period (zero: DefaultInterval).
	Interval time.Duration
	// SegmentBytes is the segment roll threshold (zero: DefaultSegmentBytes).
	SegmentBytes int64
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// mark is a committer action at a byte offset of the staged records: a
// segment roll, or (done non-nil) a snapshot.
type mark struct {
	at   int
	snap func() []byte
	done chan error
}

// Log is a segmented write-ahead log bound to one data directory. Open scans
// the directory; LoadSnapshot and Replay recover its contents; Start begins a
// fresh segment and accepts appends. Enqueue/Commit/Snapshot are safe for
// concurrent use once started.
type Log struct {
	opts   Options
	unlock func() // releases the data-directory flock

	// Scan results, owned between Open and Start.
	segs      []segmentInfo
	snaps     []snapshotInfo
	snapSeq   uint64 // first segment seq NOT covered by the loaded snapshot
	replayed  bool
	tornSeq   uint64 // segment where Replay hit a torn record (0: none)
	tornValid int64  // valid byte prefix of the torn segment

	started bool // set by Start, before the committer runs

	// poke wakes the committer. It is sent without blocking when the stage
	// turns non-empty, when a Commit needs an fsync and on shutdown; one
	// pending poke covers any number of these.
	poke chan struct{}

	mu sync.Mutex // guards the stage and the shutdown state below
	// room wakes enqueuers blocked on maxStaged; flushed wakes commits
	// waiting on an fsync and a shutdown waiting on the committer's exit.
	room, flushed sync.Cond
	staged        []byte // encoded records not yet taken by the committer
	marks         []mark // rolls and snapshots at offsets of staged, in order
	segSize       int64  // current segment's size once staged is written
	enqueued      uint64 // records staged since Start
	syncWant      uint64 // enqueued count a waiting Commit needs fsynced
	synced        uint64 // records fsynced
	crash         bool   // the shutdown is a Crash: staged records are dropped
	exited        bool   // the committer has returned
	// closed is set under mu by Close or Crash and read without it by Commit.
	closed atomic.Bool

	err      atomic.Value // sticky first write error, type error
	size     atomic.Int64 // on-disk bytes: live segments + live snapshot
	appended atomic.Int64 // records enqueued since open or last snapshot

	// Committer-owned state.
	cur *segmentWriter
}

// Open scans (creating if needed) the data directory and returns a log ready
// for recovery: call LoadSnapshot, then Replay, then Start.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	unlock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, unlock: unlock, poke: make(chan struct{}, 1)}
	l.room.L, l.flushed.L = &l.mu, &l.mu
	if err := l.scan(); err != nil {
		unlock()
		return nil, err
	}
	return l, nil
}

// stickyErr returns the first write error, if any.
func (l *Log) stickyErr() error {
	if v := l.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// setErr records the first write error; later records are dropped and later
// commits fail with it.
func (l *Log) setErr(err error) {
	if l.err.Load() == nil {
		l.err.Store(fmt.Errorf("wal: log failed: %w", err))
	}
}

// SizeBytes returns the current on-disk size of the log: live segments plus
// the live snapshot.
func (l *Log) SizeBytes() int64 { return l.size.Load() }

// AppendedSinceSnapshot returns how many records have been enqueued since the
// log was opened or the last snapshot was written; periodic snapshot loops
// use it to skip no-op snapshots.
func (l *Log) AppendedSinceSnapshot() int64 { return l.appended.Load() }

// Start opens a fresh segment (sequence one past everything on disk — a torn
// tail is never appended to) and starts the committer. It also finishes any
// compaction interrupted by a crash (deleting segments and snapshots
// superseded by the loaded snapshot) and trims the torn segment Replay
// found, if any, so the tear cannot shadow records written from here on.
func (l *Log) Start() error {
	if l.started {
		return errors.New("wal: already started")
	}
	l.removeObsolete(l.snapSeq)
	if err := l.trimTorn(); err != nil {
		return err
	}
	next := l.snapSeq
	if n := len(l.segs); n > 0 {
		next = l.segs[n-1].seq + 1
	}
	if next == 0 {
		next = 1
	}
	w, err := createSegment(l.opts.Dir, next)
	if err != nil {
		return err
	}
	l.cur = w
	l.segSize = w.size
	l.size.Add(w.size)
	l.segs = append(l.segs, segmentInfo{seq: next, path: w.path, size: w.size})
	l.started = true
	go l.run()
	return nil
}

// Enqueue appends one record to the log. It is meant to be called inside
// the same critical section that applies the record's effect, so log order
// equals apply order; durability (per the policy) is what Commit is for. The
// record is encoded into the stage before Enqueue returns, so payload is the
// caller's again at once. Enqueue blocks while the stage holds maxStaged
// bytes. Records enqueued during shutdown may be dropped — the caller's
// Commit reports the close.
func (l *Log) Enqueue(typ byte, payload []byte) {
	l.appended.Add(1)
	n := recordHeaderSize + 1 + len(payload)
	l.mu.Lock()
	for len(l.staged) > 0 && len(l.staged)+n > maxStaged && !l.closed.Load() {
		l.room.Wait()
	}
	if l.closed.Load() {
		l.mu.Unlock()
		return
	}
	wake := len(l.staged) == 0 && len(l.marks) == 0
	// Roll where the record would overflow a segment that holds records.
	if l.segSize+int64(n) > l.opts.SegmentBytes && l.segSize > segmentHeaderSize {
		l.marks = append(l.marks, mark{at: len(l.staged)})
		l.segSize = segmentHeaderSize
	}
	l.staged = appendRecord(l.staged, typ, payload)
	l.segSize += int64(n)
	l.enqueued++
	l.mu.Unlock()
	if wake {
		l.wake()
	}
}

// wake pokes the committer without blocking.
func (l *Log) wake() {
	select {
	case l.poke <- struct{}{}:
	default:
	}
}

// Commit makes every record enqueued before the call durable per the policy:
// under PolicyAlways it blocks for a (group) fsync; under PolicyInterval and
// PolicyNever it reports a sticky write failure or a closed log, if any —
// the closed check is what keeps Enqueue's contract honest: a record dropped
// by a shutdown race surfaces here as ErrClosed instead of a false success.
func (l *Log) Commit() error {
	if err := l.stickyErr(); err != nil {
		return err
	}
	if l.closed.Load() {
		return ErrClosed
	}
	if l.opts.Policy != PolicyAlways {
		return nil
	}
	l.mu.Lock()
	target := l.enqueued
	if l.synced < target && l.syncWant < target {
		l.syncWant = target
		l.wake()
	}
	for l.synced < target && !l.exited && l.stickyErr() == nil {
		l.flushed.Wait()
	}
	durable := l.synced >= target
	l.mu.Unlock()
	if err := l.stickyErr(); err != nil {
		return err
	}
	if !durable {
		return ErrClosed
	}
	return nil
}

// Snapshot persists a point-in-time snapshot superseding every record
// enqueued before the call, then compacts: the current segment is retired, a
// fresh one is started, and all older segments and snapshots are deleted.
// The blob function is evaluated once, by the committer, when the snapshot's
// turn in the log order comes; the caller must guarantee it produces a blob
// reflecting exactly the effects of the records enqueued before this call
// (the broker captures immutable references under every shard lock and
// serializes them lazily here, keeping the stop-the-world window short).
// The returned wait function reports when the snapshot is durable; the
// call itself establishes its position in the log order.
func (l *Log) Snapshot(blob func() []byte) (wait func() error) {
	done := make(chan error, 1)
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return func() error { return ErrClosed }
	}
	wake := len(l.staged) == 0 && len(l.marks) == 0
	l.marks = append(l.marks, mark{at: len(l.staged), snap: blob, done: done})
	l.segSize = segmentHeaderSize
	l.mu.Unlock()
	if wake {
		l.wake()
	}
	return func() error { return <-done }
}

// Close writes out the staged records, fsyncs the tail, and closes the
// current segment. The log cannot be reused; Open the directory again.
func (l *Log) Close() error {
	if !l.shut(false) {
		return nil
	}
	return l.stickyErr()
}

// Crash abandons the log the way a kill -9 would: staged records are
// dropped unwritten and the file is closed mid-state. It exists so
// durability tests can exercise recovery from an unclean shutdown
// in-process; production code calls Close.
func (l *Log) Crash() { l.shut(true) }

// shut stops the log and returns once the committer has exited; false means
// the log was already shut. Enqueuers blocked on the bound are released at
// once and drop their records.
func (l *Log) shut(crash bool) bool {
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return false
	}
	l.closed.Store(true)
	l.crash = crash
	l.room.Broadcast()
	if !l.started {
		l.exited = true
	}
	l.wake()
	for !l.exited {
		l.flushed.Wait()
	}
	l.mu.Unlock()
	// The flock is released so the same process can reopen the directory;
	// a real kill -9 releases it via process death anyway.
	l.unlock()
	return true
}

// run is the committer: the single goroutine that writes the staged
// records, rolls segments, persists snapshots and fsyncs for waiting
// commits. Each burst takes the whole stage in one swap with the
// committer's spare buffer and writes the bytes between marks with one
// write each.
func (l *Log) run() {
	defer func() {
		l.mu.Lock()
		l.exited = true
		l.mu.Unlock()
		l.flushed.Broadcast()
	}()
	var tick <-chan time.Time
	if l.opts.Policy == PolicyInterval {
		t := time.NewTicker(l.opts.Interval)
		defer t.Stop()
		tick = t.C
	}
	var spare []byte
	dirty := false // bytes written to the OS but not yet fsynced
	for {
		select {
		case <-l.poke:
		case <-tick:
			if dirty && l.sync() == nil {
				dirty = false
			}
			continue
		}
		l.mu.Lock()
		buf, marks, upTo := l.staged, l.marks, l.enqueued
		l.staged, l.marks = spare[:0], nil
		closing, crash := l.closed.Load(), l.crash
		syncNow := closing || l.syncWant > l.synced
		l.mu.Unlock()
		l.room.Broadcast()
		if crash {
			l.cur.f.Close() // abandon the stage unwritten
			for _, m := range marks {
				if m.done != nil {
					m.done <- ErrClosed
				}
			}
			return
		}
		at := 0
		for _, m := range marks {
			l.write(buf[at:m.at])
			at = m.at
			// Both a roll and a snapshot fsync the segment they retire.
			if m.done != nil {
				l.persistSnapshot(m.snap, m.done)
			} else if l.stickyErr() == nil {
				if err := l.roll(); err != nil {
					l.setErr(err)
				}
			}
			dirty = false
		}
		l.write(buf[at:])
		dirty = dirty || at < len(buf)
		if syncNow && dirty && l.sync() == nil {
			dirty = false
		}
		l.mu.Lock()
		if !dirty {
			l.synced = upTo
		}
		l.mu.Unlock()
		l.flushed.Broadcast()
		if closing {
			if err := l.cur.f.Close(); err != nil {
				l.setErr(err)
			}
			return
		}
		// Only a record larger than the bound grows the stage this far; do
		// not pin its buffer.
		if cap(buf) > 2*maxStaged {
			buf = nil
		}
		spare = buf
	}
}

// write appends staged record bytes to the current segment.
func (l *Log) write(b []byte) {
	if len(b) == 0 || l.stickyErr() != nil {
		return
	}
	before := l.cur.size
	err := l.cur.write(b)
	l.size.Add(l.cur.size - before)
	l.segs[len(l.segs)-1].size = l.cur.size
	if err != nil {
		l.setErr(err)
	}
}

// sync fsyncs the current segment.
func (l *Log) sync() error {
	if err := l.stickyErr(); err != nil {
		return err
	}
	if err := l.cur.f.Sync(); err != nil {
		l.setErr(err)
		return l.stickyErr()
	}
	return nil
}

// roll closes the current segment (fsynced, so a completed segment is never
// torn) and opens the next.
func (l *Log) roll() error {
	if err := l.sync(); err != nil {
		return err
	}
	if err := l.cur.f.Close(); err != nil {
		return err
	}
	next := l.cur.seq + 1
	w, err := createSegment(l.opts.Dir, next)
	if err != nil {
		return err
	}
	l.cur = w
	l.size.Add(w.size)
	l.segs = append(l.segs, segmentInfo{seq: next, path: w.path, size: w.size})
	syncDir(l.opts.Dir)
	return nil
}

// persistSnapshot durably writes the snapshot blob, rolls to a fresh
// segment, and deletes every segment and snapshot the blob supersedes. On
// failure the previous segments are left intact, so recovery still has the
// full record history.
func (l *Log) persistSnapshot(makeBlob func() []byte, done chan error) {
	blob := makeBlob()
	fail := func(err error) {
		l.setErr(err)
		done <- l.stickyErr()
	}
	if err := l.stickyErr(); err != nil {
		done <- err
		return
	}
	// Retire the current segment: everything in it (and before) is covered by
	// the blob; the records enqueued after the snapshot request go to the new
	// segment and are replayed on top of it.
	if err := l.cur.f.Sync(); err != nil {
		fail(err)
		return
	}
	if err := l.cur.f.Close(); err != nil {
		fail(err)
		return
	}
	covers := l.cur.seq + 1
	size, err := writeSnapshotFile(l.opts.Dir, covers, blob)
	if err != nil {
		fail(err)
		return
	}
	w, err := createSegment(l.opts.Dir, covers)
	if err != nil {
		fail(err)
		return
	}
	l.cur = w
	l.size.Add(w.size + size)
	l.segs = append(l.segs, segmentInfo{seq: covers, path: w.path, size: w.size})
	l.snaps = append(l.snaps, snapshotInfo{seq: covers, path: snapshotPath(l.opts.Dir, covers), size: size})
	syncDir(l.opts.Dir)
	l.removeObsolete(covers)
	l.appended.Store(0)
	done <- nil
}

// trimTorn repairs the torn segment found by Replay: a tear past the header
// is truncated to its valid record prefix, a segment without even a valid
// header is deleted, and segments beyond the tear (only possible after
// repeated unclean shutdowns) are deleted — replay already cannot see past
// the tear, so their records are unreachable history. This runs before the
// fresh segment is created, so everything appended from now on sits after a
// clean tail and is reachable by the next recovery.
func (l *Log) trimTorn() error {
	if !l.replayed || l.tornSeq == 0 {
		return nil
	}
	kept := l.segs[:0]
	for _, s := range l.segs {
		switch {
		case s.seq < l.tornSeq:
			kept = append(kept, s)
		case s.seq == l.tornSeq && l.tornValid >= segmentHeaderSize:
			if err := os.Truncate(s.path, l.tornValid); err != nil {
				return fmt.Errorf("wal: trim torn segment: %w", err)
			}
			l.size.Add(l.tornValid - s.size)
			s.size = l.tornValid
			kept = append(kept, s)
		default:
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: remove torn segment: %w", err)
			}
			l.size.Add(-s.size)
		}
	}
	l.segs = kept
	syncDir(l.opts.Dir)
	return nil
}

// removeObsolete deletes segments and snapshots fully superseded by the
// snapshot covering sequence covers, releasing their bytes.
func (l *Log) removeObsolete(covers uint64) {
	keptSegs := l.segs[:0]
	for _, s := range l.segs {
		if s.seq < covers {
			if os.Remove(s.path) == nil {
				l.size.Add(-s.size)
			}
			continue
		}
		keptSegs = append(keptSegs, s)
	}
	l.segs = keptSegs
	keptSnaps := l.snaps[:0]
	for _, s := range l.snaps {
		if s.seq < covers {
			if os.Remove(s.path) == nil {
				l.size.Add(-s.size)
			}
			continue
		}
		keptSnaps = append(keptSnaps, s)
	}
	l.snaps = keptSnaps
}

// syncDir fsyncs a directory so renames and creations within it are durable;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// snapshotPath names the snapshot file covering segments below seq.
func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// segmentPath names the segment file with the given sequence.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}
