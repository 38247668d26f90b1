package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sealedbottle/internal/broker/wal"
)

// Record types of the write-ahead log and of handoff records, one set for
// both: a streamed hint replays on its destination the way the destination's
// own log would have (replication.go). Payloads reuse the existing wire
// encodings, so the log can be read with the same codec as the transport
// (see docs/PROTOCOL.md): a submit record carries the marshalled request
// package exactly as submitted, a reply record the AppendReplyPost encoding,
// and the ID-only records the raw request ID bytes (the OpRemove/OpFetch
// body encoding). The values are on disk and on the wire: never renumber.
const (
	// RecSubmit racks a bottle; payload: the marshalled core.RequestPackage.
	RecSubmit byte = 1
	// RecReply queues a reply; payload: AppendReplyPost(nil, requestID, reply).
	RecReply byte = 2
	// RecRemove unracks a bottle; payload: the untagged request-ID bytes.
	RecRemove byte = 3
	// recExpire unracks an expired bottle; payload: the request ID bytes.
	// Logged only, never handed off.
	recExpire byte = 4
	// recDrain empties a bottle's reply queue (a Fetch); payload: the
	// request ID bytes. Logged only, and without waiting for fsync, so a
	// crash between a fetch and the next sync re-delivers the fetched
	// replies on recovery — fetches are at-least-once across restarts.
	recDrain byte = 5
	// RecRepair asks the queueing rack to re-replicate one of its own
	// bottles; payload: the untagged request-ID bytes. Handed to Hint only,
	// never logged or streamed: it is resolved into RecSubmit/RecReply
	// records at queue time.
	RecRepair byte = 6
)

// ErrNotDurable indicates a Snapshot call on a rack without durability.
var ErrNotDurable = errors.New("broker: rack has no durability configured")

// ErrWALCommit wraps a failed write-ahead-log commit: the mutation is applied
// in memory, but the log has failed and the rack should be drained and
// restarted.
var ErrWALCommit = errors.New("broker: wal commit")

// DurabilityConfig turns a rack durable: every acknowledged mutation is
// written to a write-ahead log under Dir before (per the fsync policy) the
// call returns, periodic snapshots bound replay time and disk use, and Open
// recovers the previous rack state from disk.
type DurabilityConfig struct {
	// Dir is the data directory for segments and snapshots. Required.
	Dir string
	// Fsync selects when the log is fsynced: wal.PolicyAlways (group commit
	// per operation), wal.PolicyInterval (the default; timer-driven) or
	// wal.PolicyNever.
	Fsync wal.Policy
	// FsyncInterval is the PolicyInterval sync period (zero: wal default).
	FsyncInterval time.Duration
	// SegmentBytes is the log's segment roll threshold (zero: wal default).
	SegmentBytes int64
	// SnapshotEvery is the periodic snapshot interval (zero: no periodic
	// snapshots — call Rack.Snapshot explicitly, e.g. on SIGTERM).
	SnapshotEvery time.Duration
}

// durability is the rack's handle on its write-ahead log.
type durability struct {
	log           *wal.Log
	snapshotEvery time.Duration
}

// openDurability recovers rack state from the data directory (snapshot plus
// log tail) and arms the shards' record hooks. Called by Open before any
// worker goroutine starts, so recovery needs no locking discipline beyond
// the shard methods' own.
func (r *Rack) openDurability(dc DurabilityConfig) error {
	l, err := wal.Open(wal.Options{
		Dir:          dc.Dir,
		Policy:       dc.Fsync,
		Interval:     dc.FsyncInterval,
		SegmentBytes: dc.SegmentBytes,
	})
	if err != nil {
		return err
	}
	blob, err := l.LoadSnapshot()
	if err != nil {
		l.Close()
		return err
	}
	if blob != nil {
		if err := r.installSnapshot(blob); err != nil {
			l.Close()
			return fmt.Errorf("broker: install snapshot: %w", err)
		}
	}
	if _, err := l.Replay(r.replayRecord); err != nil {
		l.Close()
		return fmt.Errorf("broker: replay wal: %w", err)
	}
	if err := l.Start(); err != nil {
		l.Close()
		return err
	}
	held := 0
	for _, sh := range r.shards {
		held += len(sh.bottles)
	}
	r.recovered = uint64(held)
	// Replay ran through the live mutation paths, so the traffic counters
	// now describe recovery, not traffic. Zero them: Stats.Recovered is the
	// one place recovery reports itself, and post-start counters must mean
	// post-start operations or every dashboard delta is wrong after a
	// restart.
	for _, sh := range r.shards {
		sh.stats = ShardStats{}
	}
	// Arm the hooks only after recovery, so replayed records are not logged
	// again. Each shard enqueues inside its own critical section, making the
	// log order equal the apply order for any single bottle.
	for _, sh := range r.shards {
		sh.logRec = l.Enqueue
	}
	r.dur = &durability{log: l, snapshotEvery: dc.SnapshotEvery}
	return nil
}

// commitDur waits (per the fsync policy) for every mutation enqueued so far
// to be durable. A returned error means the mutation is applied in memory
// but its persistence is not guaranteed — the write-ahead log has failed and
// the rack should be drained and restarted.
func (r *Rack) commitDur() error {
	if r.dur == nil {
		return nil
	}
	if err := r.dur.log.Commit(); err != nil {
		return fmt.Errorf("%w: %w", ErrWALCommit, err)
	}
	return nil
}

// replayRecord applies one recovered log record. Records that no longer
// apply — expired bottles, duplicate IDs from a Submit racing the snapshot,
// replies to bottles removed later in the log — are skipped, exactly as the
// live paths would refuse them; only structural impossibilities abort
// recovery, and those are handled by the caller.
func (r *Rack) replayRecord(typ byte, payload []byte) error {
	now := r.cfg.Now().UTC()
	switch typ {
	case RecSubmit:
		b, err := bottleFromRaw(payload, now)
		if err != nil {
			return nil // expired in the meantime, or unreadable: not recoverable state
		}
		_ = r.shardFor(b.id).put(b, now)
	case RecReply:
		id, raw, err := UnmarshalReplyPost(payload)
		if err != nil {
			return nil
		}
		_ = r.shardFor(id).pushReply(id, raw, r.cfg.MaxRepliesPerBottle, now)
	case RecRemove, recExpire:
		id := string(payload)
		// Replay is pre-serving and owner-blind: recovered bottles carry open
		// ownership (the record format predates it), so the empty caller is
		// always allowed.
		_, _ = r.shardFor(id).remove(id, "", now)
	case recDrain:
		id := string(payload)
		_, _ = r.shardFor(id).drainReplies(id, "")
	}
	// Unknown record types are skipped: a downgraded broker replays what it
	// understands rather than refusing to start.
	return nil
}

// Snapshot persists a point-in-time snapshot of the live rack state and
// compacts the log: segments fully covered by the snapshot are deleted.
// Capture is stop-the-world — every shard lock is held while the state is
// captured and the snapshot's position in the log order is fixed — so the
// snapshot reflects exactly the records logged before it and none after.
// The pause is proportional to held bottles but copies only slice
// references, never payload bytes; serialization and the file write happen
// after the locks are released.
func (r *Rack) Snapshot() error {
	if r.dur == nil {
		return ErrNotDurable
	}
	if r.isClosed() {
		return ErrRackClosed
	}
	for _, sh := range r.shards {
		sh.mu.Lock()
	}
	captured := r.captureSnapshotLocked()
	wait := r.dur.log.Snapshot(func() []byte { return encodeSnapshot(captured) })
	for _, sh := range r.shards {
		sh.mu.Unlock()
	}
	return wait()
}

// snapshotLoop writes periodic snapshots until the rack closes, skipping
// intervals in which nothing was logged.
func (r *Rack) snapshotLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.dur.snapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if r.dur.log.AppendedSinceSnapshot() > 0 {
				// Errors are sticky in the log and resurface on every commit;
				// the loop itself has nowhere to report them.
				_ = r.Snapshot()
			}
		case <-r.closed:
			return
		}
	}
}

// Snapshot blob encoding, reusing the transport codec's primitives:
//
//	u32 bottle count
//	per bottle: u32 rawLen | raw package | rawList replies
//
// The raw package carries the ID and expiry deadline, so recovery re-derives
// everything else (prime group membership, expiry re-arming) exactly as a
// live Submit would.

// capturedBottle pins one bottle's state by reference: b.raw is written once
// at validation and never mutated, and reply queue elements are copied on
// push and never mutated in place — a later concurrent append either writes
// past the captured length or reallocates, so the captured headers keep
// describing exactly the capture-time content.
type capturedBottle struct {
	raw     []byte
	replies [][]byte
}

// captureSnapshotLocked collects references to every live bottle and reply
// queue. The caller holds every shard lock; only slice headers are copied.
func (r *Rack) captureSnapshotLocked() []capturedBottle {
	total := 0
	for _, sh := range r.shards {
		total += len(sh.bottles)
	}
	out := make([]capturedBottle, 0, total)
	for _, sh := range r.shards {
		for id, b := range sh.bottles {
			out = append(out, capturedBottle{raw: b.raw, replies: sh.replies[id]})
		}
	}
	return out
}

// encodeSnapshot serializes a captured rack state; it runs on the log's
// committer goroutine, after the shard locks are released.
func encodeSnapshot(bottles []capturedBottle) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(bottles)))
	for _, b := range bottles {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.raw)))
		buf = append(buf, b.raw...)
		buf = appendRawList(buf, b.replies)
	}
	return buf
}

// installSnapshot loads a snapshot blob into the (empty, pre-serving) rack.
// Bottles that expired while the rack was down are dropped here, which is
// how recovery honours their persisted deadlines.
func (r *Rack) installSnapshot(blob []byte) error {
	rd := &reader{data: blob}
	count, err := rd.uint32()
	if err != nil {
		return fmt.Errorf("%w: bottle count", ErrMalformedFrame)
	}
	now := r.cfg.Now().UTC()
	for i := 0; i < int(count); i++ {
		size, err := rd.uint32()
		if err != nil {
			return fmt.Errorf("%w: bottle size", ErrMalformedFrame)
		}
		raw, err := rd.bytes(int(size))
		if err != nil {
			return fmt.Errorf("%w: bottle payload", ErrMalformedFrame)
		}
		replies, err := readRawList(rd)
		if err != nil {
			return err
		}
		// readRawList is zero-copy; installReplies retains the queues, so copy
		// them out of the snapshot blob instead of pinning it whole (cold
		// path: recovery only).
		for j, rep := range replies {
			replies[j] = append([]byte(nil), rep...)
		}
		b, err := bottleFromRaw(raw, now)
		if err != nil {
			continue // expired while down (or unreadable): not recovered
		}
		sh := r.shardFor(b.id)
		if err := sh.put(b, now); err != nil {
			continue
		}
		sh.installReplies(b.id, replies)
	}
	if rd.remaining() != 0 {
		return fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return nil
}
