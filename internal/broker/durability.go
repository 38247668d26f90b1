package broker

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/core"
)

// Record types of the write-ahead log, the snapshot and handoff records, one
// set for all three, applied by one function (apply): a streamed hint
// replays on its destination the way the destination's own log would have.
// Payloads reuse the existing wire encodings, so the log can be read with
// the same codec as the transport (see docs/PROTOCOL.md): a submit record
// carries the marshalled request package exactly as submitted, a reply
// record the AppendReplyPost encoding, and the ID-only records the raw
// request ID bytes (the OpRemove/OpFetch body encoding). The values are on
// disk and on the wire: never renumber.
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
// log tail) and arms the shards' record hooks. Called by Open before the
// rack serves or starts a goroutine, so recovery needs no locking discipline
// beyond apply's own.
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
	// The snapshot and the log tail both go through apply. A record it
	// refuses (a bottle that expired while the rack was down, a reply to a
	// bottle removed later in the log) is skipped; only a malformed snapshot
	// or log aborts recovery. Log records carry no owner, so replay is
	// owner-blind: every recovered bottle is open.
	if blob != nil {
		recs, err := UnmarshalHandoffRecords(blob)
		if err != nil {
			l.Close()
			return fmt.Errorf("broker: install snapshot: %w", err)
		}
		now := r.cfg.Now().UTC()
		for _, rec := range recs {
			_ = r.apply(rec, now)
		}
	}
	if _, err := l.Replay(func(typ byte, payload []byte) error {
		_ = r.apply(HandoffRecord{Type: typ, Payload: payload}, r.cfg.Now().UTC())
		return nil
	}); err != nil {
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

// apply changes rack state by one record. It is the one place a record type
// becomes a mutation, shared by WAL replay, snapshot install and peer
// handoff (Apply), so a record means the same on every path. A RecSubmit
// racks its bottle under exactly rec.Owner ("" is open ownership); a
// RecReply queues its reply after the checks Reply makes; a RecRemove or
// recExpire unracks the bottle as rec.Owner, and a recDrain empties its
// reply queue as rec.Owner. An outcome that leaves the state the record asks
// for returns nil: a duplicate or expired submit, a reply to a bottle no
// longer racked, a remove of an absent bottle. A record refused on its
// merits returns the refusal. Unknown types are skipped, so a downgraded
// broker replays what it understands rather than refusing to start.
func (r *Rack) apply(rec HandoffRecord, now time.Time) error {
	var err error
	switch rec.Type {
	case RecSubmit:
		var b *bottle
		if b, err = bottleFromRaw(rec.Payload, now); err == nil {
			b.owner = rec.Owner
			sh := r.shardFor(b.id)
			sh.mu.Lock()
			err = sh.putLocked(b, now.UnixNano())
			sh.mu.Unlock()
		}
		if errors.Is(err, ErrDuplicateBottle) || errors.Is(err, core.ErrExpired) {
			return nil
		}
	case RecReply:
		var id string
		var raw []byte
		if id, raw, err = UnmarshalReplyPost(rec.Payload); err == nil {
			err = checkReply(id, raw)
		}
		if err == nil {
			sh := r.shardFor(id)
			sh.mu.Lock()
			err = sh.pushReplyLocked(id, raw, r.cfg.MaxRepliesPerBottle, now)
			sh.mu.Unlock()
		}
	case RecRemove, recExpire:
		id := string(rec.Payload)
		_, err = r.shardFor(id).remove(id, rec.Owner, now)
	case recDrain:
		id := string(rec.Payload)
		sh := r.shardFor(id)
		budget := math.MaxInt
		sh.mu.Lock()
		_, err = sh.drainLocked(id, rec.Owner, &budget)
		sh.mu.Unlock()
	}
	if errors.Is(err, ErrUnknownBottle) {
		return nil
	}
	return err
}

// Apply applies records handed off by a peer (or hinted to this rack) with
// the function WAL replay uses, so a hint lands exactly as the write it
// stands for. Only RecSubmit, RecReply and RecRemove are taken from a peer;
// any other type is skipped and not counted. A record counts as applied when
// the state it asks for holds afterwards, a duplicate submit or a remove of
// an absent bottle included; one refused on its merits (an unauthorized
// remove, a malformed payload) is skipped and not counted, so it cannot hold
// back the records behind it. As in SubmitBatch, the rack and ctx are checked
// once and one durability wait covers the batch: the error is non-nil only
// when the rack is closed, ctx is done or the log commit failed.
func (r *Rack) Apply(ctx context.Context, recs []HandoffRecord) (applied int, err error) {
	if err := r.ready(ctx); err != nil {
		return 0, err
	}
	now := r.cfg.Now().UTC()
	for _, rec := range recs {
		if rec.Type != RecSubmit && rec.Type != RecReply && rec.Type != RecRemove {
			continue
		}
		if r.apply(rec, now) == nil {
			applied++
		}
	}
	return applied, r.commitDur()
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
	bottles, replies := r.captureSnapshotLocked()
	wait := r.dur.log.Snapshot(func() []byte { return encodeSnapshot(bottles, replies) })
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

// captureSnapshotLocked collects references to every live bottle and its
// reply queue. The caller holds every shard lock; only pointers and slice
// headers are copied. A bottle's id and raw are written once at validation
// and never mutated, and reply queue elements are copied on push and never
// mutated in place — a later concurrent append either writes past the
// captured length or reallocates, so the captured headers keep describing
// exactly the capture-time content.
func (r *Rack) captureSnapshotLocked() ([]*bottle, [][][]byte) {
	total := 0
	for _, sh := range r.shards {
		total += len(sh.bottles)
	}
	bottles := make([]*bottle, 0, total)
	replies := make([][][]byte, 0, total)
	for _, sh := range r.shards {
		for id, b := range sh.bottles {
			bottles = append(bottles, b)
			replies = append(replies, sh.replies[id])
		}
	}
	return bottles, replies
}

// encodeSnapshot writes a captured rack state as one handoff-record batch
// (appendHandoffRecords' encoding): per bottle an owner-less RecSubmit, then
// a RecReply per queued reply in arrival order. Recovery applies the batch
// with apply, as it does the log tail, so a recovered bottle is re-derived
// (prime group, screen, expiry) exactly as a live Submit would derive it.
// It runs on the log's committer goroutine, after the shard locks are
// released.
func encodeSnapshot(bottles []*bottle, replies [][][]byte) []byte {
	n := len(bottles)
	for _, q := range replies {
		n += len(q)
	}
	buf := binary.BigEndian.AppendUint32(nil, uint32(n))
	var post []byte
	for i, b := range bottles {
		buf = appendHandoffRecord(buf, HandoffRecord{Type: RecSubmit, Payload: b.raw})
		for _, rep := range replies[i] {
			post = AppendReplyPost(post[:0], b.id, rep)
			buf = appendHandoffRecord(buf, HandoffRecord{Type: RecReply, Payload: post})
		}
	}
	return buf
}
