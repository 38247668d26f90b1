package broker

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
)

// Replication types shared by the ring (which queues hints when a replica
// write fails), the replica subsystem (internal/replica, which stores and
// streams them), and the transport (which carries them rack-to-rack). A
// handoff record is deliberately the same (type, payload) shape as a
// write-ahead-log record — the WAL encodings double as the rack-to-rack
// transfer format and the snapshot format, and Rack.Apply applies a streamed
// hint with the function WAL replay uses, so it lands on the destination
// exactly as its own log would have.

// HandoffRecord is one replication transfer unit: a WAL-typed payload applied
// idempotently on the destination rack.
type HandoffRecord struct {
	// Type is one of RecSubmit, RecReply, RecRemove or RecRepair (the
	// record types of durability.go).
	Type byte
	// Owner is the identity a RecSubmit bottle is racked under on the
	// destination, and the identity a RecRemove is applied as, so ownership
	// survives replication: the submitter — not the rack that relayed the
	// record — must stay the only identity allowed to Fetch or Remove the
	// converged copy. The hint-queueing rack stamps it from its
	// authenticated caller (or its own store for read-repair) and ignores
	// whatever the client claims. Empty means open ownership and is applied
	// exactly as such. Unused by the other record types.
	Owner string
	// Payload is the record body in the WAL encoding for its type.
	Payload []byte
}

// Hinter is the hint-queueing surface implemented by replica-enabled backends
// (a Courier to a replica-enabled server, an in-process replica node). The
// ring calls it best-effort when a replica write fails: the surviving rack
// queues the records for dest and streams them when dest returns. It returns
// the number of records accepted into the queue.
type Hinter interface {
	Hint(ctx context.Context, dest string, recs []HandoffRecord) (int, error)
}

// ReplicationStats counts replication traffic. The first four counters are
// rack-side (maintained by the replica subsystem); ReadRepairs and
// ReplicaDedup are client-side (maintained by the ring) and appear only in
// ring-aggregated stats.
type ReplicationStats struct {
	// HintsQueued counts handoff records accepted into per-destination hint
	// queues.
	HintsQueued uint64
	// HintsStreamed counts hint records delivered to their destination.
	HintsStreamed uint64
	// HintsDropped counts hint records shed by the per-destination queue
	// bound.
	HintsDropped uint64
	// HandoffApplied counts records applied locally on behalf of a peer.
	HandoffApplied uint64
	// ReadRepairs counts bottles queued for re-replication after a fetch or
	// reply found them on only some replicas.
	ReadRepairs uint64
	// ReplicaDedup counts duplicate observations collapsed by replica-aware
	// merges (the same bottle from two racks in one sweep, the same reply
	// fetched from two replicas).
	ReplicaDedup uint64
}

// Add folds another snapshot's counters into s (used when a server merges a
// replica handler's counters into rack stats, and when a ring aggregates
// per-rack stats).
func (s *ReplicationStats) Add(o ReplicationStats) {
	s.HintsQueued += o.HintsQueued
	s.HintsStreamed += o.HintsStreamed
	s.HintsDropped += o.HintsDropped
	s.HandoffApplied += o.HandoffApplied
	s.ReadRepairs += o.ReadRepairs
	s.ReplicaDedup += o.ReplicaDedup
}

// Smallest encodings of a handoff record (type + empty owner + empty
// payload) and of a peer (two empty string16s).
const (
	minHandoffRecordBytes = 7
	minPeerBytes          = 4
)

// MarshalHandoffRecords encodes a batch of handoff records.
func MarshalHandoffRecords(recs []HandoffRecord) []byte {
	return appendHandoffRecords(nil, recs)
}

func appendHandoffRecords(buf []byte, recs []HandoffRecord) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, rec := range recs {
		buf = appendHandoffRecord(buf, rec)
	}
	return buf
}

func appendHandoffRecord(buf []byte, rec HandoffRecord) []byte {
	buf = append(buf, rec.Type)
	buf = appendString16(buf, rec.Owner)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Payload)))
	return append(buf, rec.Payload...)
}

func readHandoffRecords(r *reader) ([]HandoffRecord, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: record count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minHandoffRecordBytes {
		return nil, fmt.Errorf("%w: implausible record count %d", ErrMalformedFrame, n)
	}
	out := make([]HandoffRecord, n)
	for i := range out {
		if out[i].Type, err = r.byte(); err != nil {
			return nil, fmt.Errorf("%w: record type", ErrMalformedFrame)
		}
		if out[i].Owner, err = r.string16(); err != nil {
			return nil, fmt.Errorf("%w: record owner", ErrMalformedFrame)
		}
		size, err := r.uint32()
		if err != nil {
			return nil, fmt.Errorf("%w: record size", ErrMalformedFrame)
		}
		if out[i].Payload, err = r.bytes(int(size)); err != nil {
			return nil, fmt.Errorf("%w: record payload", ErrMalformedFrame)
		}
	}
	return out, nil
}

// UnmarshalHandoffRecords decodes a batch of handoff records; like every
// decoder of the codec, it returns payloads that alias data.
func UnmarshalHandoffRecords(data []byte) ([]HandoffRecord, error) {
	r := &reader{data: data}
	out, err := readHandoffRecords(r)
	if err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return out, nil
}

// MarshalHint encodes a hint request: the destination rack name followed by
// the records to queue for it.
func MarshalHint(dest string, recs []HandoffRecord) []byte {
	return appendHandoffRecords(appendString16(nil, dest), recs)
}

// UnmarshalHint decodes a hint request.
func UnmarshalHint(data []byte) (string, []HandoffRecord, error) {
	r := &reader{data: data}
	dest, err := r.string16()
	if err != nil {
		return "", nil, fmt.Errorf("%w: hint destination", ErrMalformedFrame)
	}
	recs, err := readHandoffRecords(r)
	if err != nil {
		return "", nil, err
	}
	if r.remaining() != 0 {
		return "", nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return dest, recs, nil
}

// Peer-table admin verbs (the membership opcode's sub-operations).
const (
	// PeerVerbSet maps a rack name to a dialable address.
	PeerVerbSet byte = 1
	// PeerVerbDel removes a mapping.
	PeerVerbDel byte = 2
	// PeerVerbList returns the current table.
	PeerVerbList byte = 3
)

// MarshalPeerUpdate encodes a peer-table admin request. addr is ignored for
// the del and list verbs; name is ignored for list.
func MarshalPeerUpdate(verb byte, name, addr string) []byte {
	buf := []byte{verb}
	buf = appendString16(buf, name)
	buf = appendString16(buf, addr)
	return buf
}

// UnmarshalPeerUpdate decodes a peer-table admin request.
func UnmarshalPeerUpdate(data []byte) (verb byte, name, addr string, err error) {
	r := &reader{data: data}
	if verb, err = r.byte(); err != nil {
		return 0, "", "", fmt.Errorf("%w: peer verb", ErrMalformedFrame)
	}
	if name, err = r.string16(); err != nil {
		return 0, "", "", fmt.Errorf("%w: peer name", ErrMalformedFrame)
	}
	if addr, err = r.string16(); err != nil {
		return 0, "", "", fmt.Errorf("%w: peer addr", ErrMalformedFrame)
	}
	if r.remaining() != 0 {
		return 0, "", "", fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return verb, name, addr, nil
}

// MarshalPeerList encodes a peer table (the list verb's response).
func MarshalPeerList(peers map[string]string) []byte {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(peers)))
	for _, name := range sortedKeys(peers) {
		buf = appendString16(buf, name)
		buf = appendString16(buf, peers[name])
	}
	return buf
}

// UnmarshalPeerList decodes a peer table. Names must be strictly ascending,
// as MarshalPeerList writes them, so a table has one encoding.
func UnmarshalPeerList(data []byte) (map[string]string, error) {
	r := &reader{data: data}
	n, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: peer count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minPeerBytes {
		return nil, fmt.Errorf("%w: implausible peer count %d", ErrMalformedFrame, n)
	}
	out := make(map[string]string, n)
	var prev string
	for i := uint32(0); i < n; i++ {
		name, err := r.string16()
		if err != nil {
			return nil, fmt.Errorf("%w: peer name", ErrMalformedFrame)
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("%w: peer names out of order", ErrMalformedFrame)
		}
		prev = name
		addr, err := r.string16()
		if err != nil {
			return nil, fmt.Errorf("%w: peer addr", ErrMalformedFrame)
		}
		out[name] = addr
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return out, nil
}

// sortedKeys returns a map's keys in sorted order so the peer-list encoding
// is deterministic.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PeekBottle returns a copy of a live bottle's marshalled package, its
// recorded owner identity, and currently queued replies without draining
// anything. It is the read side of hint-time read-repair resolution: the rack
// that holds a bottle resolves a RecRepair hint into RecSubmit/RecReply
// records from its own state, and the owner rides along so the repaired copy
// keeps answering only to its submitter. The inbound ID may carry this
// rack's tag.
func (r *Rack) PeekBottle(id string) (raw []byte, owner string, replies [][]byte, ok bool) {
	if r.isClosed() {
		return nil, "", nil, false
	}
	id = r.untagID(id)
	return r.shardFor(id).peek(id, r.cfg.Now().UTC())
}
