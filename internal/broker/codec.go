package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sealedbottle/internal/core"
)

// Wire encodings for the broker operations, shared by the transport client
// and server. The style matches the core package's request/reply format:
// big-endian fixed-width integers and uint16/uint32 length prefixes.
//
// Each message has one encoder and one decoder (see docs/ARCHITECTURE.md,
// "Memory and the hot path"). Decoders alias the frame: returned []byte
// payloads (bottle Raw, reply blobs) are valid only as long as the caller
// keeps that frame alive and unmodified, and whatever outlives it is copied
// where it is kept: at the shard boundary (bottleFromRaw, pushReplyLocked)
// and in a hint queue (replica.Node.Hint). The reply post alone encodes into
// caller scratch (AppendReplyPost), because the shard encodes its WAL reply
// records into a reused buffer.

// ErrMalformedFrame indicates a broker wire encoding that cannot be decoded.
var ErrMalformedFrame = errors.New("broker: malformed frame")

// CheckListAnswer passes err on, or refuses a list answer of got outcomes to
// a request of want items as malformed: a caller that reads the answer by
// request position must never run past a short one.
func CheckListAnswer(got, want int, err error) error {
	if err == nil && got != want {
		return fmt.Errorf("%w: %d answers to a list of %d", ErrMalformedFrame, got, want)
	}
	return err
}

// MarshalSweepQuery encodes a sweep query into one allocation.
func MarshalSweepQuery(q SweepQuery) []byte {
	n := 2 + 4 + 2 + len(q.ExcludeOrigin) + cursorsSize(q.Cursors) + 4
	for _, s := range q.Residues {
		n += minResidueSetBytes + 8*len(s.Bits)
	}
	for _, id := range q.Seen {
		n += 2 + len(id)
	}
	buf := binary.BigEndian.AppendUint16(make([]byte, 0, n), uint16(len(q.Residues)))
	for _, s := range q.Residues {
		buf = binary.BigEndian.AppendUint32(buf, s.Prime)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s.Bits)))
		for _, w := range s.Bits {
			buf = binary.BigEndian.AppendUint64(buf, w)
		}
	}
	// A non-positive limit means "use the server default"; clamping here keeps
	// the wire semantics identical to the in-process rack (a raw uint32 cast
	// would turn -1 into an effectively unlimited 4294967295).
	buf = binary.BigEndian.AppendUint32(buf, uint32(max(0, q.Limit)))
	buf = appendString16(buf, q.ExcludeOrigin)
	buf = appendCursors(buf, q.Cursors)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(q.Seen)))
	for _, id := range q.Seen {
		buf = appendString16(buf, id)
	}
	return buf
}

// cursorsSize is the encoded size of a cursor list.
func cursorsSize(cursors []SweepCursor) int {
	n := 2
	for _, c := range cursors {
		n += minCursorBytes + len(c.Member)
	}
	return n
}

// appendCursors appends a count-prefixed list of sweep cursors.
func appendCursors(buf []byte, cursors []SweepCursor) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(cursors)))
	for _, c := range cursors {
		buf = appendString16(buf, c.Member)
		buf = binary.BigEndian.AppendUint64(buf, c.Epoch)
		buf = binary.BigEndian.AppendUint64(buf, c.After)
	}
	return buf
}

// readCursors reads a list written by appendCursors. A rack's own cursor has
// no member name, so reading one allocates nothing but the list. An epoch is
// never zero.
func readCursors(r *reader) ([]SweepCursor, error) {
	n, err := r.uint16()
	if err != nil || int(n) > r.remaining()/minCursorBytes {
		return nil, errors.New("cursor count")
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]SweepCursor, 0, n)
	for range int(n) {
		var c SweepCursor
		if c.Member, err = r.string16(); err != nil {
			return nil, errors.New("cursor member")
		}
		if c.Epoch, err = r.uint64(); err != nil || c.Epoch == 0 {
			return nil, errors.New("cursor epoch")
		}
		if c.After, err = r.uint64(); err != nil {
			return nil, errors.New("cursor position")
		}
		out = append(out, c)
	}
	return out, nil
}

// Smallest encodings of one list entry, used to refuse a count the rest of
// the frame cannot hold before anything is allocated for it.
const (
	minResidueSetBytes  = 6  // prime + word count
	minIDBytes          = 2  // empty string16
	minSweptBottleBytes = 14 // empty ID + sequence + empty package
	minBlobBytes        = 4  // empty sized blob
	minOutcomeBytes     = 3  // submit or fetch outcome: flag + empty string16
	minErrorBytes       = 1  // error-list outcome: the success flag alone
	minReplyPostBytes   = 6  // empty ID + empty reply
	minShardStatsBytes  = 88 // eleven u64 counters
	minPrimeBytes       = 4
	minCursorBytes      = 18 // empty member + epoch + position
)

// UnmarshalSweepQuery decodes a sweep query. A frame it cannot decode — a
// revision-6 window query among them — is refused with an error that is both
// ErrBadQuery, which is what the rack answers, and ErrMalformedFrame.
func UnmarshalSweepQuery(data []byte) (SweepQuery, error) {
	q, what := unmarshalSweepQuery(data)
	if what != "" {
		return SweepQuery{}, fmt.Errorf("%w (%w: %s)", ErrBadQuery, ErrMalformedFrame, what)
	}
	return q, nil
}

// unmarshalSweepQuery decodes a sweep query or names the field it failed on.
func unmarshalSweepQuery(data []byte) (SweepQuery, string) {
	r := &reader{data: data}
	var q SweepQuery
	n, err := r.uint16()
	if err != nil || int(n) > r.remaining()/minResidueSetBytes {
		return q, "residue count"
	}
	q.Residues = make([]core.ResidueSet, n)
	for i := range q.Residues {
		if q.Residues[i].Prime, err = r.uint32(); err != nil {
			return q, "residue prime"
		}
		words, err := r.uint16()
		if err != nil || int(words) > r.remaining()/8 {
			return q, "residue words"
		}
		q.Residues[i].Bits = make([]uint64, words)
		for j := range q.Residues[i].Bits {
			q.Residues[i].Bits[j], _ = r.uint64() // length checked above
		}
	}
	limit, err := r.uint32()
	if err != nil {
		return q, "limit"
	}
	q.Limit = int(limit)
	if q.ExcludeOrigin, err = r.string16(); err != nil {
		return q, "exclude origin"
	}
	if q.Cursors, err = readCursors(r); err != nil {
		return q, err.Error()
	}
	seen, err := r.uint32()
	if err != nil || seen > maxSeenIDs || int(seen) > r.remaining()/minIDBytes {
		return q, "seen count"
	}
	// The seen list is the frame's tail: its IDs are cut from one copy of
	// the region, not copied out one by one.
	var region string
	base := r.off
	if seen > 0 {
		region, q.Seen = string(data[base:]), make([]string, seen)
	}
	for i := range q.Seen {
		id, err := r.idBytes()
		if err != nil {
			return q, "seen id"
		}
		end := r.off - base
		q.Seen[i] = region[end-len(id) : end]
	}
	if r.remaining() != 0 {
		return q, "trailing bytes"
	}
	return q, ""
}

// MarshalSweepResult encodes a sweep result into one allocation.
func MarshalSweepResult(res SweepResult) []byte {
	n := 4 + 8 + 8 + 1 + cursorsSize(res.Cursors)
	for _, b := range res.Bottles {
		n += minSweptBottleBytes + len(b.ID) + len(b.Raw)
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, n), uint32(len(res.Bottles)))
	for _, b := range res.Bottles {
		buf = appendString16(buf, b.ID)
		buf = binary.BigEndian.AppendUint64(buf, b.Seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.Raw)))
		buf = append(buf, b.Raw...)
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(res.Scanned))
	buf = binary.BigEndian.AppendUint64(buf, uint64(res.Rejected))
	buf = appendBool(buf, res.Truncated)
	return appendCursors(buf, res.Cursors)
}

// UnmarshalSweepResult decodes a sweep result. Bottle Raw payloads alias
// data (zero-copy): they are valid for as long as the caller keeps data alive
// and unmodified.
func UnmarshalSweepResult(data []byte) (SweepResult, error) {
	r := &reader{data: data}
	var res SweepResult
	n, err := r.uint32()
	if err != nil {
		return res, fmt.Errorf("%w: bottle count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minSweptBottleBytes {
		return res, fmt.Errorf("%w: implausible bottle count %d", ErrMalformedFrame, n)
	}
	res.Bottles = make([]SweptBottle, n)
	for i := range res.Bottles {
		if res.Bottles[i].ID, err = r.id(); err != nil {
			return res, fmt.Errorf("%w: bottle id", ErrMalformedFrame)
		}
		if res.Bottles[i].Seq, err = r.uint64(); err != nil {
			return res, fmt.Errorf("%w: bottle sequence", ErrMalformedFrame)
		}
		size, err := r.uint32()
		if err != nil {
			return res, fmt.Errorf("%w: bottle size", ErrMalformedFrame)
		}
		if res.Bottles[i].Raw, err = r.bytes(int(size)); err != nil {
			return res, fmt.Errorf("%w: bottle payload", ErrMalformedFrame)
		}
	}
	scanned, err := r.uint64()
	if err != nil {
		return res, fmt.Errorf("%w: scanned", ErrMalformedFrame)
	}
	rejected, err := r.uint64()
	if err != nil {
		return res, fmt.Errorf("%w: rejected", ErrMalformedFrame)
	}
	if res.Truncated, err = r.bool(); err != nil {
		return res, fmt.Errorf("%w: truncated flag", ErrMalformedFrame)
	}
	if res.Cursors, err = readCursors(r); err != nil {
		return res, fmt.Errorf("%w: %w", ErrMalformedFrame, err)
	}
	res.Scanned, res.Rejected = int(scanned), int(rejected)
	if r.remaining() != 0 {
		return res, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return res, nil
}

// appendRawList appends a count-prefixed list of sized byte blobs.
func appendRawList(buf []byte, raws [][]byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(raws)))
	for _, raw := range raws {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(raw)))
		buf = append(buf, raw...)
	}
	return buf
}

// readRawList reads a count-prefixed list of sized byte blobs. Blobs alias
// the reader's data (zero-copy).
func readRawList(r *reader) ([][]byte, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: blob count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minBlobBytes {
		return nil, fmt.Errorf("%w: implausible blob count %d", ErrMalformedFrame, n)
	}
	var out [][]byte
	for i := 0; i < int(n); i++ {
		size, err := r.uint32()
		if err != nil {
			return nil, fmt.Errorf("%w: blob size", ErrMalformedFrame)
		}
		raw, err := r.bytes(int(size))
		if err != nil {
			return nil, fmt.Errorf("%w: blob payload", ErrMalformedFrame)
		}
		out = append(out, raw)
	}
	return out, nil
}

// MarshalRawList encodes a list of opaque byte blobs (fetched replies,
// batched submissions).
func MarshalRawList(raws [][]byte) []byte { return appendRawList(nil, raws) }

// UnmarshalRawList decodes a list of opaque byte blobs. The blobs alias data
// (zero-copy): they are valid for as long as the caller keeps data alive and
// unmodified.
func UnmarshalRawList(data []byte) ([][]byte, error) {
	r := &reader{data: data}
	out, err := readRawList(r)
	if err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return out, nil
}

// Per-item outcome flags of the batch encodings: outcomeOK, or a failed
// item's wire code offset by OutcomeCodeBase with the error text following.
// A flag in 0x01–0x0f carries no code and makes the frame malformed.
const (
	outcomeOK byte = 0
	// OutcomeCodeBase offsets an ErrCode into the outcome-flag (and response
	// status) byte space: a coded error is written as OutcomeCodeBase+code.
	OutcomeCodeBase byte = 0x10
)

// appendError appends an outcome flag plus the error text for failed items.
// The flag carries the error's wire code so the far side can reconstruct the
// sentinel.
func appendError(buf []byte, err error) []byte {
	if err == nil {
		return append(buf, outcomeOK)
	}
	buf = append(buf, OutcomeCodeBase+byte(ErrCodeOf(err)))
	return appendString16(buf, err.Error())
}

// readError reads the flag written by appendError, reconstructing a failed
// item as the coded sentinel (or a WireError preserving text and code). err
// reports a truncated item or an uncoded flag.
func readError(r *reader) (itemErr, err error) {
	flag, err := r.byte()
	if err != nil || flag == outcomeOK {
		return nil, err
	}
	if flag < OutcomeCodeBase {
		return nil, fmt.Errorf("uncoded outcome flag %#x", flag)
	}
	msg, err := r.string16()
	if err != nil {
		return nil, err
	}
	return DecodeWireError(ErrCode(flag-OutcomeCodeBase), msg), nil
}

// MarshalSubmitResults encodes the per-item outcomes of a SubmitBatch.
func MarshalSubmitResults(results []SubmitResult) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(results)))
	for _, res := range results {
		buf = appendError(buf, res.Err)
		if res.Err == nil {
			buf = appendString16(buf, res.ID)
		}
	}
	return buf
}

// UnmarshalSubmitResults decodes the per-item outcomes of a SubmitBatch.
func UnmarshalSubmitResults(data []byte) ([]SubmitResult, error) {
	r := &reader{data: data}
	n, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: outcome count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minOutcomeBytes {
		return nil, fmt.Errorf("%w: implausible outcome count %d", ErrMalformedFrame, n)
	}
	out := make([]SubmitResult, n)
	for i := range out {
		itemErr, err := readError(r)
		if err != nil {
			return nil, fmt.Errorf("%w: outcome flag", ErrMalformedFrame)
		}
		if itemErr != nil {
			out[i].Err = itemErr
			continue
		}
		if out[i].ID, err = r.id(); err != nil {
			return nil, fmt.Errorf("%w: request id", ErrMalformedFrame)
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return out, nil
}

// MarshalReplyBatch encodes a batch of reply posts.
func MarshalReplyBatch(posts []ReplyPost) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(posts)))
	for _, p := range posts {
		buf = AppendReplyPost(buf, p.RequestID, p.Raw)
	}
	return buf
}

// UnmarshalReplyBatch decodes a batch of reply posts. Post Raw payloads alias
// data (zero-copy): they are valid for as long as the caller keeps data alive
// and unmodified.
func UnmarshalReplyBatch(data []byte) ([]ReplyPost, error) {
	r := &reader{data: data}
	n, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: post count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minReplyPostBytes {
		return nil, fmt.Errorf("%w: implausible post count %d", ErrMalformedFrame, n)
	}
	out := make([]ReplyPost, n)
	for i := range out {
		if out[i], err = readReplyPost(r); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return out, nil
}

// MarshalErrorList encodes per-item outcomes that carry no payload (the
// ReplyBatch response).
func MarshalErrorList(errs []error) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(errs)))
	for _, err := range errs {
		buf = appendError(buf, err)
	}
	return buf
}

// UnmarshalErrorList decodes per-item payload-free outcomes.
func UnmarshalErrorList(data []byte) ([]error, error) {
	r := &reader{data: data}
	n, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: outcome count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minErrorBytes {
		return nil, fmt.Errorf("%w: implausible outcome count %d", ErrMalformedFrame, n)
	}
	out := make([]error, n)
	for i := range out {
		itemErr, err := readError(r)
		if err != nil {
			return nil, fmt.Errorf("%w: outcome flag", ErrMalformedFrame)
		}
		out[i] = itemErr
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return out, nil
}

// MarshalIDList encodes a list of request IDs (the FetchBatch request).
func MarshalIDList(ids []string) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(ids)))
	for _, id := range ids {
		buf = appendString16(buf, id)
	}
	return buf
}

// UnmarshalIDList decodes a list of request IDs.
func UnmarshalIDList(data []byte) ([]string, error) {
	r := &reader{data: data}
	n, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: id count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minIDBytes {
		return nil, fmt.Errorf("%w: implausible id count %d", ErrMalformedFrame, n)
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.id(); err != nil {
			return nil, fmt.Errorf("%w: id", ErrMalformedFrame)
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return out, nil
}

// MarshalFetchResults encodes the per-item outcomes of a FetchBatch: each
// item is an outcome flag followed by either the drained reply list or the
// error text.
func MarshalFetchResults(results []FetchResult) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(results)))
	for _, res := range results {
		buf = appendError(buf, res.Err)
		if res.Err == nil {
			buf = appendRawList(buf, res.Replies)
		}
	}
	return buf
}

// UnmarshalFetchResults decodes the per-item outcomes of a FetchBatch.
func UnmarshalFetchResults(data []byte) ([]FetchResult, error) {
	r := &reader{data: data}
	n, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: outcome count", ErrMalformedFrame)
	}
	if int(n) > r.remaining()/minOutcomeBytes {
		return nil, fmt.Errorf("%w: implausible outcome count %d", ErrMalformedFrame, n)
	}
	out := make([]FetchResult, n)
	for i := range out {
		itemErr, err := readError(r)
		if err != nil {
			return nil, fmt.Errorf("%w: outcome flag", ErrMalformedFrame)
		}
		if itemErr != nil {
			out[i].Err = itemErr
			continue
		}
		if out[i].Replies, err = readRawList(r); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return out, nil
}

// marshalShardStats encodes one shard's counters.
func marshalShardStats(buf []byte, ss ShardStats) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(ss.Held))
	for _, v := range []uint64{
		ss.Submitted, ss.Duplicates, ss.Expired, ss.Sweeps, ss.Scanned,
		ss.Rejected, ss.Returned, ss.RepliesIn, ss.RepliesOut, ss.RepliesDropped,
	} {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return buf
}

// unmarshalShardStats decodes one shard's counters.
func unmarshalShardStats(r *reader) (ShardStats, error) {
	var ss ShardStats
	held, err := r.uint64()
	if err != nil {
		return ss, err
	}
	ss.Held = int(held)
	for _, dst := range []*uint64{
		&ss.Submitted, &ss.Duplicates, &ss.Expired, &ss.Sweeps, &ss.Scanned,
		&ss.Rejected, &ss.Returned, &ss.RepliesIn, &ss.RepliesOut, &ss.RepliesDropped,
	} {
		if *dst, err = r.uint64(); err != nil {
			return ss, err
		}
	}
	return ss, nil
}

// MarshalStats encodes a stats snapshot.
func MarshalStats(st Stats) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(st.Shards))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.Held))
	buf = marshalShardStats(buf, st.Totals)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.PerShard)))
	for _, ss := range st.PerShard {
		buf = marshalShardStats(buf, ss)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.Primes)))
	for _, p := range st.Primes {
		buf = binary.BigEndian.AppendUint32(buf, p)
	}
	buf = binary.BigEndian.AppendUint64(buf, st.Recovered)
	buf = binary.BigEndian.AppendUint64(buf, st.WALBytes)
	for _, v := range []uint64{
		st.Replication.HintsQueued, st.Replication.HintsStreamed,
		st.Replication.HintsDropped, st.Replication.HandoffApplied,
		st.Replication.ReadRepairs, st.Replication.ReplicaDedup,
	} {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return buf
}

// UnmarshalStats decodes a stats snapshot. The layout is fixed: a frame that
// ends before its last counter is malformed.
func UnmarshalStats(data []byte) (Stats, error) {
	r := &reader{data: data}
	var st Stats
	shards, err := r.uint32()
	if err != nil {
		return st, fmt.Errorf("%w: shard count", ErrMalformedFrame)
	}
	held, err := r.uint64()
	if err != nil {
		return st, fmt.Errorf("%w: held", ErrMalformedFrame)
	}
	st.Shards, st.Held = int(shards), int(held)
	if st.Totals, err = unmarshalShardStats(r); err != nil {
		return st, fmt.Errorf("%w: totals", ErrMalformedFrame)
	}
	per, err := r.uint32()
	if err != nil {
		return st, fmt.Errorf("%w: per-shard count", ErrMalformedFrame)
	}
	if int(per) > r.remaining()/minShardStatsBytes {
		return st, fmt.Errorf("%w: implausible per-shard count %d", ErrMalformedFrame, per)
	}
	st.PerShard = make([]ShardStats, per)
	for i := range st.PerShard {
		if st.PerShard[i], err = unmarshalShardStats(r); err != nil {
			return st, fmt.Errorf("%w: shard %d", ErrMalformedFrame, i)
		}
	}
	primes, err := r.uint32()
	if err != nil {
		return st, fmt.Errorf("%w: prime count", ErrMalformedFrame)
	}
	if int(primes) > r.remaining()/minPrimeBytes {
		return st, fmt.Errorf("%w: implausible prime count %d", ErrMalformedFrame, primes)
	}
	st.Primes = make([]uint32, primes)
	for i := range st.Primes {
		if st.Primes[i], err = r.uint32(); err != nil {
			return st, fmt.Errorf("%w: prime", ErrMalformedFrame)
		}
	}
	if st.Recovered, err = r.uint64(); err != nil {
		return st, fmt.Errorf("%w: recovered", ErrMalformedFrame)
	}
	if st.WALBytes, err = r.uint64(); err != nil {
		return st, fmt.Errorf("%w: wal bytes", ErrMalformedFrame)
	}
	for _, dst := range []*uint64{
		&st.Replication.HintsQueued, &st.Replication.HintsStreamed,
		&st.Replication.HintsDropped, &st.Replication.HandoffApplied,
		&st.Replication.ReadRepairs, &st.Replication.ReplicaDedup,
	} {
		if *dst, err = r.uint64(); err != nil {
			return st, fmt.Errorf("%w: replication counters", ErrMalformedFrame)
		}
	}
	if r.remaining() != 0 {
		return st, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return st, nil
}

// AppendReplyPost appends the encoding of a reply post (request ID +
// marshalled reply) to buf; AppendReplyPost(nil, …) encodes one on its own.
func AppendReplyPost(buf []byte, requestID string, raw []byte) []byte {
	buf = appendString16(buf, requestID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(raw)))
	return append(buf, raw...)
}

// UnmarshalReplyPost decodes a reply post. The returned payload aliases data
// (zero-copy): it is valid for as long as the caller keeps data alive and
// unmodified.
func UnmarshalReplyPost(data []byte) (string, []byte, error) {
	r := &reader{data: data}
	p, err := readReplyPost(r)
	if err != nil {
		return "", nil, err
	}
	if r.remaining() != 0 {
		return "", nil, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return p.RequestID, p.Raw, nil
}

// readReplyPost reads one post written by AppendReplyPost; its Raw aliases
// the reader's data.
func readReplyPost(r *reader) (ReplyPost, error) {
	var p ReplyPost
	var err error
	if p.RequestID, err = r.id(); err != nil {
		return p, fmt.Errorf("%w: request id", ErrMalformedFrame)
	}
	size, err := r.uint32()
	if err != nil {
		return p, fmt.Errorf("%w: reply size", ErrMalformedFrame)
	}
	if p.Raw, err = r.bytes(int(size)); err != nil {
		return p, fmt.Errorf("%w: reply payload", ErrMalformedFrame)
	}
	return p, nil
}

// appendString16 appends a uint16-length-prefixed string. Strings beyond the
// prefix's 64 KiB range (no legitimate ID or origin comes close) are
// truncated consistently with their prefix, so the frame always decodes
// instead of desynchronizing the reader.
func appendString16(buf []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// appendBool appends a flag byte.
func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// reader is a minimal bounds-checked cursor over a byte slice.
type reader struct {
	data []byte
	off  int
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, io.ErrUnexpectedEOF
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// errFlagByte refuses a flag byte other than 0 and 1, so a flag has one
// encoding.
var errFlagByte = errors.New("flag byte is neither 0 nor 1")

func (r *reader) bool() (bool, error) {
	b, err := r.byte()
	if err == nil && b > 1 {
		err = errFlagByte
	}
	return b == 1, err
}

func (r *reader) uint16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) uint32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) uint64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *reader) string16() (string, error) {
	b, err := r.bytes16()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// bytes16 reads a uint16-length-prefixed byte string without copying: the
// result aliases the reader's data.
func (r *reader) bytes16() ([]byte, error) {
	n, err := r.uint16()
	if err != nil {
		return nil, err
	}
	return r.bytes(int(n))
}

// maxWireIDLen bounds a request-ID field at decode: the longest ID a rack
// hands out, a maxRequestIDLen ID behind a MaxTagLen tag and its "@".
const maxWireIDLen = MaxTagLen + 1 + maxRequestIDLen

// errLongID refuses a request ID no rack could have handed out.
var errLongID = fmt.Errorf("request id over %d bytes", maxWireIDLen)

// idBytes reads a string16 request ID like bytes16, refusing one longer
// than maxWireIDLen.
func (r *reader) idBytes() ([]byte, error) {
	b, err := r.bytes16()
	if err == nil && len(b) > maxWireIDLen {
		return nil, errLongID
	}
	return b, err
}

// id reads a string16 request ID, refusing one longer than maxWireIDLen.
func (r *reader) id() (string, error) {
	b, err := r.idBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}
