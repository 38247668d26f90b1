package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// On-disk formats (specified in docs/PROTOCOL.md):
//
// Segment file:  "SBWL" | u32 version (1) | u64 sequence | records...
// Record:        u32 length | u32 crc32c | u8 type | payload
//                (length = 1 + len(payload); crc over type||payload)
// Snapshot file: "SBSP" | u32 version (1) | u64 coversSeq | u32 blobLen |
//                blob | u32 crc32c(blob)
//
// All integers big-endian, matching the rest of the repository's codecs.

const (
	segmentMagic      = "SBWL"
	snapshotMagic     = "SBSP"
	formatVersion     = 1
	segmentHeaderSize = 4 + 4 + 8
	recordHeaderSize  = 4 + 4
	// MaxRecordSize bounds one record's length field; anything larger is
	// treated as corruption rather than allocated.
	MaxRecordSize = 64 << 20
)

// castagnoli is the CRC-32C table shared by records and snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends one encoded record to buf. The CRC is taken over the
// type and payload bytes as staged in buf.
func appendRecord(buf []byte, typ byte, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(payload)))
	at := len(buf)
	buf = append(buf, 0, 0, 0, 0, typ)
	buf = append(buf, payload...)
	binary.BigEndian.PutUint32(buf[at:], crc32.Checksum(buf[at+4:], castagnoli))
	return buf
}

// segmentInfo is one scanned segment file.
type segmentInfo struct {
	seq  uint64
	path string
	size int64
}

// snapshotInfo is one scanned snapshot file.
type snapshotInfo struct {
	seq  uint64
	path string
	size int64
}

// segmentWriter is the committer's handle on the open segment.
type segmentWriter struct {
	seq  uint64
	path string
	f    *os.File
	size int64
}

// createSegment creates (exclusively) and headers a new segment file.
func createSegment(dir string, seq uint64) (*segmentWriter, error) {
	path := segmentPath(dir, seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr []byte
	hdr = append(hdr, segmentMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, formatVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return &segmentWriter{seq: seq, path: path, f: f, size: segmentHeaderSize}, nil
}

// write appends encoded record bytes to the segment file.
func (w *segmentWriter) write(rec []byte) error {
	n, err := w.f.Write(rec)
	w.size += int64(n)
	return err
}

// scan inventories the data directory's segments and snapshots.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: scan dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		info, err := e.Info()
		if err != nil {
			continue
		}
		if seq, ok := parseName(name, "wal-", ".log"); ok {
			l.segs = append(l.segs, segmentInfo{seq: seq, path: segmentPath(l.opts.Dir, seq), size: info.Size()})
			l.size.Add(info.Size())
			continue
		}
		if seq, ok := parseName(name, "snap-", ".snap"); ok {
			l.snaps = append(l.snaps, snapshotInfo{seq: seq, path: snapshotPath(l.opts.Dir, seq), size: info.Size()})
			l.size.Add(info.Size())
		}
		// Anything else (including interrupted snap-*.snap.tmp writes) is
		// ignored; stale tmp files are harmless and overwritten by name reuse.
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].seq < l.segs[j].seq })
	sort.Slice(l.snaps, func(i, j int) bool { return l.snaps[i].seq < l.snaps[j].seq })
	return nil
}

// parseName extracts the 16-hex-digit sequence from a prefixed file name.
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// LoadSnapshot returns the newest snapshot whose integrity checks pass, or
// nil if no snapshot exists. Corrupt snapshots are skipped in favour of
// older ones (recovery then replays the correspondingly longer log tail —
// if it survived compaction; Replay verifies that). If snapshot files exist
// but none validates, LoadSnapshot fails: compaction has already deleted
// the history the snapshot superseded, so starting "fresh" would silently
// discard every durably acknowledged record — an operator must delete the
// snapshot files to accept that loss explicitly. Call before Replay: the
// loaded snapshot decides which segments Replay visits.
func (l *Log) LoadSnapshot() ([]byte, error) {
	var lastErr error
	for i := len(l.snaps) - 1; i >= 0; i-- {
		blob, err := readSnapshotFile(l.snaps[i].path, l.snaps[i].seq)
		if err != nil {
			lastErr = err
			continue
		}
		l.snapSeq = l.snaps[i].seq
		return blob, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("wal: %d snapshot file(s) present but none valid (%w) — refusing to start empty; delete them to accept the loss", len(l.snaps), lastErr)
	}
	return nil, nil
}

// Replay streams every record not covered by the loaded snapshot, oldest
// first, to fn; fn errors abort the replay. It tolerates a torn or corrupt
// record by stopping there: the records before it are the recoverable
// history (a crash can only tear the tail, and everything after a tear was
// never acknowledged durable). It returns how many records were applied.
func (l *Log) Replay(fn func(typ byte, payload []byte) error) (int, error) {
	if l.started {
		return 0, errors.New("wal: replay after start")
	}
	// The replayable segments must form an unbroken chain from the snapshot's
	// coverage point (or from sequence 1 on a snapshotless log — fresh logs
	// always begin there, and only compaction, which implies a snapshot, may
	// remove a head segment). A hole means deleted or lost history; replaying
	// over it would silently produce a state missing those mutations.
	expect := l.snapSeq
	if expect == 0 {
		expect = 1
	}
	for _, seg := range l.segs {
		if seg.seq < l.snapSeq {
			continue
		}
		if seg.seq != expect {
			return 0, fmt.Errorf("wal: segment chain broken: found segment %016x, expected %016x — refusing to replay over missing history", seg.seq, expect)
		}
		expect++
	}
	l.replayed = true
	total := 0
	for _, seg := range l.segs {
		if seg.seq < l.snapSeq {
			continue
		}
		n, valid, intact, err := replaySegmentFile(seg.path, seg.seq, fn)
		total += n
		if err != nil {
			return total, err
		}
		if !intact {
			// A torn record ends the recoverable history; Start truncates the
			// tear away so new records never hide behind it.
			l.tornSeq = seg.seq
			l.tornValid = valid
			break
		}
	}
	return total, nil
}

// replaySegmentFile opens and replays one segment file.
func replaySegmentFile(path string, wantSeq uint64, fn func(typ byte, payload []byte) error) (int, int64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: stat segment: %w", err)
	}
	return replaySegment(bufio.NewReaderSize(f, 1<<16), st.Size(), wantSeq, fn)
}

// replaySegment reads a segment stream of the given total size: header, then
// records until the stream ends or a record fails its checks. A malformed
// header, short read, implausible length or CRC mismatch is a torn tail
// (intact=false), not an error; only fn's own failures are errors. valid is
// the byte length of the header-plus-intact-records prefix (the truncation
// point that repairs a torn segment).
func replaySegment(r io.Reader, size int64, wantSeq uint64, fn func(typ byte, payload []byte) error) (n int, valid int64, intact bool, err error) {
	var hdr [segmentHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, false, nil
	}
	if string(hdr[:4]) != segmentMagic || binary.BigEndian.Uint32(hdr[4:8]) != formatVersion {
		return 0, 0, false, nil
	}
	if seq := binary.BigEndian.Uint64(hdr[8:]); wantSeq != 0 && seq != wantSeq {
		return 0, 0, false, nil
	}
	valid = segmentHeaderSize
	remaining := size - segmentHeaderSize
	for {
		var rh [recordHeaderSize]byte
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			// A clean EOF between records is an intact tail.
			return n, valid, errors.Is(err, io.EOF), nil
		}
		remaining -= recordHeaderSize
		length := int64(binary.BigEndian.Uint32(rh[:4]))
		if length == 0 || length > MaxRecordSize || length > remaining {
			return n, valid, false, nil
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(r, body); err != nil {
			return n, valid, false, nil
		}
		remaining -= length
		if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(rh[4:]) {
			return n, valid, false, nil
		}
		if err := fn(body[0], body[1:]); err != nil {
			return n, valid, false, err
		}
		n++
		valid += recordHeaderSize + length
	}
}

// writeSnapshotFile durably writes a snapshot blob covering segments below
// seq: temp file, fsync, atomic rename, directory fsync. It returns the
// file's size.
func writeSnapshotFile(dir string, seq uint64, blob []byte) (int64, error) {
	var buf []byte
	buf = append(buf, snapshotMagic...)
	buf = binary.BigEndian.AppendUint32(buf, formatVersion)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
	buf = append(buf, blob...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(blob, castagnoli))

	path := snapshotPath(dir, seq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: create snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(dir)
	return int64(len(buf)), nil
}

// readSnapshotFile loads and verifies one snapshot file.
func readSnapshotFile(path string, wantSeq uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	const hdr = 4 + 4 + 8 + 4
	if len(data) < hdr+4 || string(data[:4]) != snapshotMagic {
		return nil, errors.New("wal: malformed snapshot")
	}
	if binary.BigEndian.Uint32(data[4:8]) != formatVersion {
		return nil, errors.New("wal: unsupported snapshot version")
	}
	if seq := binary.BigEndian.Uint64(data[8:16]); seq != wantSeq {
		return nil, errors.New("wal: snapshot sequence mismatch")
	}
	blobLen := int(binary.BigEndian.Uint32(data[16:20]))
	if blobLen != len(data)-hdr-4 {
		return nil, errors.New("wal: snapshot length mismatch")
	}
	blob := data[hdr : hdr+blobLen]
	if crc32.Checksum(blob, castagnoli) != binary.BigEndian.Uint32(data[hdr+blobLen:]) {
		return nil, errors.New("wal: snapshot checksum mismatch")
	}
	return blob, nil
}
