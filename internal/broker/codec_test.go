package broker

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sealedbottle/internal/core"
)

func TestSweepQueryRoundTrip(t *testing.T) {
	q := SweepQuery{
		Residues: []core.ResidueSet{
			core.NewResidueSet(11, []uint32{0, 3, 7}),
			core.NewResidueSet(127, []uint32{1, 63, 64, 126}),
		},
		Limit:         42,
		ExcludeOrigin: "alice",
		Seen:          []string{"id-1", "", "id-2"},
	}
	for _, cursors := range [][]SweepCursor{nil, {{Epoch: 0xfeedface00c0ffee, After: 1 << 40}, {Member: "rack-1/inner", Epoch: 1}}} {
		q.Cursors = cursors
		got, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", q, got)
		}
	}
}

// TestCodecRefusesAmplifyingCounts pins the decode-amplification rule on
// every count-prefixed decoder: a count is refused before anything is
// allocated for it unless the rest of the frame could hold that many
// smallest-possible entries. A decoder that accepts any count up to the bytes
// remaining lets a 16 MiB frame cost up to 1.4 GiB (16 M claimed 88-byte
// shard counters) before its first entry fails to parse.
func TestCodecRefusesAmplifyingCounts(t *testing.T) {
	query := MarshalSweepQuery(SweepQuery{Residues: []core.ResidueSet{core.NewResidueSet(11, []uint32{1})}})
	const perShardAt = 4 + 8 + minShardStatsBytes // shards, held, totals
	fixed := func(entry ...byte) func(int) []byte { return func(int) []byte { return entry } }
	type list struct {
		name    string
		decode  func([]byte) error
		empty   []byte // an encoding whose list at countAt is empty
		countAt int    // offset of the list's u32 count
		min     int    // the bound's smallest entry
		entry   func(i int) []byte
	}
	for _, c := range []list{
		{"sweep query seen IDs", func(b []byte) error { _, err := UnmarshalSweepQuery(b); return err },
			query, len(query) - 4, minIDBytes, fixed(0, 0)},
		{"sweep result bottles", func(b []byte) error { _, err := UnmarshalSweepResult(b); return err },
			MarshalSweepResult(SweepResult{}), 0, minSweptBottleBytes, fixed(make([]byte, minSweptBottleBytes)...)},
		{"raw list", func(b []byte) error { _, err := UnmarshalRawList(b); return err },
			MarshalRawList(nil), 0, minBlobBytes, fixed(0, 0, 0, 0)},
		{"submit results", func(b []byte) error { _, err := UnmarshalSubmitResults(b); return err },
			MarshalSubmitResults(nil), 0, minOutcomeBytes, fixed(outcomeOK, 0, 0)},
		{"reply batch", func(b []byte) error { _, err := UnmarshalReplyBatch(b); return err },
			MarshalReplyBatch(nil), 0, minReplyPostBytes, fixed(0, 0, 0, 0, 0, 0)},
		{"error list", func(b []byte) error { _, err := UnmarshalErrorList(b); return err },
			MarshalErrorList(nil), 0, minErrorBytes, fixed(outcomeOK)},
		{"id list", func(b []byte) error { _, err := UnmarshalIDList(b); return err },
			MarshalIDList(nil), 0, minIDBytes, fixed(0, 0)},
		{"fetch results", func(b []byte) error { _, err := UnmarshalFetchResults(b); return err },
			MarshalFetchResults(nil), 0, minOutcomeBytes, fixed(OutcomeCodeBase+byte(CodeInternal), 0, 0)},
		{"stats shards", func(b []byte) error { _, err := UnmarshalStats(b); return err },
			MarshalStats(Stats{}), perShardAt, minShardStatsBytes, fixed(make([]byte, minShardStatsBytes)...)},
		{"stats primes", func(b []byte) error { _, err := UnmarshalStats(b); return err },
			MarshalStats(Stats{}), perShardAt + 4, minPrimeBytes, fixed(0, 0, 0, 11)},
		{"handoff records", func(b []byte) error { _, err := UnmarshalHandoffRecords(b); return err },
			MarshalHandoffRecords(nil), 0, minHandoffRecordBytes, fixed(RecRemove, 0, 0, 0, 0, 0, 0)},
		{"hint records", func(b []byte) error { _, _, err := UnmarshalHint(b); return err },
			MarshalHint("r1", nil), 4, minHandoffRecordBytes, fixed(RecRemove, 0, 0, 0, 0, 0, 0)},
		{"peer list", func(b []byte) error { _, err := UnmarshalPeerList(b); return err },
			MarshalPeerList(nil), 0, minPeerBytes, func(i int) []byte { return appendString16(appendString16(nil, fmt.Sprintf("%04d", i)), "") }},
	} {
		// build puts count and entries where c.empty has its empty list.
		build := func(count int, entries []byte) []byte {
			out := binary.BigEndian.AppendUint32(append([]byte(nil), c.empty[:c.countAt]...), uint32(count))
			return append(append(out, entries...), c.empty[c.countAt+4:]...)
		}
		const k = 50
		var entries []byte
		for i := 0; i < k; i++ {
			entries = append(entries, c.entry(i)...)
		}
		if err := c.decode(build(k, entries)); err != nil {
			t.Errorf("%s: exactly the entries the frame holds: %v", c.name, err)
		}
		if err := c.decode(build(k+1, entries)); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: one more entry than the frame holds: err = %v, want ErrMalformedFrame", c.name, err)
		}
		if err := c.decode(build(16<<20, make([]byte, 1<<10))); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: 16M entries: err = %v, want ErrMalformedFrame", c.name, err)
		}
		// What the bound is for: a 1 MiB frame whose count claims one entry
		// more than its bytes can hold is refused before anything is
		// allocated for the entries.
		lying := build(0, make([]byte, 1<<20))
		binary.BigEndian.PutUint32(lying[c.countAt:], uint32((len(lying)-c.countAt-4)/c.min+1))
		var err error
		if n := allocated(func() { err = c.decode(lying) }); n >= 1<<20 || !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: refusing a 1 MiB lying frame allocated %d bytes (err %v)", c.name, n, err)
		}
	}
	// The seen list has a cap of its own, and a query's residue-set, word
	// and cursor counts are bounded the same way as the lists above.
	seenList := func(n int) []byte {
		return append(binary.BigEndian.AppendUint32(append([]byte(nil), query[:len(query)-4]...), uint32(n)), make([]byte, 2*n)...)
	}
	if q, err := UnmarshalSweepQuery(seenList(maxSeenIDs)); err != nil || len(q.Seen) != maxSeenIDs {
		t.Errorf("query with %d seen IDs: %d decoded, err %v", maxSeenIDs, len(q.Seen), err)
	}
	cursorsAt := len(query) - 4 - 2
	manyCursors := append(binary.BigEndian.AppendUint16(append([]byte(nil), query[:cursorsAt]...), 0xffff), make([]byte, 18*100+4)...)
	for name, frame := range map[string][]byte{
		"seen count past the cap": seenList(maxSeenIDs + 1),
		"65535 residue sets":      {0xff, 0xff, 0, 0, 0, 11, 0, 1},
		"65535 words":             {0, 1, 0, 0, 0, 11, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0},
		"65535 cursors":           manyCursors,
	} {
		if _, err := UnmarshalSweepQuery(frame); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("query with %s: err = %v, want ErrMalformedFrame", name, err)
		}
	}
}

// allocated reports the bytes decode allocates.
func allocated(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rev6WindowQuery is a revision-6 sweep query as a sweeper of that revision
// sent it: window 0x9e3779b97f4a7c15 at base 4096, cap 4096, one ID of delta.
const rev6WindowQuery = "00010000000b000100000000000000890000004000009e3779b97f4a7c15" +
	"000000000000100000001000000000000100203031323334353637383961626364656630313233343536373839616263646566"

// TestSweepQueryRefusesRevision6 pins the upgrade rule of revision 7: a
// revision-6 window query is refused as a bad query — what the rack answers
// on the wire — and decodes to nothing.
func TestSweepQueryRefusesRevision6(t *testing.T) {
	frame, err := hex.DecodeString(rev6WindowQuery)
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalSweepQuery(frame)
	if !errors.Is(err, ErrBadQuery) || ErrCodeOf(err) != CodeBadQuery || !reflect.DeepEqual(q, SweepQuery{}) {
		t.Fatalf("revision-6 query: %+v, %v (code %v), want a bad-query refusal and nothing else", q, err, ErrCodeOf(err))
	}
}

// sweepFuzzSeeds are revision-7 sweep frames — an ad-hoc list, a sweeper's
// query with its cursor, a ring member's with nested cursors, a scan answer
// and one with a cursor — the refused revision-6 window query, and a query
// and an answer each refused for an ID one byte over the cap.
func sweepFuzzSeeds() (queries, results [][]byte) {
	q := SweepQuery{
		Residues:      []core.ResidueSet{core.NewResidueSet(11, []uint32{0, 3, 7})},
		Limit:         64,
		ExcludeOrigin: "alice",
		Seen:          []string{"r1@0123456789abcdef", "fedcba9876543210"},
	}
	queries = append(queries, MarshalSweepQuery(q))
	q.Seen, q.Cursors = nil, []SweepCursor{{Epoch: 0x9e3779b97f4a7c15, After: 4096}}
	queries = append(queries, MarshalSweepQuery(q))
	q.Cursors = append(q.Cursors, SweepCursor{Member: "rack-1", Epoch: 7, After: 1}, SweepCursor{Member: "rack-2/inner", Epoch: 9})
	rev6, _ := hex.DecodeString(rev6WindowQuery)
	queries = append(queries, MarshalSweepQuery(q), nil, rev6)
	results = append(results,
		MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: "a", Raw: []byte{1, 2, 3}}, {ID: "b"}}, Scanned: 9, Rejected: 7, Truncated: true}),
		MarshalSweepResult(SweepResult{Cursors: []SweepCursor{{Epoch: 5, After: 300}}}), nil,
		MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: "r1@c"}}, Scanned: 1, Cursors: []SweepCursor{{Member: "r1", Epoch: 5, After: 3}, {Member: "r2", Epoch: 6}}}))
	overCap := longestID() + "x"
	queries = append(queries, MarshalSweepQuery(SweepQuery{Limit: 1, Seen: []string{"a", overCap}}))
	results = append(results, MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: overCap, Raw: []byte{1}}}}))
	return queries, results
}

// longestID is as long as a request ID a rack hands out can be: a
// MaxTagLen tag, its "@" and a maxRequestIDLen ID.
func longestID() string {
	return strings.Repeat("t", MaxTagLen) + "@" + strings.Repeat("a", maxRequestIDLen)
}

// TestCodecCapsRequestIDs: every request-ID field decodes the longest ID a
// rack hands out and refuses one a byte longer as a malformed frame — a sweep
// query's as a bad query too.
func TestCodecCapsRequestIDs(t *testing.T) {
	first := func(ids []string) string {
		if len(ids) == 0 {
			return ""
		}
		return ids[0]
	}
	for _, c := range []struct {
		name   string
		encode func(id string) []byte
		decode func([]byte) (string, error)
	}{
		{"sweep query seen", func(id string) []byte { return MarshalSweepQuery(SweepQuery{Seen: []string{id}}) },
			func(b []byte) (string, error) { q, err := UnmarshalSweepQuery(b); return first(q.Seen), err }},
		{"sweep result bottle", func(id string) []byte { return MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: id}}}) },
			func(b []byte) (string, error) {
				res, err := UnmarshalSweepResult(b)
				if err != nil {
					return "", err
				}
				return res.Bottles[0].ID, nil
			}},
		{"submit results", func(id string) []byte { return MarshalSubmitResults([]SubmitResult{{ID: id}}) },
			func(b []byte) (string, error) {
				res, err := UnmarshalSubmitResults(b)
				if err != nil {
					return "", err
				}
				return res[0].ID, nil
			}},
		{"reply batch", func(id string) []byte { return MarshalReplyBatch([]ReplyPost{{RequestID: id, Raw: []byte{1}}}) },
			func(b []byte) (string, error) {
				posts, err := UnmarshalReplyBatch(b)
				if err != nil {
					return "", err
				}
				return posts[0].RequestID, nil
			}},
		{"reply post", func(id string) []byte { return AppendReplyPost(nil, id, []byte{1}) },
			func(b []byte) (string, error) { id, _, err := UnmarshalReplyPost(b); return id, err }},
		{"id list", func(id string) []byte { return MarshalIDList([]string{id}) },
			func(b []byte) (string, error) { ids, err := UnmarshalIDList(b); return first(ids), err }},
	} {
		longest := longestID()
		if got, err := c.decode(c.encode(longest)); err != nil || got != longest {
			t.Errorf("%s: a %d-byte ID decoded as %d bytes, err %v", c.name, len(longest), len(got), err)
		}
		_, err := c.decode(c.encode(longest + "x"))
		if !errors.Is(err, ErrMalformedFrame) || c.name == "sweep query seen" && !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: a %d-byte ID: err = %v, want it refused as malformed", c.name, len(longest)+1, err)
		}
	}
}

// FuzzSweepQueryUnmarshal: the decoder never panics, refuses a frame only as
// a bad query, and accepts its own re-encoding of whatever it took.
func FuzzSweepQueryUnmarshal(f *testing.F) {
	queries, _ := sweepFuzzSeeds()
	for _, seed := range queries {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := UnmarshalSweepQuery(data)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) || !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("refused with %v", err)
			}
			return
		}
		again, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
		if err != nil || !reflect.DeepEqual(q, again) {
			t.Fatalf("re-decode of the re-encoded query: %v\n got %+v\nwant %+v", err, again, q)
		}
	})
}

// FuzzSweepResultUnmarshal: the decoder never panics, refuses a frame only as
// malformed, and decodes its own re-encoding of whatever it took to the same
// result.
func FuzzSweepResultUnmarshal(f *testing.F) {
	_, results := sweepFuzzSeeds()
	for _, seed := range results {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := UnmarshalSweepResult(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("refused with %v", err)
			}
			return
		}
		again, err := UnmarshalSweepResult(MarshalSweepResult(res))
		if err != nil || !reflect.DeepEqual(res, again) {
			t.Fatalf("re-decode of the re-encoded result: %v\n got %+v\nwant %+v", err, again, res)
		}
	})
}

// codecRoundTrips decode a frame with one of the decoders FuzzCodecUnmarshal
// covers and re-encode what they decoded; seed is a frame each accepts.
var codecRoundTrips = []struct {
	name      string
	seed      []byte
	roundTrip func([]byte) ([]byte, error)
}{
	{"stats", MarshalStats(Stats{Shards: 2, PerShard: []ShardStats{{Held: 1}, {}}, Primes: []uint32{11}, Recovered: 3, Replication: ReplicationStats{HintsQueued: 1}}),
		func(b []byte) ([]byte, error) { v, err := UnmarshalStats(b); return MarshalStats(v), err }},
	{"submit results", MarshalSubmitResults([]SubmitResult{{ID: "a"}, {Err: ErrDuplicateBottle}, {Err: errors.New("disk full")}}),
		func(b []byte) ([]byte, error) {
			v, err := UnmarshalSubmitResults(b)
			return MarshalSubmitResults(v), err
		}},
	{"fetch results", MarshalFetchResults([]FetchResult{{Replies: [][]byte{{1}, nil}}, {Err: ErrUnknownBottle}}),
		func(b []byte) ([]byte, error) { v, err := UnmarshalFetchResults(b); return MarshalFetchResults(v), err }},
	{"error list", MarshalErrorList([]error{nil, fmt.Errorf("shard 3: %w", ErrFetchBudget)}),
		func(b []byte) ([]byte, error) { v, err := UnmarshalErrorList(b); return MarshalErrorList(v), err }},
	{"id list", MarshalIDList([]string{"a", ""}),
		func(b []byte) ([]byte, error) { v, err := UnmarshalIDList(b); return MarshalIDList(v), err }},
	{"reply batch", MarshalReplyBatch([]ReplyPost{{RequestID: "a", Raw: []byte{1}}}),
		func(b []byte) ([]byte, error) { v, err := UnmarshalReplyBatch(b); return MarshalReplyBatch(v), err }},
	{"hint", MarshalHint("r1", []HandoffRecord{{Type: RecSubmit, Owner: "alice", Payload: []byte{1}}}),
		func(b []byte) ([]byte, error) {
			dest, recs, err := UnmarshalHint(b)
			return MarshalHint(dest, recs), err
		}},
	{"peer update", MarshalPeerUpdate(PeerVerbSet, "r1", "a:1"),
		func(b []byte) ([]byte, error) {
			verb, name, addr, err := UnmarshalPeerUpdate(b)
			return MarshalPeerUpdate(verb, name, addr), err
		}},
	{"peer list", MarshalPeerList(map[string]string{"r1": "a:1", "r2": "b:2"}),
		func(b []byte) ([]byte, error) { v, err := UnmarshalPeerList(b); return MarshalPeerList(v), err }},
	{"admin request", MarshalAdminRequest(AdminRequest{Verb: AdminVerbQuota, QuotaRate: 2.5, QuotaBurst: 8}),
		func(b []byte) ([]byte, error) { v, err := UnmarshalAdminRequest(b); return MarshalAdminRequest(v), err }},
	{"admin status", MarshalAdminStatus(AdminStatus{Draining: true, Held: 3, QuotaRate: 1}),
		func(b []byte) ([]byte, error) { v, err := UnmarshalAdminStatus(b); return MarshalAdminStatus(v), err }},
	{"sweep query", MarshalSweepQuery(SweepQuery{
		Residues: []core.ResidueSet{core.NewResidueSet(11, []uint32{1})}, Limit: 8,
		Cursors: []SweepCursor{{Epoch: 3, After: 40}, {Member: "r2/x", Epoch: 1, After: 2}}, Seen: []string{"a"},
	}), func(b []byte) ([]byte, error) { v, err := UnmarshalSweepQuery(b); return MarshalSweepQuery(v), err }},
	{"sweep result", MarshalSweepResult(SweepResult{
		Bottles: []SweptBottle{{ID: "a", Raw: []byte{1}}}, Scanned: 4, Rejected: 3,
		Cursors: []SweepCursor{{Member: "r1", Epoch: 3, After: 40}},
	}), func(b []byte) ([]byte, error) { v, err := UnmarshalSweepResult(b); return MarshalSweepResult(v), err }},
}

// FuzzCodecUnmarshal feeds the decoders that have no fuzz target of their
// own: the first byte picks one, the rest is its frame. A decoder must not
// panic, and a frame it accepts must re-encode to the same bytes — every
// accepted frame is the one encoding of what it decodes to.
func FuzzCodecUnmarshal(f *testing.F) {
	var overCap []byte // an ID list refused for an ID one byte over the cap
	for i, c := range codecRoundTrips {
		f.Add(append([]byte{byte(i)}, c.seed...))
		if c.name == "id list" {
			overCap = append([]byte{byte(i)}, MarshalIDList([]string{"a", longestID() + "x"})...)
		}
	}
	f.Add(overCap)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := codecRoundTrips[int(data[0])%len(codecRoundTrips)]
		frame := data[1:]
		if enc, err := c.roundTrip(frame); err == nil && !bytes.Equal(enc, frame) {
			t.Fatalf("%s accepted %x but re-encodes it as %x", c.name, frame, enc)
		}
	})
}

func TestSweepQueryRoundTripEmpty(t *testing.T) {
	q := SweepQuery{Residues: []core.ResidueSet{core.NewResidueSet(3, nil)}}
	got, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Residues) != 1 || got.Residues[0].Prime != 3 || got.Limit != 0 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestSweepQueryNegativeLimit guards the wire semantics: a negative limit
// means "server default" and must not wrap into an effectively unlimited
// uint32 on the way through the codec.
func TestSweepQueryNegativeLimit(t *testing.T) {
	q := SweepQuery{
		Residues: []core.ResidueSet{core.NewResidueSet(11, []uint32{1})},
		Limit:    -1,
	}
	got, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.Limit != 0 {
		t.Fatalf("negative limit decoded as %d, want 0 (server default)", got.Limit)
	}
}

func TestSweepResultRoundTrip(t *testing.T) {
	res := SweepResult{
		Bottles: []SweptBottle{
			{ID: "a", Raw: []byte{1, 2, 3}},
			{ID: "b", Raw: nil},
		},
		Scanned:   100,
		Rejected:  90,
		Truncated: true,
		Cursors:   []SweepCursor{{Epoch: 3, After: 77}, {Member: "r2", Epoch: 1 << 63, After: 1}},
	}
	got, err := UnmarshalSweepResult(MarshalSweepResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scanned != 100 || got.Rejected != 90 || !got.Truncated || len(got.Bottles) != 2 || !slices.Equal(got.Cursors, res.Cursors) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got, err := UnmarshalSweepResult(MarshalSweepResult(SweepResult{})); err != nil || got.Cursors != nil || got.Truncated {
		t.Fatalf("empty answer round trip: %+v, %v", got, err)
	}
	if got.Bottles[0].ID != "a" || !bytes.Equal(got.Bottles[0].Raw, []byte{1, 2, 3}) {
		t.Fatalf("bottle mismatch: %+v", got.Bottles[0])
	}
}

func TestRawListRoundTrip(t *testing.T) {
	for _, raws := range [][][]byte{nil, {{1}}, {{1, 2}, nil, {3}}} {
		got, err := UnmarshalRawList(MarshalRawList(raws))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(raws) {
			t.Fatalf("length mismatch: %d vs %d", len(got), len(raws))
		}
		for i := range raws {
			if !bytes.Equal(got[i], raws[i]) {
				t.Fatalf("blob %d mismatch", i)
			}
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	st := Stats{
		Shards: 4,
		Held:   7,
		Totals: ShardStats{Held: 7, Submitted: 9, Scanned: 100, Rejected: 60, Returned: 40, RepliesIn: 3},
		PerShard: []ShardStats{
			{Held: 3, Submitted: 4},
			{Held: 4, Submitted: 5, Duplicates: 1, Expired: 2, Sweeps: 3, RepliesOut: 1, RepliesDropped: 2},
		},
		Primes:    []uint32{11, 13},
		Recovered: 21,
		WALBytes:  4096,
	}
	got, err := UnmarshalStats(MarshalStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", st, got)
	}
}

func TestReplyPostRoundTrip(t *testing.T) {
	id, raw, err := UnmarshalReplyPost(AppendReplyPost(nil, "req-9", []byte{9, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if id != "req-9" || !bytes.Equal(raw, []byte{9, 9}) {
		t.Fatalf("round trip mismatch: %q %v", id, raw)
	}
}

// TestCodecRejectsTruncation walks every prefix of each encoding and demands
// a clean ErrMalformedFrame (never a panic, never silent acceptance) — for
// stats including the prefixes revision-1 and -2 brokers wrote, which ended
// before the durability and the replication counters.
func TestCodecRejectsTruncation(t *testing.T) {
	q := MarshalSweepQuery(SweepQuery{
		Residues: []core.ResidueSet{core.NewResidueSet(11, []uint32{5})},
		Seen:     []string{"x"},
		Cursors:  []SweepCursor{{Member: "m", Epoch: 1, After: 2}},
	})
	res := MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: "a", Raw: []byte{1}}}, Scanned: 1, Cursors: []SweepCursor{{Epoch: 1}}})
	st := MarshalStats(Stats{Shards: 1, PerShard: []ShardStats{{}}, Primes: []uint32{11}})
	post := AppendReplyPost(nil, "id", []byte{1})
	list := MarshalRawList([][]byte{{1, 2}})

	for name, enc := range map[string][]byte{"query": q, "result": res, "stats": st, "post": post, "list": list} {
		for cut := 0; cut < len(enc); cut++ {
			var err error
			switch name {
			case "query":
				_, err = UnmarshalSweepQuery(enc[:cut])
			case "result":
				_, err = UnmarshalSweepResult(enc[:cut])
			case "stats":
				_, err = UnmarshalStats(enc[:cut])
			case "post":
				_, _, err = UnmarshalReplyPost(enc[:cut])
			case "list":
				_, err = UnmarshalRawList(enc[:cut])
			}
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("%s truncated at %d: err = %v, want ErrMalformedFrame", name, cut, err)
			}
		}
	}
}
