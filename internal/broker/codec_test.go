package broker

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
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
		Window:        0xfeedface00c0ffee,
		SeenBase:      1 << 40,
		SeenCap:       4096,
	}
	for _, full := range []bool{false, true} {
		q.SeenFull = full
		got, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", q, got)
		}
	}
}

// TestSweepCodecRefusesAmplifyingCounts pins the decode-amplification fix: a
// count prefix is refused before anything is allocated for it unless the
// rest of the frame could hold that many smallest-possible entries. Before,
// any count up to the bytes remaining was accepted, so a 16 MiB frame
// claiming 16 M seen IDs (16 bytes of slice header each) or swept bottles (40
// bytes each) cost hundreds of MiB before the first entry failed to parse.
func TestSweepCodecRefusesAmplifyingCounts(t *testing.T) {
	rs := []core.ResidueSet{core.NewResidueSet(11, []uint32{1})}
	// withCount rewrites the u32 count that precedes an encoding's list and
	// pads the frame with zero bytes, which parse as empty entries.
	withCount := func(enc []byte, countAt int, count uint32, pad int) []byte {
		out := append(append([]byte(nil), enc[:countAt+4]...), make([]byte, pad)...)
		out[countAt], out[countAt+1], out[countAt+2], out[countAt+3] = byte(count>>24), byte(count>>16), byte(count>>8), byte(count)
		return out
	}
	query := MarshalSweepQuery(SweepQuery{Residues: rs})
	seenAt := len(query) - 4 // the seen count ends an empty query
	for name, frame := range map[string][]byte{
		"one more seen ID than bytes for them": withCount(query, seenAt, 51, 100),
		"seen count past MaxSeenCap":           withCount(query, seenAt, MaxSeenCap+1, 2*(MaxSeenCap+1)),
		"16M seen IDs":                         withCount(query, seenAt, 16<<20, 1<<10),
	} {
		if _, err := UnmarshalSweepQuery(frame); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("query with %s: err = %v, want ErrMalformedFrame", name, err)
		}
	}
	if q, err := UnmarshalSweepQuery(withCount(query, seenAt, 50, 100)); err != nil || len(q.Seen) != 50 {
		t.Errorf("query with exactly the seen IDs its bytes hold: %d IDs, %v", len(q.Seen), err)
	}
	// A result's bottle count leads the frame; 6 bytes is an empty bottle.
	result := MarshalSweepResult(SweepResult{})
	for name, frame := range map[string][]byte{
		"one more bottle than bytes for them": withCount(result, 0, 11, 60+len(result)-4),
		"16M bottles":                         withCount(result, 0, 16<<20, 1<<10),
	} {
		if _, err := UnmarshalSweepResult(frame); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("result with %s: err = %v, want ErrMalformedFrame", name, err)
		}
		if err := UnmarshalSweepResultView(frame, new(SweepResultView)); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("result view with %s: err = %v, want ErrMalformedFrame", name, err)
		}
	}
	// What the refusal is for: a 1 MiB frame claiming 1 Mi entries used to
	// allocate the whole slice (16 and 40 MiB) before failing.
	allocated := func(decode func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	bigQuery, bigResult := withCount(query, seenAt, 1<<20, 1<<20), withCount(result, 0, 1<<20, 1<<20)
	if n := allocated(func() { UnmarshalSweepQuery(bigQuery) }); n > 1<<20 {
		t.Errorf("refusing a lying seen count allocated %d bytes", n)
	}
	if n := allocated(func() { UnmarshalSweepResult(bigResult) }); n > 1<<20 {
		t.Errorf("refusing a lying bottle count allocated %d bytes", n)
	}
	// A residue-set count and a word count are bounded the same way.
	for name, frame := range map[string][]byte{
		"65535 residue sets": {0xff, 0xff, 0, 0, 0, 11, 0, 1},
		"65535 words":        {0, 1, 0, 0, 0, 11, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := UnmarshalSweepQuery(frame); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("query with %s: err = %v, want ErrMalformedFrame", name, err)
		}
	}
}

// sweepFuzzSeeds are revision-5 sweep frames: an ad-hoc list, a full and a
// delta window query, a scan answer and a resync answer.
func sweepFuzzSeeds() (queries, results [][]byte) {
	q := SweepQuery{
		Residues:      []core.ResidueSet{core.NewResidueSet(11, []uint32{0, 3, 7})},
		Limit:         64,
		ExcludeOrigin: "alice",
		Seen:          []string{"r1@0123456789abcdef", "fedcba9876543210"},
	}
	queries = append(queries, MarshalSweepQuery(q))
	q.Window, q.SeenCap, q.SeenBase, q.SeenFull = 7, 4096, 100, true
	queries = append(queries, MarshalSweepQuery(q))
	q.SeenFull = false
	queries = append(queries, MarshalSweepQuery(q), nil)
	results = append(results,
		MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: "a", Raw: []byte{1, 2, 3}}, {ID: "b"}}, Scanned: 9, Rejected: 7, Truncated: true}),
		MarshalSweepResult(SweepResult{Resync: true}), nil)
	return queries, results
}

// FuzzSweepQueryUnmarshal: the decoder never panics, never returns more seen
// IDs than MaxSeenCap, and accepts its own re-encoding of whatever it took.
func FuzzSweepQueryUnmarshal(f *testing.F) {
	queries, _ := sweepFuzzSeeds()
	for _, seed := range queries {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := UnmarshalSweepQuery(data)
		if err != nil {
			return
		}
		if len(q.Seen) > MaxSeenCap {
			t.Fatalf("decoded %d seen IDs", len(q.Seen))
		}
		again, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
		if err != nil || !reflect.DeepEqual(q, again) {
			t.Fatalf("re-decode of the re-encoded query: %v\n got %+v\nwant %+v", err, again, q)
		}
	})
}

// FuzzSweepResultUnmarshal: both result decoders never panic, agree with each
// other, and accept their own re-encoding.
func FuzzSweepResultUnmarshal(f *testing.F) {
	_, results := sweepFuzzSeeds()
	for _, seed := range results {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := UnmarshalSweepResult(data)
		var view SweepResultView
		if viewErr := UnmarshalSweepResultView(data, &view); (err == nil) != (viewErr == nil) {
			t.Fatalf("decoders disagree: %v vs view %v", err, viewErr)
		}
		if err != nil {
			return
		}
		if len(view.Bottles) != len(res.Bottles) || view.Resync != res.Resync || view.Truncated != res.Truncated {
			t.Fatalf("view %+v differs from %+v", view, res)
		}
		if _, err := UnmarshalSweepResult(MarshalSweepResult(res)); err != nil {
			t.Fatalf("re-decode of the re-encoded result: %v", err)
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
	}
	got, err := UnmarshalSweepResult(MarshalSweepResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scanned != 100 || got.Rejected != 90 || !got.Truncated || got.Resync || len(got.Bottles) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got, err := UnmarshalSweepResult(MarshalSweepResult(SweepResult{Resync: true})); err != nil || !got.Resync || got.Truncated {
		t.Fatalf("resync answer round trip: %+v, %v", got, err)
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
		Shards:  4,
		Workers: 2,
		Held:    7,
		Totals:  ShardStats{Held: 7, Submitted: 9, Scanned: 100, Rejected: 60, Returned: 40, RepliesIn: 3},
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

// TestStatsDecodesOldRevisions pins the compatibility rule of
// docs/PROTOCOL.md §2.7: a frame from a broker predating the durability
// counters ends after the primes (revision 1), one predating the replication
// counters ends after WALBytes (revision 2), and the current encoding carries
// both tails (revision 3). Every revision must decode, with absent tails
// zero and present tails intact.
func TestStatsDecodesOldRevisions(t *testing.T) {
	st := Stats{
		Shards: 2, Workers: 1,
		PerShard:  []ShardStats{{}, {}},
		Primes:    []uint32{11},
		Recovered: 21, WALBytes: 4096,
		Replication: ReplicationStats{HintsQueued: 5, HandoffApplied: 3},
	}
	full := MarshalStats(st)
	rev2 := st
	rev2.Replication = ReplicationStats{}
	rev1 := rev2
	rev1.Recovered, rev1.WALBytes = 0, 0
	cases := []struct {
		name string
		enc  []byte
		want Stats
	}{
		{"rev1", full[:len(full)-64], rev1}, // ends after the primes
		{"rev2", full[:len(full)-48], rev2}, // ends after WALBytes
		{"rev3", full, st},                  // current: full replication tail
	}
	for _, tc := range cases {
		got, err := UnmarshalStats(tc.enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s decode:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

func TestReplyPostRoundTrip(t *testing.T) {
	id, raw, err := UnmarshalReplyPost(MarshalReplyPost("req-9", []byte{9, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if id != "req-9" || !bytes.Equal(raw, []byte{9, 9}) {
		t.Fatalf("round trip mismatch: %q %v", id, raw)
	}
}

// TestCodecRejectsTruncation walks every prefix of each encoding and demands
// a clean ErrMalformedFrame (never a panic, never silent acceptance).
func TestCodecRejectsTruncation(t *testing.T) {
	q := MarshalSweepQuery(SweepQuery{
		Residues: []core.ResidueSet{core.NewResidueSet(11, []uint32{5})},
		Seen:     []string{"x"},
	})
	res := MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: "a", Raw: []byte{1}}}, Scanned: 1})
	st := MarshalStats(Stats{Shards: 1, PerShard: []ShardStats{{}}, Primes: []uint32{11}})
	post := MarshalReplyPost("id", []byte{1})
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
				if cut == len(enc)-48 || cut == len(enc)-64 {
					// Exactly the replication counters missing (revision-2
					// frame) or those plus the durability counters (revision
					// 1): well-formed old frames, accepted by design.
					continue
				}
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
