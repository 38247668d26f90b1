package core

import (
	"bytes"
	"testing"
	"time"

	"sealedbottle/internal/attr"
)

// fuzzSeedPackages builds a representative spread of valid wire encodings:
// perfect match (no hint), fuzzy match (hint matrix), opaque mode, and a
// request with a note.
func fuzzSeedPackages(tb testing.TB) [][]byte {
	tb.Helper()
	now := func() time.Time { return time.Date(2013, 7, 8, 0, 0, 0, 0, time.UTC) }
	specs := []struct {
		spec RequestSpec
		opts BuildOptions
	}{
		{PerfectMatch(attr.MustNew("sex", "male"), attr.MustNew("city", "beijing")),
			BuildOptions{Now: now}},
		{FuzzyMatch(2,
			attr.MustNew("interest", "basketball"),
			attr.MustNew("interest", "chess"),
			attr.MustNew("interest", "golf"),
			attr.MustNew("interest", "tennis")),
			BuildOptions{Now: now}},
		{RequestSpec{
			Necessary:   []attr.Attribute{attr.MustNew("university", "columbia")},
			Optional:    []attr.Attribute{attr.MustNew("interest", "opera"), attr.MustNew("interest", "jazz")},
			MinOptional: 1,
		}, BuildOptions{Mode: SealModeOpaque, Now: now}},
		{PerfectMatch(attr.MustNew("a", "b")),
			BuildOptions{Note: []byte("hello"), Origin: "node-1", Now: now}},
	}
	var out [][]byte
	for i, s := range specs {
		built, err := BuildRequest(s.spec, s.opts)
		if err != nil {
			tb.Fatalf("seed %d: %v", i, err)
		}
		raw, err := built.Package.Marshal()
		if err != nil {
			tb.Fatalf("seed %d: %v", i, err)
		}
		out = append(out, raw)
	}
	return out
}

// FuzzRequestPackageUnmarshal checks that UnmarshalPackage never panics and
// that every accepted input round-trips to a stable canonical encoding.
func FuzzRequestPackageUnmarshal(f *testing.F) {
	for _, raw := range fuzzSeedPackages(f) {
		f.Add(raw)
		// Truncations at structurally interesting depths.
		for _, cut := range []int{0, 3, 6, 10, len(raw) / 2, len(raw) - 1} {
			if cut >= 0 && cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
		// Single-byte corruptions.
		for _, pos := range []int{0, 4, 5, 9, len(raw) / 2, len(raw) - 1} {
			if pos >= 0 && pos < len(raw) {
				mut := append([]byte(nil), raw...)
				mut[pos] ^= 0xff
				f.Add(mut)
			}
		}
		// Trailing garbage.
		f.Add(append(append([]byte(nil), raw...), 0xde, 0xad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkg, err := UnmarshalPackage(data)
		if err != nil {
			return
		}
		first, err := pkg.Marshal()
		if err != nil {
			t.Fatalf("accepted package fails to re-marshal: %v", err)
		}
		if size, err := pkg.WireSize(); err != nil || size != len(first) {
			t.Fatalf("WireSize = %d, %v; Marshal wrote %d bytes", size, err, len(first))
		}
		again, err := UnmarshalPackage(first)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v", err)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("round-tripped package fails to re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\n first: %x\nsecond: %x", first, second)
		}
	})
}

// fuzzSeedReplies builds valid reply encodings (empty, single and multi-ack).
func fuzzSeedReplies(tb testing.TB) [][]byte {
	tb.Helper()
	sent := time.Date(2013, 7, 8, 0, 0, 1, 0, time.UTC)
	replies := []*Reply{
		{RequestID: "req-1", From: "peer-a", SentAt: sent},
		{RequestID: "req-2", From: "peer-b", SentAt: sent, Acks: [][]byte{{1, 2, 3}}},
		{RequestID: "0123456789abcdef", From: "peer-c", SentAt: sent,
			Acks: [][]byte{make([]byte, 64), {0xff}, nil}},
	}
	var out [][]byte
	for _, r := range replies {
		out = append(out, r.Marshal())
	}
	return out
}

// FuzzReplyUnmarshal checks that UnmarshalReply never panics and that every
// accepted reply round-trips to a stable canonical encoding.
func FuzzReplyUnmarshal(f *testing.F) {
	for _, raw := range fuzzSeedReplies(f) {
		f.Add(raw)
		for _, cut := range []int{0, 3, 5, len(raw) / 2, len(raw) - 1} {
			if cut >= 0 && cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
		for _, pos := range []int{0, 4, len(raw) / 2, len(raw) - 1} {
			if pos >= 0 && pos < len(raw) {
				mut := append([]byte(nil), raw...)
				mut[pos] ^= 0xff
				f.Add(mut)
			}
		}
		f.Add(append(append([]byte(nil), raw...), 0x00))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reply, err := UnmarshalReply(data)
		if err != nil {
			return
		}
		first := reply.Marshal()
		if reply.WireSize() != len(first) {
			t.Fatalf("WireSize = %d; Marshal wrote %d bytes", reply.WireSize(), len(first))
		}
		again, err := UnmarshalReply(first)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v", err)
		}
		if !bytes.Equal(first, again.Marshal()) {
			t.Fatal("encoding not stable")
		}
	})
}
