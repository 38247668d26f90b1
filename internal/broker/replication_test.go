package broker

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sealedbottle/internal/core"
)

func TestHandoffRecordsRoundTrip(t *testing.T) {
	recs := []HandoffRecord{
		{Type: RecSubmit, Payload: []byte{1, 2, 3}},
		{Type: RecReply, Payload: nil},
		{Type: RecRemove, Payload: []byte("req-1")},
		{Type: RecRepair, Payload: []byte("req-2")},
	}
	got, err := UnmarshalHandoffRecords(MarshalHandoffRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Type != recs[i].Type || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestHintRoundTrip(t *testing.T) {
	dest, recs, err := UnmarshalHint(MarshalHint("rack-2", []HandoffRecord{{Type: RecSubmit, Payload: []byte{7}}}))
	if err != nil {
		t.Fatal(err)
	}
	if dest != "rack-2" || len(recs) != 1 || recs[0].Type != RecSubmit {
		t.Fatalf("round trip mismatch: %q %+v", dest, recs)
	}
}

func TestPeerUpdateRoundTrip(t *testing.T) {
	verb, name, addr, err := UnmarshalPeerUpdate(MarshalPeerUpdate(PeerVerbSet, "rack-1", "127.0.0.1:7117"))
	if err != nil {
		t.Fatal(err)
	}
	if verb != PeerVerbSet || name != "rack-1" || addr != "127.0.0.1:7117" {
		t.Fatalf("round trip mismatch: %d %q %q", verb, name, addr)
	}
}

func TestPeerListRoundTrip(t *testing.T) {
	peers := map[string]string{"rack-0": "a:1", "rack-1": "b:2"}
	got, err := UnmarshalPeerList(MarshalPeerList(peers))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, peers) {
		t.Fatalf("round trip mismatch: %v, want %v", got, peers)
	}
}

// TestReplicationCodecRejectsTruncation walks every prefix of the replication
// encodings and demands a clean ErrMalformedFrame.
func TestReplicationCodecRejectsTruncation(t *testing.T) {
	recs := MarshalHandoffRecords([]HandoffRecord{{Type: RecSubmit, Payload: []byte{1, 2}}})
	hint := MarshalHint("rack-1", []HandoffRecord{{Type: RecRemove, Payload: []byte("id")}})
	peer := MarshalPeerUpdate(PeerVerbSet, "rack-1", "a:1")
	list := MarshalPeerList(map[string]string{"rack-1": "a:1"})
	for name, enc := range map[string][]byte{"records": recs, "hint": hint, "peer": peer, "list": list} {
		for cut := 0; cut < len(enc); cut++ {
			var err error
			switch name {
			case "records":
				_, err = UnmarshalHandoffRecords(enc[:cut])
			case "hint":
				_, _, err = UnmarshalHint(enc[:cut])
			case "peer":
				_, _, _, err = UnmarshalPeerUpdate(enc[:cut])
			case "list":
				_, err = UnmarshalPeerList(enc[:cut])
			}
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("%s truncated at %d: err = %v, want ErrMalformedFrame", name, cut, err)
			}
		}
	}
}

func TestStatsReplicationTailRoundTrip(t *testing.T) {
	st := Stats{
		Shards: 1, PerShard: []ShardStats{{}},
		Replication: ReplicationStats{
			HintsQueued: 1, HintsStreamed: 2, HintsDropped: 3,
			HandoffApplied: 4, ReadRepairs: 5, ReplicaDedup: 6,
		},
	}
	got, err := UnmarshalStats(MarshalStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Replication != st.Replication {
		t.Fatalf("replication counters = %+v, want %+v", got.Replication, st.Replication)
	}
}

func TestPeekBottle(t *testing.T) {
	clock := newTestClock()
	rack := New(Config{Shards: 1, ReapInterval: -1, Now: clock.Now, RackTag: "r0"})
	defer rack.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))
	raw, pkg := buildRawPackage(t, rng, clock, "alice", interests("chess"), nil, 0)
	id, err := rack.Submit(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := rack.PeekBottle("no-such-bottle"); ok {
		t.Fatal("peek of unknown bottle reported held")
	}
	// Peek accepts both the tagged and untagged forms of the ID.
	for _, lookup := range []string{id, UntagID(id)} {
		gotRaw, _, replies, ok := rack.PeekBottle(lookup)
		if !ok {
			t.Fatalf("peek(%q) reported absent", lookup)
		}
		if !bytes.Equal(gotRaw, raw) {
			t.Fatalf("peek(%q) raw mismatch", lookup)
		}
		if len(replies) != 0 {
			t.Fatalf("peek(%q) returned %d replies, want 0", lookup, len(replies))
		}
	}
	// Peeking must not drain queued replies.
	rep := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: clock.Now()}).Marshal()
	if err := rack.Reply(ctx, id, rep); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, _, replies, ok := rack.PeekBottle(id)
		if !ok || len(replies) != 1 || !bytes.Equal(replies[0], rep) {
			t.Fatalf("peek %d after reply: ok=%v replies=%d", i, ok, len(replies))
		}
	}
	got, err := rack.Fetch(ctx, id)
	if err != nil || len(got) != 1 {
		t.Fatalf("fetch after peeks: %v (%d replies)", err, len(got))
	}
}

// TestHandoffSkipsPeerOnlyRecords pins the peer-side filter of Apply. WAL
// replay and handoff share one apply function, which also acts on expire and
// drain records, so a peer's recExpire, recDrain or RecRepair must not reach
// it: the held bottle and its reply queue stay intact, those records are not
// counted, and the records behind them still apply.
func TestHandoffSkipsPeerOnlyRecords(t *testing.T) {
	clock := newTestClock()
	rack := newTestRack(clock, 2)
	defer rack.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	raw, pkg := buildRawPackage(t, rng, clock, "alice", interests("chess"), nil, 0)
	raw2, pkg2 := buildRawPackage(t, rng, clock, "carol", interests("go"), nil, 0)
	if _, err := rack.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	rep1 := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: clock.Now()}).Marshal()
	rep2 := (&core.Reply{RequestID: pkg.ID, From: "dave", SentAt: clock.Now()}).Marshal()
	if err := rack.Reply(ctx, pkg.ID, rep1); err != nil {
		t.Fatal(err)
	}
	id := []byte(pkg.ID)
	applied, err := rack.Apply(WithIdentity(ctx, "rack:rack-0"), []HandoffRecord{
		{Type: recExpire, Payload: id},
		{Type: recDrain, Payload: id},
		{Type: RecRepair, Payload: id},
		{Type: RecReply, Payload: AppendReplyPost(nil, pkg.ID, rep2)},
		{Type: RecSubmit, Payload: raw2},
	})
	if err != nil || applied != 2 {
		t.Fatalf("Apply = %d, %v; want 2 (the reply and the submit behind the skipped records)", applied, err)
	}
	_, _, replies, ok := rack.PeekBottle(pkg.ID)
	if !ok {
		t.Fatal("a peer's expire record unracked the bottle")
	}
	if len(replies) != 2 || !bytes.Equal(replies[0], rep1) || !bytes.Equal(replies[1], rep2) {
		t.Fatalf("reply queue holds %d replies, want the queued one and the handed-off one, in order", len(replies))
	}
	if _, _, _, ok := rack.PeekBottle(pkg2.ID); !ok {
		t.Fatal("the submit behind the skipped records was not racked")
	}
}

func FuzzHandoffUnmarshal(f *testing.F) {
	f.Add(MarshalHandoffRecords([]HandoffRecord{{Type: RecSubmit, Payload: []byte{1, 2, 3}}}))
	f.Add(MarshalHint("rack-1", []HandoffRecord{{Type: RecRepair, Payload: []byte("id")}}))
	f.Add(MarshalPeerUpdate(PeerVerbSet, "rack-1", "a:1"))
	f.Add(MarshalPeerList(map[string]string{"rack-1": "a:1"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoders must never panic; on success, re-encoding what was decoded
		// must be acceptable to the decoder again.
		if recs, err := UnmarshalHandoffRecords(data); err == nil {
			if _, err := UnmarshalHandoffRecords(MarshalHandoffRecords(recs)); err != nil {
				t.Fatalf("re-decode of re-encoded records failed: %v", err)
			}
		}
		if dest, recs, err := UnmarshalHint(data); err == nil {
			if _, _, err := UnmarshalHint(MarshalHint(dest, recs)); err != nil {
				t.Fatalf("re-decode of re-encoded hint failed: %v", err)
			}
		}
		_, _, _, _ = UnmarshalPeerUpdate(data)
		if peers, err := UnmarshalPeerList(data); err == nil {
			if _, err := UnmarshalPeerList(MarshalPeerList(peers)); err != nil {
				t.Fatalf("re-decode of re-encoded peer list failed: %v", err)
			}
		}
	})
}
