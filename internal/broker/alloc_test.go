package broker

import (
	"bytes"
	"testing"
)

// TestCodecRoundTripAllocFree is the allocation budget of the codec's one
// scratch-reusing encoder: the shard encodes every WAL reply record with
// AppendReplyPost into its encBuf, so a warmed encode must not touch the
// heap. A regression here fails go test long before it shows up in a
// benchmark diff.
func TestCodecRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	reply := bytes.Repeat([]byte{0xee}, 300)
	var buf []byte
	avg := testing.AllocsPerRun(200, func() {
		buf = AppendReplyPost(buf[:0], "req-alloc-1", reply)
	})
	if avg != 0 {
		t.Errorf("reply post: %v allocs/op, want 0", avg)
	}
	if !bytes.Equal(buf[len(buf)-len(reply):], reply) {
		t.Error("encode corrupted the reply")
	}
}

// TestCodecDecodersAliasSource pins the documented zero-copy contract: the
// decoders return payloads that are subslices of the frame, not copies, and
// the shard boundary copies whatever it retains.
func TestCodecDecodersAliasSource(t *testing.T) {
	aliases := func(name string, frame, payload []byte, last byte) {
		t.Helper()
		if len(payload) == 0 || &payload[0] != &frame[len(frame)-len(payload)] {
			t.Fatalf("%s: the payload does not alias the frame", name)
		}
		frame[len(frame)-1] ^= 0xff
		if payload[len(payload)-1] != last^0xff {
			t.Fatalf("%s: mutating the frame did not show through: decode copied", name)
		}
	}
	post := AppendReplyPost(nil, "req-alias", []byte("payload-bytes"))
	_, raw, err := UnmarshalReplyPost(post)
	if err != nil {
		t.Fatal(err)
	}
	aliases("reply post", post, raw, 's')

	result := MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: "req-alias", Raw: []byte("package")}}})
	res, err := UnmarshalSweepResult(result)
	if err != nil {
		t.Fatal(err)
	}
	// The bottle's payload is followed by the counters and the cursor list.
	aliases("sweep result", result[:len(result)-(8+8+1+2)], res.Bottles[0].Raw, 'e')

	recs := MarshalHandoffRecords([]HandoffRecord{{Type: RecSubmit, Owner: "alice", Payload: []byte("record")}})
	got, err := UnmarshalHandoffRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	aliases("handoff records", recs, got[0].Payload, 'd')

	hint := MarshalHint("rack-1", []HandoffRecord{{Type: RecRemove, Payload: []byte("req-hinted")}})
	_, got, err = UnmarshalHint(hint)
	if err != nil {
		t.Fatal(err)
	}
	aliases("hint", hint, got[0].Payload, 'd')
}
