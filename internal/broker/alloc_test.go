package broker

import (
	"bytes"
	"testing"
)

// Allocation budgets for the steady-state codec paths. These pin the
// tentpole's "0 allocs/op codec round-trips" guarantee: the Append* encoders
// reuse the caller's scratch and the *View decoders alias the frame, so a
// warmed round trip must not touch the heap. A regression here fails go test
// long before it shows up in a benchmark diff.

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestCodecRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	res := SweepResult{
		Bottles: []SweptBottle{
			{ID: "req-alloc-1", Raw: bytes.Repeat([]byte{0xa5}, 512)},
			{ID: "req-alloc-2", Raw: bytes.Repeat([]byte{0x5a}, 768)},
			{ID: "req-alloc-3", Raw: bytes.Repeat([]byte{0x3c}, 256)},
		},
		Scanned:  41,
		Rejected: 7,
		Cursors:  []SweepCursor{{Epoch: 9, After: 41}},
	}
	var buf []byte
	var view SweepResultView
	requireZeroAllocs(t, "sweep result", func() {
		buf = AppendSweepResult(buf[:0], res)
		if err := UnmarshalSweepResultView(buf, &view); err != nil {
			t.Fatal(err)
		}
		if len(view.Bottles) != len(res.Bottles) || len(view.Cursors) != 1 || view.Cursors[0] != res.Cursors[0] {
			t.Fatalf("round trip lost bottles or the cursor: %d != %d, %+v", len(view.Bottles), len(res.Bottles), view.Cursors)
		}
	})

	reply := bytes.Repeat([]byte{0xee}, 300)
	var post ReplyPostView
	requireZeroAllocs(t, "reply post", func() {
		buf = AppendReplyPost(buf[:0], "req-alloc-1", reply)
		if err := UnmarshalReplyPostView(buf, &post); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(post.Raw, reply) {
			t.Fatal("round trip corrupted the reply")
		}
	})

	raws := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		bytes.Repeat([]byte{2}, 200),
		bytes.Repeat([]byte{3}, 300),
	}
	var out [][]byte
	requireZeroAllocs(t, "raw list", func() {
		buf = AppendRawList(buf[:0], raws)
		var err error
		out, err = UnmarshalRawListInto(buf, out[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(raws) {
			t.Fatalf("round trip lost blobs: %d != %d", len(out), len(raws))
		}
	})
}

// TestCodecViewsAliasSource pins the documented zero-copy contract: view
// decoders return subslices of the frame, not copies. If a decoder started
// copying, the alloc budgets above would catch the cost but not the contract;
// the shard-boundary copy-on-retain discipline depends on both.
func TestCodecViewsAliasSource(t *testing.T) {
	frame := AppendReplyPost(nil, "req-alias", []byte("payload-bytes"))
	var v ReplyPostView
	if err := UnmarshalReplyPostView(frame, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Raw) == 0 || &v.Raw[0] != &frame[len(frame)-len(v.Raw)] {
		t.Fatal("ReplyPostView.Raw does not alias the frame")
	}
	frame[len(frame)-1] ^= 0xff
	if v.Raw[len(v.Raw)-1] != byte('s')^0xff {
		t.Fatal("mutating the frame did not show through the view: decode copied")
	}
}
