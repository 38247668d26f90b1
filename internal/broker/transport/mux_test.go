package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/core"
)

func newMuxPair(t *testing.T, opts ...Options) (*Mux, func()) {
	t.Helper()
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
	l := ListenPipe()
	srv := NewServer(rack)
	go srv.Serve(l)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(conn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m, func() {
		m.Close()
		l.Close()
		srv.Close()
		rack.Close()
	}
}

func TestMuxEndToEndOverPipe(t *testing.T) {
	m, cleanup := newMuxPair(t)
	defer cleanup()
	exerciseEndToEnd(t, m)
}

func TestMuxEndToEndOverTCP(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
	defer rack.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	srv := NewServer(rack)
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()

	m, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	exerciseEndToEnd(t, m)
}

// TestMuxConcurrentCallers hammers a single multiplexed connection from many
// goroutines; its value is under -race, and it proves one connection sustains
// many in-flight calls.
func TestMuxConcurrentCallers(t *testing.T) {
	m, cleanup := newMuxPair(t)
	defer cleanup()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w % 3 {
				case 0:
					raw, _ := buildRaw(t, int64(1000*w+i))
					if _, err := m.Submit(context.Background(), raw); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				case 1:
					if _, err := m.Stats(context.Background()); err != nil {
						t.Errorf("stats: %v", err)
						return
					}
				default:
					if _, err := m.Fetch(context.Background(), "nope"); err == nil {
						t.Error("fetch of unknown id succeeded")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// muxScriptServer speaks raw mux framing on one net.Pipe end so tests control
// response order and timing exactly.
func muxScriptServer(t *testing.T, conn net.Conn, script func(requests []recordedReq, w io.Writer), nrequests int) {
	t.Helper()
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		t.Errorf("reading magic: %v", err)
		return
	}
	if binary.BigEndian.Uint32(magic[:]) != MuxMagic {
		t.Errorf("magic = %x, want %x", magic, MuxMagic)
		return
	}
	reqs := make([]recordedReq, 0, nrequests)
	for len(reqs) < nrequests {
		seq, op, body, err := readPeerFrame(conn)
		if err != nil {
			t.Errorf("reading request: %v", err)
			return
		}
		reqs = append(reqs, recordedReq{seq: seq, op: op, body: append([]byte(nil), body...)})
	}
	script(reqs, conn)
}

// readPeerFrame reads one sequence-tagged frame, the way a scripted peer
// reads requests; the pooled buffer is left to the garbage collector, so
// body stays valid.
func readPeerFrame(r io.Reader) (seq uint64, tag byte, body []byte, err error) {
	seq, tag, body, _, err = readMuxFramePooled(r)
	return seq, tag, body, err
}

// writeMuxFrame writes one sequence-tagged frame, the way a scripted peer
// answers.
func writeMuxFrame(w io.Writer, seq uint64, tag byte, body []byte) error {
	_, err := w.Write(appendMuxFrame(nil, seq, tag, body))
	return err
}

type recordedReq struct {
	seq  uint64
	op   byte
	body []byte
}

// TestMuxOutOfOrderResponses proves the demux layer routes responses by
// sequence number: the server answers the second request first, and both
// callers still get their own payloads.
func TestMuxOutOfOrderResponses(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		muxScriptServer(t, srv, func(reqs []recordedReq, w io.Writer) {
			// Respond in reverse order, echoing each request's body back.
			for i := len(reqs) - 1; i >= 0; i-- {
				if err := writeMuxFrame(w, reqs[i].seq, statusOK, reqs[i].body); err != nil {
					t.Errorf("writing response: %v", err)
					return
				}
			}
		}, 2)
	}()

	m, err := NewMux(cli)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	for _, id := range []string{"first", "second"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			// Fetch echoes the request ID as the response body in this
			// scripted server, so a cross-delivery is detectable.
			resp, err := m.call(context.Background(), OpFetch, []byte(id))
			if err != nil {
				t.Errorf("call %q: %v", id, err)
				return
			}
			if string(resp) != id {
				t.Errorf("call %q got response %q", id, resp)
			}
		}(id)
	}
	wg.Wait()
	<-done
}

// TestMuxRemoteError proves per-operation server errors surface as
// RemoteError without poisoning the connection.
func TestMuxRemoteError(t *testing.T) {
	m, cleanup := newMuxPair(t)
	defer cleanup()
	raw, _ := buildRaw(t, 99)
	if _, err := m.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	_, err := m.Submit(context.Background(), raw)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("duplicate submit err = %v, want RemoteError", err)
	}
	// The connection survives a remote error.
	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatalf("stats after remote error: %v", err)
	}
}

// TestMuxBatchOps drives the batch opcodes end to end over one multiplexed
// connection, including per-item failures.
func TestMuxBatchOps(t *testing.T) {
	m, cleanup := newMuxPair(t)
	defer cleanup()

	rawA, pkgA := buildRaw(t, 1)
	rawB, pkgB := buildRaw(t, 2)
	results, err := m.SubmitBatch(context.Background(), [][]byte{rawA, rawB, rawA, []byte("garbage")})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("SubmitBatch returned %d results, want 4", len(results))
	}
	if results[0].Err != nil || results[0].ID != pkgA.ID {
		t.Fatalf("item 0 = %+v, want racked %s", results[0], pkgA.ID)
	}
	if results[1].Err != nil || results[1].ID != pkgB.ID {
		t.Fatalf("item 1 = %+v, want racked %s", results[1], pkgB.ID)
	}
	if results[2].Err == nil {
		t.Fatal("duplicate item racked")
	}
	if results[3].Err == nil {
		t.Fatal("garbage item racked")
	}

	replyFor := func(id, from string) []byte {
		return (&core.Reply{RequestID: id, From: from, SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()
	}
	errs, err := m.ReplyBatch(context.Background(), []broker.ReplyPost{
		{RequestID: pkgA.ID, Raw: replyFor(pkgA.ID, "bob")},
		{RequestID: pkgB.ID, Raw: replyFor(pkgA.ID, "mallory")}, // ID mismatch
		{RequestID: "unknown", Raw: replyFor("unknown", "carol")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil {
		t.Fatalf("reply 0 failed: %v", errs[0])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Fatalf("mismatched/unknown replies accepted: %v %v", errs[1], errs[2])
	}

	fetched, err := m.FetchBatch(context.Background(), []string{pkgA.ID, pkgB.ID, "unknown"})
	if err != nil {
		t.Fatal(err)
	}
	if fetched[0].Err != nil || len(fetched[0].Replies) != 1 {
		t.Fatalf("fetch 0 = %+v, want one reply", fetched[0])
	}
	if fetched[1].Err != nil || len(fetched[1].Replies) != 0 {
		t.Fatalf("fetch 1 = %+v, want zero replies", fetched[1])
	}
	if fetched[2].Err == nil {
		t.Fatal("fetch of unknown id succeeded")
	}
}

// TestServerReadIdleTimeout proves the server drops connections that stay
// silent past the idle deadline.
func TestServerReadIdleTimeout(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	srv := NewServer(rack, ServerOptions{ReadIdleTimeout: 30 * time.Millisecond})
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()

	m, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatalf("stats before idling: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	if _, err := m.Stats(context.Background()); err == nil {
		t.Fatal("call on idle-dropped connection succeeded")
	}
}

// deadlineReader serves data with a read deadline expiring at each offset
// in cuts: one read there fails with os.ErrDeadlineExceeded, and no read
// crosses a cut. It counts the reads it is asked for.
type deadlineReader struct {
	data  []byte
	off   int
	cuts  []int // ascending offsets
	reads int
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.cuts) > 0 && r.cuts[0] <= r.off {
		r.cuts = r.cuts[1:]
		return 0, os.ErrDeadlineExceeded
	}
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	end := len(r.data)
	if len(r.cuts) > 0 {
		end = r.cuts[0]
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

// FuzzMuxFrame hardens the resumable decoder a Mux reads responses with.
// Arbitrary bytes must never panic. Cut by read deadlines at fuzz-chosen
// offsets (gaps are the distances between cuts), the stream must decode to
// exactly the frames, and stop at exactly the framing error, that
// readMuxFramePooled finds in one uninterrupted pass, and the frames must
// re-encode to the bytes they came from. Before each blocking read the
// decoder takes what is buffered without blocking, which must never reach
// the connection.
func FuzzMuxFrame(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 0}, []byte{1})
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, OpSubmit}, []byte{0, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, []byte{2})
	two := appendMuxFrame(appendMuxFrame(nil, 42, OpSweep, []byte("body")), 43, statusOK, nil)
	f.Add(two, []byte{3, 4, 5, 1, 0, 7})
	type frame struct {
		seq  uint64
		tag  byte
		body []byte
	}
	f.Fuzz(func(t *testing.T, data, gaps []byte) {
		var want []frame
		var wantErr error
		whole := bytes.NewReader(data)
		for wantErr == nil {
			seq, tag, body, _, err := readMuxFramePooled(whole)
			if err == nil {
				want = append(want, frame{seq, tag, append([]byte(nil), body...)})
			}
			wantErr = err
		}

		r := &deadlineReader{data: data}
		off := 0
		for _, g := range gaps {
			if off += int(g); off > len(data) {
				break
			}
			r.cuts = append(r.cuts, off)
		}
		fr := newFrameReader(r)
		var got []frame
		var gotErr error
		for gotErr == nil {
			reads := r.reads
			seq, tag, body, ok, err := fr.next(false)
			if r.reads != reads {
				t.Fatal("a non-blocking read reached the connection")
			}
			if !ok && err == nil {
				seq, tag, body, ok, err = fr.next(true)
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			if ok {
				got = append(got, frame{seq, tag, body})
			}
			gotErr = err
		}

		if len(got) != len(want) {
			t.Fatalf("cut stream decoded %d frames, one pass %d", len(got), len(want))
		}
		var enc []byte
		for i := range got {
			if got[i].seq != want[i].seq || got[i].tag != want[i].tag || !bytes.Equal(got[i].body, want[i].body) {
				t.Fatalf("frame %d: cut stream (%d,%d,%x), one pass (%d,%d,%x)", i,
					got[i].seq, got[i].tag, got[i].body, want[i].seq, want[i].tag, want[i].body)
			}
			enc = appendMuxFrame(enc, got[i].seq, got[i].tag, got[i].body)
		}
		if !bytes.HasPrefix(data, enc) {
			t.Fatal("decoded frames do not re-encode to the bytes they came from")
		}
		for _, framing := range []error{ErrShortFrame, ErrFrameTooLarge} {
			if errors.Is(gotErr, framing) != errors.Is(wantErr, framing) {
				t.Fatalf("cut stream stopped with %v, one pass with %v", gotErr, wantErr)
			}
		}
	})
}

// TestMuxRefusesShortListAnswer: a peer that answers a list of two with one
// outcome fails the call with broker.ErrMalformedFrame, for each list verb,
// so no caller reads past the answer.
func TestMuxRefusesShortListAnswer(t *testing.T) {
	for _, c := range []struct {
		name   string
		answer []byte
		call   func(*Mux) error
	}{
		{"SubmitBatch", broker.MarshalSubmitResults([]broker.SubmitResult{{ID: "a"}}), func(m *Mux) error {
			_, err := m.SubmitBatch(context.Background(), [][]byte{[]byte("a"), []byte("b")})
			return err
		}},
		{"ReplyBatch", broker.MarshalErrorList([]error{nil}), func(m *Mux) error {
			_, err := m.ReplyBatch(context.Background(), []broker.ReplyPost{{RequestID: "a"}, {RequestID: "b"}})
			return err
		}},
		{"FetchBatch", broker.MarshalFetchResults([]broker.FetchResult{{}}), func(m *Mux) error {
			_, err := m.FetchBatch(context.Background(), []string{"a", "b"})
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, peer := scriptedMux(t, nil)
			done := make(chan error, 1)
			go func() { done <- c.call(m) }()
			seq := peerRead(t, peer)
			if err := writeMuxFrame(peer, seq, statusOK, c.answer); err != nil {
				t.Fatal(err)
			}
			if err := <-done; !errors.Is(err, broker.ErrMalformedFrame) {
				t.Fatalf("short answer: err = %v, want ErrMalformedFrame", err)
			}
		})
	}
}
