package client

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/core"
)

type detReader struct{ rng *rand.Rand }

func (d *detReader) Read(p []byte) (int, error) { return d.rng.Read(p) }

// buildRaw builds one marshalled request package searching for "chess" plus
// one of "go"/"shogi".
func buildRaw(tb testing.TB, seed int64) ([]byte, *core.RequestPackage) {
	tb.Helper()
	return buildRawFrom(tb, seed, "alice")
}

// buildRawFrom is buildRaw with the package's origin named.
func buildRawFrom(tb testing.TB, seed int64, origin string) ([]byte, *core.RequestPackage) {
	tb.Helper()
	built, err := core.BuildRequest(core.RequestSpec{
		Necessary: []attr.Attribute{attr.MustNew("interest", "chess")},
		Optional: []attr.Attribute{
			attr.MustNew("interest", "go"),
			attr.MustNew("interest", "shogi"),
		},
		MinOptional: 1,
	}, core.BuildOptions{
		Origin: origin,
		Rand:   &detReader{rng: rand.New(rand.NewSource(seed))},
	})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := built.Package.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return raw, built.Package
}

// testServer stands up a rack behind the pipe listener and returns a config
// dialing it.
func testServer(t *testing.T) (Config, *broker.Rack, func()) {
	t.Helper()
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
	l := transport.ListenPipe()
	srv := transport.NewServer(rack)
	go srv.Serve(l)
	cfg := Config{Dialer: func() (net.Conn, error) { return l.Dial() }}
	return cfg, rack, func() {
		l.Close()
		srv.Close()
		rack.Close()
	}
}

// exerciseCourier drives the full operation surface, batches included.
func exerciseCourier(t *testing.T, c *Courier) {
	t.Helper()
	rawA, pkgA := buildRaw(t, 1)
	id, err := c.Submit(context.Background(), rawA)
	if err != nil || id != pkgA.ID {
		t.Fatalf("Submit = %q, %v", id, err)
	}
	var re *transport.RemoteError
	if _, err := c.Submit(context.Background(), rawA); !errors.As(err, &re) {
		t.Fatalf("duplicate Submit = %v, want RemoteError", err)
	}

	rawB, pkgB := buildRaw(t, 2)
	rawC, pkgC := buildRaw(t, 3)
	results, err := c.SubmitBatch(context.Background(), [][]byte{rawB, rawC, rawB})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != pkgB.ID || results[1].ID != pkgC.ID || results[2].Err == nil {
		t.Fatalf("SubmitBatch = %+v", results)
	}

	matcher, err := core.NewMatcher(attr.NewProfile(
		attr.MustNew("interest", "chess"),
		attr.MustNew("interest", "go"),
	), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Sweep(context.Background(), broker.SweepQuery{
		Residues: []core.ResidueSet{matcher.ResidueSet(core.DefaultPrime)},
	})
	if err != nil || len(res.Bottles) != 3 {
		t.Fatalf("Sweep = %d bottles, %v; want 3", len(res.Bottles), err)
	}

	mkReply := func(id string) []byte {
		return (&core.Reply{RequestID: id, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()
	}
	if err := c.Reply(context.Background(), pkgA.ID, mkReply(pkgA.ID)); err != nil {
		t.Fatal(err)
	}
	errs, err := c.ReplyBatch(context.Background(), []broker.ReplyPost{
		{RequestID: pkgB.ID, Raw: mkReply(pkgB.ID)},
		{RequestID: "ghost", Raw: mkReply("ghost")},
	})
	if err != nil || errs[0] != nil || errs[1] == nil {
		t.Fatalf("ReplyBatch = %v, %v", errs, err)
	}

	raws, err := c.Fetch(context.Background(), pkgA.ID)
	if err != nil || len(raws) != 1 {
		t.Fatalf("Fetch = %d replies, %v", len(raws), err)
	}
	fetches, err := c.FetchBatch(context.Background(), []string{pkgB.ID, "ghost"})
	if err != nil || fetches[0].Err != nil || len(fetches[0].Replies) != 1 || fetches[1].Err == nil {
		t.Fatalf("FetchBatch = %+v, %v", fetches, err)
	}

	st, err := c.Stats(context.Background())
	if err != nil || st.Held != 3 {
		t.Fatalf("Stats held = %d, %v", st.Held, err)
	}
	removed, err := c.Remove(context.Background(), pkgA.ID)
	if err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
}

func TestCourierMultiplexed(t *testing.T) {
	cfg, _, cleanup := testServer(t)
	defer cleanup()
	cfg.Conns = 2
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exerciseCourier(t, c)
}

// TestCourierReconnects proves the pool redials after the server drops an
// idle connection.
func TestCourierReconnects(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	srv := transport.NewServer(rack, transport.ServerOptions{ReadIdleTimeout: 30 * time.Millisecond})
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()

	c, err := Dial(Config{Addr: l.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("first call: %v", err)
	}
	time.Sleep(150 * time.Millisecond) // server drops the idle connection
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("call after idle drop should redial, got %v", err)
	}
}

func TestCourierClosed(t *testing.T) {
	cfg, _, cleanup := testServer(t)
	defer cleanup()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Stats(context.Background()); !errors.Is(err, ErrCourierClosed) {
		t.Fatalf("call on closed courier = %v", err)
	}
}

func TestDialValidatesConfig(t *testing.T) {
	if _, err := Dial(Config{}); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("Dial with no endpoint = %v", err)
	}
}

// TestCourierRemoveNotRetriedAfterTransportFailure is the misreported-Remove
// regression test. The scripted first connection forwards the Remove frame
// to the real server (which applies it) and then severs before relaying the
// response. The old courier treated Remove as idempotent and retried on a
// fresh connection, and the retry honestly answered held=false — for a
// bottle this very call had just removed. The fix surfaces the transport
// error instead, leaving the ambiguity visible to the caller.
func TestCourierRemoveNotRetriedAfterTransportFailure(t *testing.T) {
	cfg, rack, cleanup := testServer(t)
	defer cleanup()
	raw, pkg := buildRaw(t, 9)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}

	realDial := cfg.Dialer
	var dials atomic.Int32
	evilDial := func() (net.Conn, error) {
		if dials.Add(1) > 1 {
			return realDial()
		}
		up, err := realDial()
		if err != nil {
			return nil, err
		}
		down, client := net.Pipe()
		go func() {
			defer up.Close()
			defer down.Close()
			// Forward the mux magic and exactly one frame client→server.
			var magic, lenBuf [4]byte
			if _, err := io.ReadFull(down, magic[:]); err != nil {
				return
			}
			if _, err := io.ReadFull(down, lenBuf[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
			if _, err := io.ReadFull(down, body); err != nil {
				return
			}
			if _, err := up.Write(append(append(magic[:], lenBuf[:]...), body...)); err != nil {
				return
			}
			// Wait for the server's response — proof the Remove was applied —
			// then sever the client side without relaying it.
			io.ReadFull(up, lenBuf[:])
		}()
		return client, nil
	}
	c, err := Dial(Config{Dialer: evilDial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held, err := c.Remove(context.Background(), pkg.ID)
	if err == nil {
		t.Fatalf("Remove over a severed connection = (%v, nil); want the transport error — a retry misreports held=false for a bottle this call removed", held)
	}
	// The first attempt really did reach the rack.
	if _, err := rack.Fetch(context.Background(), pkg.ID); !errors.Is(err, broker.ErrUnknownBottle) {
		t.Fatalf("bottle still fetchable after severed Remove: %v", err)
	}
	// An explicit caller-side retry gets the honest ambiguous answer.
	if held, err := c.Remove(context.Background(), pkg.ID); err != nil || held {
		t.Fatalf("explicit second Remove = (%v, %v), want (false, nil)", held, err)
	}
}

// TestFetchManyBatchAndFailure proves FetchMany drains through the batch
// opcode, and that a whole-call failure is surfaced on every undetermined
// item rather than papered over with per-item re-fetches — fetching drains
// destructively, so a failed batch may already have drained queues whose
// responses were lost, and a re-fetch would silently report them empty.
func TestFetchManyBatchAndFailure(t *testing.T) {
	_, rack, cleanup := testServer(t)
	defer cleanup()
	raw, pkg := buildRaw(t, 5)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	rep := (&core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}).Marshal()
	if err := rack.Reply(context.Background(), pkg.ID, rep); err != nil {
		t.Fatal(err)
	}

	results := FetchMany(context.Background(), rack, []string{pkg.ID, "ghost"})
	if results[0].Err != nil || len(results[0].Replies) != 1 {
		t.Fatalf("FetchMany[0] = %+v", results[0])
	}
	if !errors.Is(results[1].Err, broker.ErrUnknownBottle) {
		t.Fatalf("FetchMany of unknown id = %v, want ErrUnknownBottle", results[1].Err)
	}

	// A failing batch marks every undetermined item with the call error and
	// issues no per-item fetches that could swallow drained replies.
	failing := failingBatchRV{Rack: rack}
	results = FetchMany(context.Background(), failing, []string{pkg.ID, "ghost"})
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("item %d of a failed batch reported success: %+v", i, res)
		}
	}
	if got := FetchMany(context.Background(), rack, nil); got != nil {
		t.Fatalf("FetchMany with no ids = %v", got)
	}
}

// failingBatchRV is a Backend whose FetchBatch fails wholesale, standing in
// for a batch whose transport died after the server may have drained.
type failingBatchRV struct{ *broker.Rack }

func (n failingBatchRV) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	return nil, errors.New("write tcp: broken pipe (simulated)")
}

// Fetch must never be called by FetchMany after a batch failure.
func (n failingBatchRV) Fetch(ctx context.Context, id string) ([][]byte, error) {
	panic("FetchMany re-fetched per item after a failed batch — this can swallow drained replies")
}
