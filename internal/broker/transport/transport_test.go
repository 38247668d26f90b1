package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/core"
)

type detReader struct{ rng *rand.Rand }

func (d *detReader) Read(p []byte) (int, error) { return d.rng.Read(p) }

func buildRaw(tb testing.TB, seed int64) ([]byte, *core.RequestPackage) {
	tb.Helper()
	built, err := core.BuildRequest(core.RequestSpec{
		Necessary: []attr.Attribute{attr.MustNew("interest", "chess")},
		Optional: []attr.Attribute{
			attr.MustNew("interest", "go"),
			attr.MustNew("interest", "shogi"),
		},
		MinOptional: 1,
	}, core.BuildOptions{
		Origin: "alice",
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

// exerciseEndToEnd drives the full operation set through a Mux.
func exerciseEndToEnd(t *testing.T, c *Mux) {
	t.Helper()
	raw, pkg := buildRaw(t, 1)
	id, err := c.Submit(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if id != pkg.ID {
		t.Fatalf("Submit id = %q, want %q", id, pkg.ID)
	}
	// Error propagation: duplicate submission surfaces the remote error text.
	if _, err := c.Submit(context.Background(), raw); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate submit error = %v, want remote duplicate error", err)
	}

	matcher, err := core.NewMatcher(attr.NewProfile(
		attr.MustNew("interest", "chess"),
		attr.MustNew("interest", "go"),
		attr.MustNew("interest", "shogi"),
	), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Sweep(context.Background(), broker.SweepQuery{
		Residues: []core.ResidueSet{matcher.ResidueSet(pkg.Prime)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bottles) != 1 || res.Bottles[0].ID != pkg.ID {
		t.Fatalf("Sweep = %d bottles, want the submitted one", len(res.Bottles))
	}

	reply := &core.Reply{RequestID: pkg.ID, From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}
	if err := c.Reply(context.Background(), pkg.ID, reply.Marshal()); err != nil {
		t.Fatal(err)
	}
	raws, err := c.Fetch(context.Background(), pkg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 1 {
		t.Fatalf("Fetch = %d replies, want 1", len(raws))
	}
	if got, err := core.UnmarshalReply(raws[0]); err != nil || got.From != "bob" {
		t.Fatalf("fetched reply mismatch: %v", err)
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Held != 1 || st.Totals.RepliesIn != 1 {
		t.Fatalf("Stats mismatch: %+v", st.Totals)
	}

	removed, err := c.Remove(context.Background(), pkg.ID)
	if err != nil || !removed {
		t.Fatalf("Remove = %v, %v; want true", removed, err)
	}
	removed, err = c.Remove(context.Background(), pkg.ID)
	if err != nil || removed {
		t.Fatalf("second Remove = %v, %v; want false", removed, err)
	}
}

// TestConcurrentClients exercises many clients over the pipe listener at
// once, one connection each; its value is under -race.
func TestConcurrentClients(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 8, ReapInterval: -1})
	defer rack.Close()
	l := ListenPipe()
	srv := NewServer(rack)
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()

	matcher, err := core.NewMatcher(attr.NewProfile(attr.MustNew("interest", "chess")), core.MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs := []core.ResidueSet{matcher.ResidueSet(core.DefaultPrime)}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := l.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			c, err := NewMux(conn)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				if w%2 == 0 {
					built, err := core.BuildRequest(
						core.PerfectMatch(attr.MustNew("interest", "chess")),
						core.BuildOptions{Rand: &detReader{rng: rng}})
					if err != nil {
						t.Error(err)
						return
					}
					raw, err := built.Package.Marshal()
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := c.Submit(context.Background(), raw); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Sweep(context.Background(), broker.SweepQuery{Residues: rs, Limit: 8}); err != nil {
						t.Error(err)
						return
					}
					if _, err := c.Stats(context.Background()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFrameLimits pins the frame-size bound on both sides of a connection:
// the read side refuses a length past MaxFrameSize before allocating for it,
// and the send side refuses a body no frame can carry before writing it,
// leaving the connection serving.
func TestFrameLimits(t *testing.T) {
	if _, _, _, _, err := readMuxFramePooled(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame err = %v, want ErrFrameTooLarge", err)
	}
	m, cleanup := newMuxPair(t)
	defer cleanup()
	if _, err := m.call(context.Background(), OpSubmit, make([]byte, MaxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatalf("call after a refused send: %v", err)
	}
}

// TestServerRefusesLockStep pins what a revision-5 lock-step peer sees: a
// Submit frame in that framing ([u32 length][u8 opcode][body]), sent bare,
// after a HELLO, or inside TLS, gets no response byte and then EOF, and
// nothing reaches the rack.
func TestServerRefusesLockStep(t *testing.T) {
	raw, _ := buildRaw(t, 1)
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(raw)))
	frame = append(append(frame, OpSubmit), raw...)
	var hello bytes.Buffer
	if err := writeHello(&hello, []byte("token")); err != nil {
		t.Fatal(err)
	}
	srvTLS, cliTLS := tlsPair(t, false)
	for _, tc := range []struct {
		name     string
		srv      ServerOptions
		cli      Options
		preamble []byte
	}{
		{"bare", ServerOptions{}, Options{}, nil},
		{"after hello", ServerOptions{}, Options{}, hello.Bytes()},
		{"over tls", srvTLS, cliTLS, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
			defer rack.Close()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("cannot listen on loopback: %v", err)
			}
			srv := NewServer(rack, tc.srv)
			go srv.Serve(l)
			defer func() { l.Close(); srv.Close() }()

			conn, err := dialNetConn(l.Addr().String(), tc.cli)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(append(append([]byte(nil), tc.preamble...), frame...)); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(conn)
			if err != nil || len(got) != 0 {
				t.Fatalf("server answered %d bytes, then %v; want none, then EOF", len(got), err)
			}
			if st, err := rack.Stats(context.Background()); err != nil || st.Totals.Submitted != 0 {
				t.Fatalf("rack Submitted = %d (%v), want 0", st.Totals.Submitted, err)
			}
		})
	}
}

func TestPipeListenerClose(t *testing.T) {
	l := ListenPipe()
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	if err := <-done; !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("Accept after Close = %v, want ErrPipeClosed", err)
	}
	if _, err := l.Dial(); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("Dial after Close = %v, want ErrPipeClosed", err)
	}
}
