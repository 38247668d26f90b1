package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sealedbottle/internal/broker"
)

// Invariants of the goroutine-free round trip: callers write their own
// frames through the combining writer, the server answers inline requests
// on its read loop and heavy ones on workers it keeps. Each test here fails
// against a writer that strands a frame, flushes per response, spawns a
// goroutine to write, or spawns workers past MaxInflight.

// TestMuxCallsAllAnswered runs rounds of N concurrent callers on one Mux,
// inline and heavy opcodes mixed. Nobody sends again until the whole round
// is answered, so a frame left in the writer's queue would hang its round.
func TestMuxCallsAllAnswered(t *testing.T) {
	m, cleanup := newMuxPair(t)
	defer cleanup()
	const callers, rounds = 16, 60
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				var err error
				switch c % 3 {
				case 0:
					_, err = m.Stats(ctx)
				case 1:
					if _, err = m.Fetch(ctx, fmt.Sprintf("nope-%d-%d", round, c)); errors.Is(err, broker.ErrUnknownBottle) {
						err = nil
					}
				default:
					_, err = m.Remove(ctx, "nope")
				}
				if err != nil {
					t.Errorf("round %d caller %d: %v", round, c, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// failingConn fails every Write once fail is set.
type failingConn struct {
	net.Conn
	fail atomic.Bool
}

var errInjectedWrite = errors.New("injected write failure")

func (c *failingConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errInjectedWrite
	}
	return c.Conn.Write(p)
}

// TestMuxWriteFailureFailsPendingCalls parks calls on a peer that reads
// requests and never answers, then makes the connection's writes fail: the
// next call's write failure must fail every pending call with that error.
func TestMuxWriteFailureFailsPendingCalls(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	read := make(chan struct{}, 64)
	go func() {
		br := bufio.NewReader(srv)
		if _, err := io.ReadFull(br, make([]byte, 4)); err != nil {
			return
		}
		for {
			if _, _, _, err := readMuxFrame(br); err != nil {
				return
			}
			read <- struct{}{}
		}
	}()
	conn := &failingConn{Conn: cli}
	m, err := NewMux(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const pending = 8
	errs := make(chan error, pending+1)
	call := func() {
		_, err := m.Remove(context.Background(), "x")
		errs <- err
	}
	for i := 0; i < pending; i++ {
		go call()
	}
	for i := 0; i < pending; i++ {
		select {
		case <-read:
		case <-time.After(10 * time.Second):
			t.Fatalf("peer read %d of %d requests", i, pending)
		}
	}
	conn.fail.Store(true)
	go call()
	for i := 0; i < pending+1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errInjectedWrite) {
				t.Errorf("call %d: %v, want the write failure", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d calls still pending after the write failure", pending+1-i, pending+1)
		}
	}
}

// countingConn counts Write calls.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServerAnswersBurstInTwoWrites sends K inline requests in one write and
// counts the server's writes: the read loop must hold its answers until the
// burst is read and then flush them together.
func TestServerAnswersBurstInTwoWrites(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 4, Workers: 2, ReapInterval: -1})
	defer rack.Close()
	srv := NewServer(rack)
	defer srv.Close()
	cli, srvEnd := net.Pipe()
	defer cli.Close()
	counted := &countingConn{Conn: srvEnd}
	go srv.serveConn(counted)

	const k = 32
	var burst []byte
	burst = append(burst, 0x53, 0x42, 0x4D, 0x31) // MuxMagic
	for i := 0; i < k; i++ {
		burst = appendMuxFrame(burst, uint64(i+1), OpRemove, []byte(fmt.Sprintf("nope-%d", i)))
	}
	if _, err := cli.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(cli)
	for i := 0; i < k; i++ {
		seq, status, body, err := readMuxFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if status != statusOK || !bytes.Equal(body, []byte{0}) || seq == 0 || seq > k {
			t.Fatalf("response %d: seq %d status %d body %v", i, seq, status, body)
		}
	}
	if n := counted.writes.Load(); n > 2 {
		t.Fatalf("a burst of %d inline requests was answered in %d writes, want ≤ 2", k, n)
	}
}

// labelled counts the goroutines carrying the pprof label invariant=value;
// goroutines inherit their creator's labels, so it counts what a labelled
// goroutine started, transitively.
func labelled(value string) int {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 1)
	n := 0
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, `"invariant":"`+value+`"`) {
			continue
		}
		rec = rec[strings.LastIndex(rec[:strings.Index(rec, " @ ")], "\n")+1:]
		var c int
		fmt.Sscanf(rec, "%d @", &c)
		n += c
	}
	return n
}

// goroutineWith reports whether some goroutine's traceback, wait state
// included, contains every one of parts.
func goroutineWith(parts ...string) bool {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		all := true
		for _, p := range parts {
			all = all && strings.Contains(g, p)
		}
		if all {
			return true
		}
	}
	return false
}

// withLabel runs f on the calling goroutine under the label invariant=value.
func withLabel(value string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("invariant", value), func(context.Context) { f() })
}

// waitLabelled polls until exactly want goroutines carry the label.
func waitLabelled(t *testing.T, want int, value string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for labelled(value) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines labelled %s, want %d", labelled(value), value, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxRunsOneGoroutine pins that a Mux's only goroutine is its read loop,
// idle and under concurrent calls alike, and that it is gone after Close.
func TestMuxRunsOneGoroutine(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 4, Workers: 2, ReapInterval: -1})
	defer rack.Close()
	srv := NewServer(rack)
	defer srv.Close()
	cli, srvEnd := net.Pipe()
	go srv.serveConn(srvEnd)
	var m *Mux
	var err error
	withLabel("mux", func() { m, err = NewMux(cli) })
	if err != nil {
		t.Fatal(err)
	}
	waitLabelled(t, 1, "mux")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Remove(context.Background(), "nope"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if n := labelled("mux"); n != 1 {
			t.Errorf("a Mux under load runs %d goroutines, want 1", n)
			break
		}
	}
	close(stop)
	wg.Wait()
	m.Close()
	waitLabelled(t, 0, "mux")
}

// gatedReplica holds every Hint until the gate is closed.
type gatedReplica struct {
	*fakeReplica
	gate chan struct{}
}

func (g *gatedReplica) Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	<-g.gate
	return g.fakeReplica.Hint(ctx, dest, recs)
}

// TestServerConnectionGoroutinesBounded holds heavy requests inside the
// rack so they pile up past MaxInflight: the connection must then run its
// read loop plus exactly MaxInflight workers, keep them (and no more) for
// later requests, and leave none behind once the connection closes.
func TestServerConnectionGoroutinesBounded(t *testing.T) {
	const maxInflight = 3
	rack := broker.New(broker.Config{Shards: 4, Workers: 2, ReapInterval: -1})
	defer rack.Close()
	rep := &gatedReplica{fakeReplica: newFakeReplica(), gate: make(chan struct{})}
	srv := NewServer(rack, ServerOptions{MaxInflight: maxInflight, Replica: rep})
	defer srv.Close()
	cli, srvEnd := net.Pipe()
	withLabel("server", func() { go srv.serveConn(srvEnd) })
	m, err := NewMux(cli)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const held = 4 * maxInflight
	errs := make(chan error, held)
	for i := 0; i < held; i++ {
		go func() {
			_, err := m.Hint(context.Background(), "peer", nil)
			errs <- err
		}()
	}
	// Once the read loop waits to hand a request over, nothing more can be
	// spawned until the gate opens.
	readLoopHeld := fmt.Sprintf("transport.(*Server).serveMux(%p", srv)
	deadline := time.Now().Add(10 * time.Second)
	for !goroutineWith("[chan send", readLoopHeld) {
		if time.Now().After(deadline) {
			t.Fatal("the read loop never waited for a worker")
		}
		time.Sleep(time.Millisecond)
	}
	if n := labelled("server"); n != 1+maxInflight {
		t.Fatalf("connection runs %d goroutines with %d heavy requests held, want %d", n, held, 1+maxInflight)
	}
	close(rep.gate)
	for i := 0; i < held; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := m.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := labelled("server"); n != 1+maxInflight {
		t.Fatalf("connection runs %d goroutines after its workers went idle, want %d kept", n, 1+maxInflight)
	}
	m.Close()
	waitLabelled(t, 0, "server")
}
