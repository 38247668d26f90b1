package transport

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
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
			if _, _, _, err := readPeerFrame(br); err != nil {
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
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
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
		seq, status, body, err := readPeerFrame(br)
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
	for _, g := range goroutines() {
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

// goroutines returns every goroutine's traceback.
func goroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return strings.Split(string(buf[:n]), "\n\n")
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

// TestMuxRunsNoGoroutine pins that a Mux runs no goroutine of its own: none
// when idle, none beyond its callers under concurrent calls, and none after
// Close.
func TestMuxRunsNoGoroutine(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
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
	defer m.Close()
	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitLabelled(t, 0, "mux")

	const callers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	withLabel("mux", func() {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := m.Remove(ctx, "nope"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
	})
	waitLabelled(t, callers, "mux")
	for i := 0; i < 200; i++ {
		if n := labelled("mux"); n != callers {
			t.Errorf("a Mux under %d callers runs %d goroutines, want only the callers", callers, n)
			break
		}
	}
	close(stop)
	wg.Wait()
	waitLabelled(t, 0, "mux")
	m.Close()
	waitLabelled(t, 0, "mux")
}

// scriptedMux opens a Mux over one end of a pipe, reading the magic off the
// other, which the test then drives as the peer with readPeerFrame and
// writeMuxFrame. wrap, if set, wraps the Mux's end.
func scriptedMux(t *testing.T, wrap func(net.Conn) net.Conn, opts ...Options) (*Mux, net.Conn) {
	t.Helper()
	cli, peer := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	// A peer write nobody reads fails the test instead of hanging it.
	peer.SetWriteDeadline(time.Now().Add(10 * time.Second))
	magic := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(peer, make([]byte, 4))
		magic <- err
	}()
	var conn net.Conn = cli
	if wrap != nil {
		conn = wrap(cli)
	}
	m, err := NewMux(conn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := <-magic; err != nil {
		t.Fatal(err)
	}
	return m, peer
}

// muxOutcome is what one call returned.
type muxOutcome struct {
	body []byte
	err  error
}

// startCall runs one Fetch-opcode call (a scripted peer echoes whatever it
// likes) and returns where its outcome lands.
func startCall(m *Mux, ctx context.Context, id string) <-chan muxOutcome {
	out := make(chan muxOutcome, 1)
	go func() {
		body, err := m.call(ctx, OpFetch, []byte(id))
		out <- muxOutcome{body, err}
	}()
	return out
}

// peerRead reads the next request off the peer end and returns its
// sequence number.
func peerRead(t *testing.T, peer net.Conn) uint64 {
	t.Helper()
	seq, _, _, err := readPeerFrame(peer)
	if err != nil {
		t.Fatalf("peer reading a request: %v", err)
	}
	return seq
}

// waitHeld polls until somebody holds the Mux's read turn.
func waitHeld(t *testing.T, m *Mux) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(m.turn) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("nobody took the read turn")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitReading polls until the Mux's read-turn holder is blocked reading
// the connection.
func waitReading(t *testing.T, m *Mux) {
	t.Helper()
	hold := fmt.Sprintf("transport.(*Mux).hold(%p", m)
	deadline := time.Now().Add(10 * time.Second)
	for !goroutineWith("[select", "(*frameReader).next(", hold) && !goroutineWith("[IO wait", "(*frameReader).next(", hold) {
		if time.Now().After(deadline) {
			t.Fatal("the read-turn holder never blocked in a read")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// outcome waits for a call's outcome.
func outcome(t *testing.T, out <-chan muxOutcome, what string) muxOutcome {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no outcome", what)
		return muxOutcome{}
	}
}

// wantBody fails unless the call returned body.
func wantBody(t *testing.T, o muxOutcome, body, what string) {
	t.Helper()
	if o.err != nil || string(o.body) != body {
		t.Fatalf("%s = %q, %v; want %q", what, o.body, o.err, body)
	}
}

// wantAbandoned fails unless the call was abandoned for cause.
func wantAbandoned(t *testing.T, o muxOutcome, cause error, what string) {
	t.Helper()
	var ab *AbandonedError
	if !errors.As(o.err, &ab) || !errors.Is(o.err, cause) {
		t.Fatalf("%s = %q, %v; want abandoned for %v", what, o.body, o.err, cause)
	}
}

// oneByteConn hands out at most one byte per Read and counts them.
type oneByteConn struct {
	net.Conn
	read atomic.Int64
}

func (c *oneByteConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p[:min(len(p), 1)])
	c.read.Add(int64(n))
	return n, err
}

// waitRead polls until a conn has handed out at least n bytes.
func waitRead(t *testing.T, read *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for read.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("read %d bytes, want %d", read.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMuxHolderCanceledMidFrame cancels the read-turn holder's context
// after it has read k bytes of another caller's response, for every k
// inside the frame, one byte per read: the holder must give up only its own
// call, and whoever reads next (a drain, as the holder's own response is
// still due) must resume the frame where the holder stopped.
func TestMuxHolderCanceledMidFrame(t *testing.T) {
	var conn *oneByteConn
	m, peer := scriptedMux(t, func(c net.Conn) net.Conn {
		conn = &oneByteConn{Conn: c}
		return conn
	})
	for k := 0; k < len(appendMuxFrame(nil, 0, statusOK, []byte("payload"))); k++ {
		ctx, cancel := context.WithCancel(context.Background())
		holder := startCall(m, ctx, "holder")
		peerRead(t, peer)
		waitHeld(t, m)
		waiter := startCall(m, context.Background(), "waiter")
		resp := appendMuxFrame(nil, peerRead(t, peer), statusOK, []byte("payload"))
		before := conn.read.Load()
		if _, err := peer.Write(resp[:k]); err != nil {
			t.Fatal(err)
		}
		waitRead(t, &conn.read, before+int64(k))
		cancel()
		wantAbandoned(t, outcome(t, holder, "holder"), context.Canceled, fmt.Sprintf("cut at %d: holder", k))
		if _, err := peer.Write(resp[k:]); err != nil {
			t.Fatal(err)
		}
		wantBody(t, outcome(t, waiter, "waiter"), "payload", fmt.Sprintf("cut at %d: waiter", k))
	}
}

// captureConn diverts writes into buf while capture is set, so a test can
// put a TLS record on the wire in pieces of its choosing.
type captureConn struct {
	net.Conn
	capture bool
	buf     []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	if c.capture {
		c.buf = append(c.buf, p...)
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestMuxHolderCanceledMidRecordOverTLS is the hand-over under TLS: the
// holder is cut off inside the TLS record that carries the waiter's
// response, which crypto/tls must resume for whoever reads next.
func TestMuxHolderCanceledMidRecordOverTLS(t *testing.T) {
	srvOpts, cliOpts := tlsPair(t, false)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	type accepted struct {
		raw  *captureConn
		conn *tls.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			acc <- accepted{err: err}
			return
		}
		raw := &captureConn{Conn: c}
		tc := tls.Server(raw, srvOpts.TLS)
		if _, err := io.ReadFull(tc, make([]byte, 4)); err != nil {
			c.Close()
			acc <- accepted{err: err}
			return
		}
		acc <- accepted{raw: raw, conn: tc}
	}()
	tcp, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	counted := &oneByteConn{Conn: tcp}
	cfg := cliOpts.TLS.Clone()
	cfg.ServerName = "127.0.0.1"
	m, err := NewMux(tls.Client(counted, cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	defer a.conn.Close()
	peer := a.conn

	// A first exchange takes the post-handshake messages off the wire.
	first := startCall(m, context.Background(), "first")
	if err := writeMuxFrame(peer, peerRead(t, peer), statusOK, []byte("first")); err != nil {
		t.Fatal(err)
	}
	wantBody(t, outcome(t, first, "first call"), "first", "first call")

	for _, cut := range []int{1, 4, 5, 6, -8, -1} {
		ctx, cancel := context.WithCancel(context.Background())
		holder := startCall(m, ctx, "holder")
		peerRead(t, peer)
		waitHeld(t, m)
		waiter := startCall(m, context.Background(), "waiter")
		seq := peerRead(t, peer)
		a.raw.capture = true
		err := writeMuxFrame(peer, seq, statusOK, []byte("payload"))
		a.raw.capture = false
		if err != nil {
			t.Fatal(err)
		}
		record := a.raw.buf
		a.raw.buf = nil
		k := cut
		if k < 0 {
			k += len(record)
		}
		before := counted.read.Load()
		if _, err := a.raw.Conn.Write(record[:k]); err != nil {
			t.Fatal(err)
		}
		waitRead(t, &counted.read, before+int64(k))
		cancel()
		wantAbandoned(t, outcome(t, holder, "holder"), context.Canceled, fmt.Sprintf("cut at %d of %d: holder", k, len(record)))
		if _, err := a.raw.Conn.Write(record[k:]); err != nil {
			t.Fatal(err)
		}
		wantBody(t, outcome(t, waiter, "waiter"), "payload", fmt.Sprintf("cut at %d of %d: waiter", k, len(record)))
	}
}

// staleInterruptConn holds one SetReadDeadline call with a past deadline
// (a context's interrupt) until released, once armed, and then reports the
// first future deadline set after it (a holder's re-arm).
type staleInterruptConn struct {
	net.Conn
	arm     atomic.Bool
	held    chan struct{}
	release chan struct{}
	fired   atomic.Bool
	rearmed chan struct{}
}

func (c *staleInterruptConn) SetReadDeadline(d time.Time) error {
	switch {
	case d.IsZero():
	case d.Before(time.Now()):
		if c.arm.CompareAndSwap(true, false) {
			close(c.held)
			<-c.release
			defer c.fired.Store(true)
		}
	case c.fired.CompareAndSwap(true, false):
		defer close(c.rearmed)
	}
	return c.Conn.SetReadDeadline(d)
}

// TestMuxStaleInterruptKeepsNextHolder lets a holder's context end while its
// response is on the way, and holds the interrupt back until a second
// caller holds the turn: that caller's read then times out for nothing, and
// it must re-arm and read on — neither failing the connection nor
// abandoning its call.
func TestMuxStaleInterruptKeepsNextHolder(t *testing.T) {
	var conn *staleInterruptConn
	m, peer := scriptedMux(t, func(c net.Conn) net.Conn {
		conn = &staleInterruptConn{Conn: c, held: make(chan struct{}), release: make(chan struct{}), rearmed: make(chan struct{})}
		return conn
	}, Options{CallTimeout: 10 * time.Second})
	conn.arm.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := startCall(m, ctx, "first")
	seq := peerRead(t, peer)
	waitReading(t, m)
	cancel()
	<-conn.held
	if err := writeMuxFrame(peer, seq, statusOK, []byte("first")); err != nil {
		t.Fatal(err)
	}
	wantBody(t, outcome(t, first, "first call"), "first", "first call, its context ended after it was answered")

	second := startCall(m, context.Background(), "second")
	seq = peerRead(t, peer)
	waitReading(t, m)
	close(conn.release)
	select {
	case <-conn.rearmed:
	case <-time.After(10 * time.Second):
		t.Fatal("the holder never re-armed after the stale interrupt")
	}
	select {
	case o := <-second:
		t.Fatalf("second call ended before its answer: %q, %v", o.body, o.err)
	default:
	}
	if err := writeMuxFrame(peer, seq, statusOK, []byte("second")); err != nil {
		t.Fatal(err)
	}
	wantBody(t, outcome(t, second, "second call"), "second", "second call under a stale interrupt")
}

// TestMuxHolderLeavesNoneStranded answers the holder first, together with
// some of the waiters in the same write, and the other waiters in a later
// write: the holder must hand on the frames it already has and pass the
// turn for the rest.
func TestMuxHolderLeavesNoneStranded(t *testing.T) {
	m, peer := scriptedMux(t, nil)
	const waiters = 8
	holder := startCall(m, context.Background(), "holder")
	holderSeq := peerRead(t, peer)
	waitHeld(t, m)
	outs := make(map[uint64]<-chan muxOutcome)
	for i := 0; i < waiters; i++ {
		out := startCall(m, context.Background(), "waiter")
		outs[peerRead(t, peer)] = out
	}
	var seqs []uint64
	for seq := range outs {
		seqs = append(seqs, seq)
	}
	burst := appendMuxFrame(nil, holderSeq, statusOK, []byte("holder"))
	for _, seq := range seqs[:waiters/2] {
		burst = appendMuxFrame(burst, seq, statusOK, []byte(fmt.Sprint(seq)))
	}
	if _, err := peer.Write(burst); err != nil {
		t.Fatal(err)
	}
	wantBody(t, outcome(t, holder, "holder"), "holder", "holder")
	var rest []byte
	for _, seq := range seqs[waiters/2:] {
		rest = appendMuxFrame(rest, seq, statusOK, []byte(fmt.Sprint(seq)))
	}
	if _, err := peer.Write(rest); err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		wantBody(t, outcome(t, outs[seq], "waiter"), fmt.Sprint(seq), fmt.Sprintf("waiter %d", seq))
	}
}

// TestMuxHolderTimeoutAbandonsOnlyItsCall leaves the holder's request
// unanswered while another caller's is answered halfway through the
// holder's wait: at its per-call deadline the holder abandons its own call
// alone, since a frame arrived less than a CallTimeout before, and the
// connection keeps serving — dropping the holder's late response and
// answering the next call.
func TestMuxHolderTimeoutAbandonsOnlyItsCall(t *testing.T) {
	const timeout = 500 * time.Millisecond
	m, peer := scriptedMux(t, nil, Options{CallTimeout: timeout})
	holder := startCall(m, context.Background(), "holder")
	holderSeq := peerRead(t, peer)
	waitHeld(t, m)
	other := startCall(m, context.Background(), "other")
	time.Sleep(timeout / 2)
	if err := writeMuxFrame(peer, peerRead(t, peer), statusOK, []byte("other")); err != nil {
		t.Fatal(err)
	}
	wantBody(t, outcome(t, other, "other call"), "other", "other call")
	wantAbandoned(t, outcome(t, holder, "holder"), ErrCallTimeout, "unanswered holder")

	next := startCall(m, context.Background(), "next")
	nextSeq := peerRead(t, peer)
	late := appendMuxFrame(nil, holderSeq, statusOK, []byte("late"))
	if _, err := peer.Write(appendMuxFrame(late, nextSeq, statusOK, []byte("next"))); err != nil {
		t.Fatal(err)
	}
	wantBody(t, outcome(t, next, "next call"), "next", "next call after the abandonment")
}

// TestMuxAbandonedResponseIsDrained gives up on a call while its response
// is on the way over an unbuffered pipe, and only then lets the peer write
// that response, before it reads the next request. Somebody must read the
// late response: a peer blocked writing it reads no more, and the next
// call would block writing its request. The call given up on is the read-turn
// holder in one case, and a waiter, abandoned while another call holds the
// turn, in the other.
func TestMuxAbandonedResponseIsDrained(t *testing.T) {
	for _, role := range []string{"holder", "waiter"} {
		t.Run(role, func(t *testing.T) {
			m, peer := scriptedMux(t, nil, Options{CallTimeout: 10 * time.Second})
			peer.SetWriteDeadline(time.Now().Add(2 * time.Second))
			var holder <-chan muxOutcome
			var holderSeq uint64
			if role == "waiter" {
				holder = startCall(m, context.Background(), "holder")
				holderSeq = peerRead(t, peer)
				waitReading(t, m)
			}
			ctx, cancel := context.WithCancel(context.Background())
			gaveUp := startCall(m, ctx, "gave up")
			seq := peerRead(t, peer)
			if role == "holder" {
				waitReading(t, m)
			} else {
				waitParked(t, m)
			}
			cancel()
			wantAbandoned(t, outcome(t, gaveUp, "call given up on"), context.Canceled, "call given up on")
			if holder != nil {
				if err := writeMuxFrame(peer, holderSeq, statusOK, []byte("holder")); err != nil {
					t.Fatal(err)
				}
				wantBody(t, outcome(t, holder, "holder"), "holder", "holder")
			}
			if err := writeMuxFrame(peer, seq, statusOK, []byte("late")); err != nil {
				t.Fatalf("peer writing the late response: %v", err)
			}
			next := startCall(m, context.Background(), "next")
			if err := writeMuxFrame(peer, peerRead(t, peer), statusOK, []byte("next")); err != nil {
				t.Fatal(err)
			}
			wantBody(t, outcome(t, next, "next call"), "next", "next call after the late response")
		})
	}
}

// TestMuxAbandonRacingRelease cancels a waiting call just before the
// read-turn holder's response arrives, so the waiter gives up around the
// moment the holder puts the turn back, and may find it free. However that
// race goes, the abandoned call's late response must be read.
func TestMuxAbandonRacingRelease(t *testing.T) {
	m, peer := scriptedMux(t, nil)
	for i := 0; i < 200; i++ {
		holder := startCall(m, context.Background(), "holder")
		holderSeq := peerRead(t, peer)
		waitReading(t, m)
		ctx, cancel := context.WithCancel(context.Background())
		waiter := startCall(m, ctx, "waiter")
		waiterSeq := peerRead(t, peer)
		waitParked(t, m)
		cancel()
		peer.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if err := writeMuxFrame(peer, holderSeq, statusOK, []byte("holder")); err != nil {
			t.Fatal(err)
		}
		wantBody(t, outcome(t, holder, "holder"), "holder", "holder")
		wantAbandoned(t, outcome(t, waiter, "waiter"), context.Canceled, "waiter")
		if err := writeMuxFrame(peer, waiterSeq, statusOK, []byte("late")); err != nil {
			t.Fatalf("round %d: peer writing the late response: %v", i, err)
		}
	}
	next := startCall(m, context.Background(), "next")
	if err := writeMuxFrame(peer, peerRead(t, peer), statusOK, []byte("next")); err != nil {
		t.Fatal(err)
	}
	wantBody(t, outcome(t, next, "next call"), "next", "next call after the races")
}

// waitParked polls until a caller of the Mux is blocked waiting for its
// response or the read turn, not holding the turn.
func waitParked(t *testing.T, m *Mux) {
	t.Helper()
	wait := fmt.Sprintf("transport.(*Mux).wait(%p", m)
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, g := range goroutines() {
			if strings.Contains(g, "[select") && strings.Contains(g, wait) && !strings.Contains(g, "(*Mux).hold(") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no caller parked waiting")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMuxAbandonStormOnPipe runs callers whose contexts end at random
// points of their calls against a peer that answers each request before it
// reads the next, over an unbuffered pipe, as the server answers its
// inline opcodes. Whoever gives up, at whatever point, every response must
// still be read, so no call may stall and the connection must stay usable.
func TestMuxAbandonStormOnPipe(t *testing.T) {
	m, peer := scriptedMux(t, nil, Options{CallTimeout: 10 * time.Second})
	go func() {
		for {
			seq, _, body, err := readPeerFrame(peer)
			if err != nil {
				return
			}
			if writeMuxFrame(peer, seq, statusOK, body) != nil {
				return
			}
		}
	}()
	const callers, calls = 2, 1000
	var wg sync.WaitGroup
	var abandoned atomic.Int64
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				id := fmt.Sprintf("%d/%d", i, j)
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration((i*calls+j)%11)*15*time.Microsecond)
				start := time.Now()
				body, err := m.call(ctx, OpFetch, []byte(id))
				cancel()
				var ab *AbandonedError
				switch {
				case time.Since(start) > 2*time.Second:
					errs <- fmt.Errorf("call %s took %v", id, time.Since(start))
					return
				case err == nil && string(body) != id:
					errs <- fmt.Errorf("call %s answered %q", id, body)
					return
				case err != nil && errors.As(err, &ab):
					abandoned.Add(1)
				case err != nil:
					errs <- fmt.Errorf("call %s: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d of %d calls abandoned", abandoned.Load(), callers*calls)
	next := startCall(m, context.Background(), "after")
	wantBody(t, outcome(t, next, "call after the storm"), "after", "call after the storm")
}

// TestMuxCallTimeout proves a dead peer fails in-flight calls with
// ErrCallTimeout instead of hanging them forever: with no frame at all in
// CallTimeout the whole connection fails, not just the call. It must, too,
// when the caller waits behind a drain that reads for an abandoned call
// rather than holding the read turn itself.
func TestMuxCallTimeout(t *testing.T) {
	for _, behindDrain := range []bool{false, true} {
		t.Run(fmt.Sprintf("behindDrain=%v", behindDrain), func(t *testing.T) {
			m, peer := scriptedMux(t, nil, Options{CallTimeout: 100 * time.Millisecond})
			if behindDrain {
				ctx, cancel := context.WithCancel(context.Background())
				gaveUp := startCall(m, ctx, "gave up")
				peerRead(t, peer)
				waitReading(t, m)
				cancel()
				wantAbandoned(t, outcome(t, gaveUp, "call given up on"), context.Canceled, "call given up on")
			}
			silent := startCall(m, context.Background(), "silent")
			peerRead(t, peer)
			err := outcome(t, silent, "call against a silent peer").err
			var ab *AbandonedError
			if !errors.Is(err, ErrCallTimeout) || errors.As(err, &ab) {
				t.Fatalf("call against silent peer = %v, want the connection failed with ErrCallTimeout", err)
			}
			// The connection is failed; further calls error immediately.
			if _, again := m.Stats(context.Background()); again != err {
				t.Fatalf("call on failed connection = %v, want %v", again, err)
			}
		})
	}
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
	rack := broker.New(broker.Config{Shards: 4, ReapInterval: -1})
	defer rack.Close()
	rep := &gatedReplica{fakeReplica: newFakeReplica(), gate: make(chan struct{})}
	// A failed run must not leave its held requests blocked for the next
	// run, whose count they would join.
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(rep.gate) }) }
	t.Cleanup(openGate)
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
	// One profile read has been seen to miss workers that a stack dump
	// and a second read just after both show: poll.
	waitLabelled(t, 1+maxInflight, "server")
	openGate()
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
	waitLabelled(t, 1+maxInflight, "server")
	m.Close()
	waitLabelled(t, 0, "server")
}
