package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Multiplexed ("pipelined") framing. A client that wants many in-flight
// requests on one connection opens it with the 4-byte magic MuxMagic; every
// subsequent frame in both directions is
//
//	[4-byte big-endian length][8-byte big-endian sequence][1-byte tag][body]
//
// where length counts the sequence, tag and body (so length >= muxHeaderSize)
// and is bounded by MaxFrameSize. The tag is an opcode on requests and a
// status byte on responses; the server echoes the request's sequence number on
// its response, and may answer out of order. The server closes a connection
// that does not open with the magic.
//
// Both ends write frames through a combining writer with no goroutine of its
// own: the goroutine that produced a frame writes it, together with every
// frame queued meanwhile by senders that found the write lock taken, and
// flushes once — so under pipelined load many frames ride one syscall, and
// on loopback this, not I/O overlap, is most of the throughput win.
//
// The client reads with no goroutine either: a waiting caller takes the
// connection's one read turn, reads frames, hands other callers' responses
// to their channels and returns with its own, passing the turn on. A
// response thus costs one wake-up, of the goroutine that needs it, and the
// dead-peer deadline is kept by whoever holds the turn. Only while a
// response is due to a caller that gave up does a short-lived goroutine
// hold the turn when no caller does (see drain).

// MuxMagic is the preamble every connection opens with ("SBM1").
const MuxMagic uint32 = 0x53424D31

// muxHeaderSize is the sequence + tag prefix counted by a mux frame's length.
const muxHeaderSize = 9

// muxBufferSize sizes the buffered reader and writer on multiplexed
// connections. Frames routinely carry ~1 KiB request packages; bufio's 4 KiB
// default would flush or refill every few frames of a pipelined burst,
// forfeiting most of the coalescing win.
const muxBufferSize = 64 << 10

// Errors of the multiplexed client.
var (
	// ErrCallTimeout indicates a call that did not complete within the
	// configured CallTimeout. Two distinct situations wrap it, and the error
	// text says which: a per-call timeout arrives inside an AbandonedError —
	// only that call is abandoned, the multiplexed connection keeps serving —
	// while a progress-deadline expiry (no response frame at all while calls
	// were pending: a dead peer) fails the whole connection, and pooled
	// callers should recycle it.
	ErrCallTimeout = errors.New("transport: call timed out")
	// ErrClientClosed indicates a call attempted on a closed client.
	ErrClientClosed = errors.New("transport: client closed")
)

// appendMuxFrame appends one sequence-tagged frame.
func appendMuxFrame(buf []byte, seq uint64, tag byte, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)+muxHeaderSize))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, tag)
	return append(buf, body...)
}

// muxBufs pools encoded-frame and read-side buffers so the steady-state mux
// path allocates nothing per frame. Ownership is single-holder: whoever Got
// the buffer either hands it (whole, via the writer queue) to the one
// write-lock holder that will Put it, or Puts it itself; a buffer is never
// Put while any view into it is still live. Buffers that grew past
// maxPooledMuxBuf are dropped instead of pooled so one jumbo frame does not
// pin megabytes.
var muxBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledMuxBuf = 256 << 10

func putMuxBuf(buf *[]byte) {
	if cap(*buf) > maxPooledMuxBuf {
		return
	}
	*buf = (*buf)[:0]
	muxBufs.Put(buf)
}

// newMuxFrame encodes one sequence-tagged frame into a pooled buffer. The
// caller owns the buffer and must route it to exactly one putMuxBuf — via the
// combining writer (which recycles after writing) or directly.
func newMuxFrame(seq uint64, tag byte, body []byte) *[]byte {
	f := muxBufs.Get().(*[]byte)
	*f = appendMuxFrame((*f)[:0], seq, tag, body)
	return f
}

// readMuxFramePooled reads one sequence-tagged frame into a pooled buffer.
// body aliases the returned buffer; the caller must putMuxBuf it once the
// body is dead — the server request loop can, because every rack operation
// copies what it retains before dispatch returns (the codec's documented
// copy-on-retain boundary).
func readMuxFramePooled(r io.Reader) (seq uint64, tag byte, body []byte, buf *[]byte, err error) {
	// The length prefix is read into the pooled buffer too: a local [4]byte
	// would escape through the io.Reader interface and cost the one
	// allocation this path exists to avoid.
	buf = muxBufs.Get().(*[]byte)
	if cap(*buf) < 4 {
		*buf = make([]byte, 4, muxHeaderSize+1024)
	}
	*buf = (*buf)[:4]
	if _, err := io.ReadFull(r, *buf); err != nil {
		putMuxBuf(buf)
		return 0, 0, nil, nil, err
	}
	size := binary.BigEndian.Uint32(*buf)
	if size < muxHeaderSize {
		putMuxBuf(buf)
		return 0, 0, nil, nil, ErrShortFrame
	}
	if size > MaxFrameSize {
		putMuxBuf(buf)
		return 0, 0, nil, nil, ErrFrameTooLarge
	}
	if cap(*buf) < int(size) {
		*buf = make([]byte, size)
	}
	*buf = (*buf)[:size]
	if _, err := io.ReadFull(r, *buf); err != nil {
		putMuxBuf(buf)
		return 0, 0, nil, nil, err
	}
	b := *buf
	return binary.BigEndian.Uint64(b[:8]), b[8], b[muxHeaderSize:], buf, nil
}

// muxWriter is the combining frame writer shared by the mux client and the
// server's mux connections. It runs no goroutine: a sender queues its pooled
// frame, and whoever then wins the write lock writes every queued frame and
// flushes once. A sender that finds the lock taken returns at once, its frame
// riding the holder's write, so only the holder can be held up by write(2),
// for at most the write deadline; the holder checks the queue again after
// unlocking, so no frame is left behind. Each sending goroutine has at most
// one frame queued, which bounds the queue. The holder recycles every frame
// it writes (or skips, after a failure); onErr is invoked once, on the first
// write failure.
type muxWriter struct {
	conn     net.Conn
	deadline func() time.Time
	onErr    func(error)

	qmu   sync.Mutex // guards queue
	queue []*[]byte

	mu     sync.Mutex // the write lock, taken only with TryLock; guards the rest
	bw     *bufio.Writer
	batch  []*[]byte // the holder's half of the queue swap
	failed bool
}

func newMuxWriter(conn net.Conn, deadline func() time.Time, onErr func(error)) *muxWriter {
	return &muxWriter{conn: conn, deadline: deadline, onErr: onErr, bw: bufio.NewWriterSize(conn, muxBufferSize)}
}

// send queues a pooled frame, whose ownership passes to the writer, and then
// pushes. flush false leaves what is written in the buffer for a later push:
// the server's read loop answers a pipelined burst that way and flushes
// before it would block in a read.
func (w *muxWriter) send(frame *[]byte, flush bool) {
	w.qmu.Lock()
	w.queue = append(w.queue, frame)
	w.qmu.Unlock()
	w.push(flush)
}

// push writes the queued frames if it wins the write lock, flushing unless
// told not to, and repeats while it finds frames queued after it unlocked.
// If the lock is taken it returns at once: the holder will see the queue.
func (w *muxWriter) push(flush bool) {
	for w.mu.TryLock() {
		w.qmu.Lock()
		w.batch, w.queue = w.queue, w.batch[:0]
		w.qmu.Unlock()
		w.write(flush)
		w.mu.Unlock()
		w.qmu.Lock()
		idle := len(w.queue) == 0
		w.qmu.Unlock()
		if idle {
			return
		}
	}
}

// write copies the batch into the buffer and recycles its frames, then
// flushes if asked. The caller holds the write lock.
func (w *muxWriter) write(flush bool) {
	if !w.failed && (len(w.batch) > 0 || flush && w.bw.Buffered() > 0) {
		if d := w.deadline(); !d.IsZero() {
			w.conn.SetWriteDeadline(d)
		}
	}
	for i, f := range w.batch {
		if !w.failed {
			if _, err := w.bw.Write(*f); err != nil {
				w.fail(err)
			}
		}
		putMuxBuf(f)
		w.batch[i] = nil
	}
	if flush && !w.failed && w.bw.Buffered() > 0 {
		if err := w.bw.Flush(); err != nil {
			w.fail(err)
		}
	}
}

// fail records the first write failure. The caller holds the write lock.
func (w *muxWriter) fail(err error) {
	w.failed = true
	w.onErr(err)
}

// muxResult is one demuxed response.
type muxResult struct {
	status byte
	body   []byte
}

// frameReader decodes response frames resumably: the length prefix and the
// frame read so far live here, not on a reader's stack, so a read cut off
// by a deadline at any byte is picked up intact by whoever reads next. Each
// frame gets a fresh buffer whose ownership passes to the caller it
// answers, because callers' zero-copy decodes alias response bodies
// indefinitely.
type frameReader struct {
	br    *bufio.Reader
	size  [4]byte // the length prefix
	sizeN int     // length-prefix bytes read
	frame []byte  // the frame after its length prefix, once that is known
	n     int     // frame bytes read
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, muxBufferSize)}
}

// next continues the frame in progress and returns it once it is whole
// (ok). With block false it takes only what the buffer already holds,
// never reading the connection, and returns !ok when that runs out. A
// failed read leaves the partial frame in place, so after a deadline the
// next call resumes it.
func (fr *frameReader) next(block bool) (seq uint64, status byte, body []byte, ok bool, err error) {
	for fr.sizeN < len(fr.size) {
		n, err := fr.read(fr.size[fr.sizeN:], block)
		fr.sizeN += n
		if err != nil || n == 0 && !block {
			return 0, 0, nil, false, err
		}
	}
	if fr.frame == nil {
		size := binary.BigEndian.Uint32(fr.size[:])
		if size < muxHeaderSize {
			return 0, 0, nil, false, ErrShortFrame
		}
		if size > MaxFrameSize {
			return 0, 0, nil, false, ErrFrameTooLarge
		}
		fr.frame = make([]byte, size)
	}
	for fr.n < len(fr.frame) {
		n, err := fr.read(fr.frame[fr.n:], block)
		fr.n += n
		if err != nil || n == 0 && !block {
			return 0, 0, nil, false, err
		}
	}
	f := fr.frame
	fr.sizeN, fr.frame, fr.n = 0, nil, 0
	return binary.BigEndian.Uint64(f[:8]), f[8], f[muxHeaderSize:], true, nil
}

// read reads into p; unless block, only from what is already buffered.
func (fr *frameReader) read(p []byte, block bool) (int, error) {
	if !block {
		n := fr.br.Buffered()
		if n == 0 {
			return 0, nil
		}
		p = p[:min(len(p), n)]
	}
	return fr.br.Read(p)
}

// Mux speaks the multiplexed framing over one connection and runs no
// goroutine but a drain's: callers write their own request frames and,
// holding the read turn, read the responses (see hold), so the goroutine
// the netpoller wakes is the one that needs the bytes. Any number of calls
// may be in flight concurrently. All methods are safe for concurrent use; a
// connection-level failure fails every in-flight and future call.
type Mux struct {
	conn      net.Conn
	opts      Options
	writer    *muxWriter
	interrupt func() // sets a past read deadline, cutting the holder's read short

	// turn holds the read turn while nobody reads: a waiting caller takes
	// it to become the holder and puts it back when it leaves.
	turn chan struct{}
	fr   *frameReader // touched only by whoever holds the turn

	mu        sync.Mutex // guards the fields below
	seq       uint64
	pending   map[uint64]chan muxResult
	abandoned map[uint64]struct{} // calls given up on whose responses are still due
	lastFrame time.Time           // the last frame's arrival, or the idle-to-busy turn
	err       error               // terminal connection error, once set
	done      chan struct{}
}

// aLongTimeAgo is a read deadline that has always passed.
var aLongTimeAgo = time.Unix(1, 0)

// NewMux sends the mux preamble on a fresh connection.
func NewMux(conn net.Conn, opts ...Options) (*Mux, error) {
	m := &Mux{
		conn:      conn,
		opts:      firstOption(opts),
		interrupt: func() { conn.SetReadDeadline(aLongTimeAgo) },
		turn:      make(chan struct{}, 1),
		fr:        newFrameReader(conn),
		pending:   make(map[uint64]chan muxResult),
		abandoned: make(map[uint64]struct{}),
		done:      make(chan struct{}),
	}
	m.turn <- struct{}{}
	var magic [4]byte
	binary.BigEndian.PutUint32(magic[:], MuxMagic)
	if d := m.opts.writeDeadline(); !d.IsZero() {
		conn.SetWriteDeadline(d)
	}
	// The authentication preamble, when configured, precedes the framing
	// magic: the server pins the connection's identity before reading it.
	if len(m.opts.Token) > 0 {
		if err := writeHello(conn, m.opts.Token); err != nil {
			conn.Close()
			return nil, err
		}
	}
	if _, err := conn.Write(magic[:]); err != nil {
		conn.Close()
		return nil, err
	}
	m.writer = newMuxWriter(conn, m.opts.writeDeadline, func(err error) { m.failConn(err) })
	return m, nil
}

// DialMux connects a multiplexed client over TCP (TLS when the options carry
// a config).
func DialMux(addr string, opts ...Options) (*Mux, error) {
	conn, err := dialNetConn(addr, firstOption(opts))
	if err != nil {
		return nil, err
	}
	return NewMux(conn, opts...)
}

// fail records the terminal error, releases every in-flight caller and
// returns the terminal error (an earlier failure's, if there was one).
func (m *Mux) fail(err error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
		close(m.done)
	}
	m.pending = make(map[uint64]chan muxResult)
	m.abandoned = make(map[uint64]struct{})
	return m.err
}

// failConn fails the connection and closes it, which ends a holder's read.
func (m *Mux) failConn(err error) error {
	err = m.fail(err)
	m.conn.Close()
	return err
}

// Close tears the connection down, failing in-flight calls with
// ErrClientClosed.
func (m *Mux) Close() error {
	m.fail(ErrClientClosed)
	return m.conn.Close()
}

// muxCall is what one call waits with: the channel a holder delivers its
// response on, the timer of its per-call timeout while it waits for the
// turn, kept stopped while pooled (since go 1.23 a stopped or reset timer
// delivers no stale tick), and its sequence number and deadline.
type muxCall struct {
	ch       chan muxResult
	timer    *time.Timer
	seq      uint64
	deadline time.Time // the per-call deadline; zero without CallTimeout
}

// muxCalls pools calls; a call is only returned to the pool by the caller
// that drained its delivery (or by abandon, which withdrew it before any
// delivery), after stopping its timer, so a pooled call's channel is always
// empty and no longer pending.
var muxCalls = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &muxCall{ch: make(chan muxResult, 1), timer: t}
}}

// call performs one request/response exchange; responses for other in-flight
// calls may be delivered first.
//
// Three bounds can end the wait, earliest wins, and the error says which:
// the caller's context (ctx.Err, wrapped in AbandonedError), the per-call
// CallTimeout (ErrCallTimeout wrapped in AbandonedError), and the
// connection's progress deadline (the connection itself fails with
// ErrCallTimeout — no response frame at all arrived within CallTimeout, the
// dead-peer signal). The first two abandon only this call: its sequence
// number is forgotten, a late response is discarded on arrival, and the
// connection keeps serving every other caller. The request frame may already
// be on the wire, so the server may still execute it — abandonment releases
// the caller, it does not undo work.
func (m *Mux) call(ctx context.Context, op byte, body []byte) ([]byte, error) {
	cm := m.opts.Metrics
	if cm == nil {
		return m.roundTrip(ctx, op, body)
	}
	start := time.Now()
	resp, err := m.roundTrip(ctx, op, body)
	cm.record(op, start, err)
	return resp, err
}

// roundTrip is call without the instrumentation wrapper; see call for the
// deadline and abandonment semantics.
func (m *Mux) roundTrip(ctx context.Context, op byte, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, &AbandonedError{Cause: err}
	}
	if len(body)+muxHeaderSize > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	c := muxCalls.Get().(*muxCall)
	var now, deadline time.Time
	if m.opts.CallTimeout > 0 {
		now = time.Now()
		deadline = now.Add(m.opts.CallTimeout)
	}
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		muxCalls.Put(c)
		return nil, err
	}
	m.seq++
	c.seq, c.deadline = m.seq, deadline
	if len(m.pending) == 0 {
		// Idle to busy: from now on some frame must arrive within
		// CallTimeout.
		m.lastFrame = now
	}
	m.pending[c.seq] = c.ch
	m.mu.Unlock()

	// A write failure fails the connection, and wait reports it.
	m.writer.send(newMuxFrame(c.seq, op, body), true)

	res, err := m.wait(ctx, c)
	if err != nil {
		return nil, err
	}
	muxCalls.Put(c)
	if res.status != statusOK {
		return nil, responseError(res.status, res.body)
	}
	return res.body, nil
}

// wait blocks until the call's response is delivered or the caller takes
// the read turn and reads it itself, or until a bound ends the wait. On
// error the call must NOT be pooled by the caller (abandon pooled it, or
// the connection failed). Every path stops the timer before the call can
// reach the pool.
func (m *Mux) wait(ctx context.Context, c *muxCall) (muxResult, error) {
	// Fast path: the response is already delivered, or nobody is reading —
	// a lone caller's usual case. The timer is not armed then.
	select {
	case res := <-c.ch:
		return res, nil
	case <-m.turn:
		return m.hold(ctx, c)
	default:
	}
	var timeoutC <-chan time.Time
	if !c.deadline.IsZero() {
		c.timer.Reset(time.Until(c.deadline))
		timeoutC = c.timer.C
	}
	var cause error
	select {
	case res := <-c.ch:
		c.timer.Stop()
		return res, nil
	case <-m.turn:
		c.timer.Stop()
		return m.hold(ctx, c)
	case <-ctx.Done():
		cause = ctx.Err()
	case <-timeoutC:
		// Checked first, as a holder does: a waiter behind a drain is how a
		// silent peer is caught while the drain reads.
		if err := m.checkProgress(time.Now()); err != nil {
			return muxResult{}, err
		}
		cause = m.perCallTimeout()
	case <-m.done:
		c.timer.Stop()
		// Prefer a delivery that raced the failure; otherwise the call is
		// left to the garbage collector rather than pooled.
		select {
		case res := <-c.ch:
			return res, nil
		default:
			m.mu.Lock()
			err := m.err
			m.mu.Unlock()
			return muxResult{}, err
		}
	}
	c.timer.Stop()
	return m.abandon(c, cause)
}

// hold reads frames while the caller holds the read turn: other callers'
// responses go to their channels, and the caller's own ends the hold. Each
// read is bounded by the connection's read deadline, set before it to the
// earlier of the call's deadline and the progress deadline, and the
// caller's context cuts it short by setting a past one. A read that times
// out is classified in this order:
//
//  1. the context ended: the call is abandoned;
//  2. no frame arrived for a whole CallTimeout while calls were pending:
//     the connection fails with ErrCallTimeout, the dead-peer signal;
//  3. the call's own deadline passed: the call alone is abandoned;
//  4. anything else — a stale interrupt from an earlier holder's context —
//     re-arms and reads on.
//
// However the hold ends, leave hands on what is buffered and passes the
// turn.
func (m *Mux) hold(ctx context.Context, c *muxCall) (muxResult, error) {
	defer m.leave()
	// The previous holder may have delivered this call's response just
	// before it left.
	select {
	case res := <-c.ch:
		return res, nil
	default:
	}
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, m.interrupt)()
	}
	for {
		m.mu.Lock()
		deadline := earlier(c.deadline, m.progressDeadline())
		m.mu.Unlock()
		m.conn.SetReadDeadline(deadline)
		// Arming may have overwritten the interrupt of a context that ended
		// just before; the interrupt follows the end, so this sees it.
		if err := ctx.Err(); err != nil {
			return m.abandon(c, err)
		}
		seq, status, body, _, err := m.fr.next(true)
		for err == nil {
			if seq == c.seq {
				m.mu.Lock()
				m.arrived()
				delete(m.pending, seq)
				m.mu.Unlock()
				return muxResult{status: status, body: body}, nil
			}
			m.deliver(seq, status, body)
			seq, status, body, _, err = m.fr.next(true)
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return muxResult{}, m.failConn(err)
		}
		if err := ctx.Err(); err != nil {
			return m.abandon(c, err)
		}
		now := time.Now()
		if err := m.checkProgress(now); err != nil {
			return muxResult{}, err
		}
		if !c.deadline.IsZero() && !now.Before(c.deadline) {
			return m.abandon(c, m.perCallTimeout())
		}
	}
}

// leave ends a hold: it hands on every frame the buffer already holds,
// without reading the connection, and passes the turn on.
func (m *Mux) leave() {
	for {
		seq, status, body, ok, err := m.fr.next(false)
		if err != nil {
			m.failConn(err)
		}
		if !ok {
			break
		}
		m.deliver(seq, status, body)
	}
	if m.passTurn() {
		go m.drain()
	}
}

// passTurn puts the read turn back, where a waiting caller takes it — unless
// a response is still due to a caller that gave up. Then it keeps the turn
// for a drain, clearing the read deadline, and reports true: a response
// nobody reads would leave the peer blocked writing it, and on an unbuffered
// connection such as net.Pipe the peer then reads no more requests, so the
// next caller would block writing its own. The caller holds the turn.
func (m *Mux) passTurn() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || len(m.abandoned) == 0 {
		m.turn <- struct{}{} // the caller's token: never blocks
		return false
	}
	m.conn.SetReadDeadline(time.Time{})
	return true
}

// drain holds the read turn while responses are due to callers that gave
// up, handing on every frame it reads. It waits for no response of its own
// and reads with no deadline: the calls waiting meanwhile catch a silent
// peer with their own timers, and a stale interrupt only costs a loop.
func (m *Mux) drain() {
	for {
		seq, status, body, _, err := m.fr.next(true)
		if err == nil {
			m.deliver(seq, status, body)
		} else if !errors.Is(err, os.ErrDeadlineExceeded) {
			m.failConn(err)
		}
		if !m.passTurn() {
			return
		}
	}
}

// deliver hands a frame to the caller waiting on its sequence number; a
// frame nobody waits for (an abandoned call's) is dropped. It sends under
// mu, so an abandoning caller finds its call either still pending or
// answered.
func (m *Mux) deliver(seq uint64, status byte, body []byte) {
	m.mu.Lock()
	m.arrived()
	if ch, ok := m.pending[seq]; ok {
		delete(m.pending, seq)
		ch <- muxResult{status: status, body: body} // buffered and empty: never blocks
	} else {
		delete(m.abandoned, seq)
	}
	m.mu.Unlock()
}

// arrived records a frame's arrival as progress. The caller holds mu.
func (m *Mux) arrived() {
	if m.opts.CallTimeout > 0 {
		m.lastFrame = time.Now()
	}
}

// progressDeadline is when the connection counts as dead if no frame has
// arrived: one CallTimeout after the last frame, or after the connection
// went from idle to busy, while calls are pending; zero otherwise. The
// caller holds mu.
func (m *Mux) progressDeadline() time.Time {
	if m.opts.CallTimeout <= 0 || len(m.pending) == 0 {
		return time.Time{}
	}
	return m.lastFrame.Add(m.opts.CallTimeout)
}

// checkProgress runs when a read timed out at now, and fails the
// connection with ErrCallTimeout if the progress deadline has passed.
func (m *Mux) checkProgress(now time.Time) error {
	m.mu.Lock()
	by := m.progressDeadline()
	m.mu.Unlock()
	if by.IsZero() || now.Before(by) {
		return nil
	}
	return m.failConn(fmt.Errorf("transport: no response within progress deadline %v: %w",
		m.opts.CallTimeout, ErrCallTimeout))
}

// perCallTimeout is the cause of a call abandoned at its own deadline.
func (m *Mux) perCallTimeout() error {
	return fmt.Errorf("%w (per-call timeout %v)", ErrCallTimeout, m.opts.CallTimeout)
}

// earlier returns the earlier of two deadlines, zero meaning none.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// abandon withdraws a call whose caller stopped waiting for cause. If the
// sequence is still pending it is forgotten — whoever reads its response,
// if one ever arrives, finds no waiter and drops it, leaving the connection
// usable — and the call is pooled; if nobody holds the read turn, a drain
// takes it to read that response. Otherwise a holder already delivered
// the response (deliveries happen under mu), and it is returned as a normal
// completion: the response exists, losing it would only force the caller to
// wonder whether the operation executed. The caller then pools the call
// exactly once on that path; a second Put here would hand the same channel
// to two future callers and cross-deliver their responses. If neither, the
// connection failed, and the call is left unpooled. The caller has stopped
// the timer.
func (m *Mux) abandon(c *muxCall, cause error) (muxResult, error) {
	m.mu.Lock()
	_, mine := m.pending[c.seq]
	if mine {
		delete(m.pending, c.seq)
		m.abandoned[c.seq] = struct{}{}
	}
	m.mu.Unlock()
	if mine {
		muxCalls.Put(c)
		select {
		case <-m.turn:
			if m.passTurn() {
				go m.drain()
			}
		default: // a holder or a drain reads on, and leaves through passTurn
		}
		return muxResult{}, &AbandonedError{Cause: cause}
	}
	select {
	case res := <-c.ch:
		return res, nil
	default:
		return muxResult{}, &AbandonedError{Cause: cause}
	}
}
