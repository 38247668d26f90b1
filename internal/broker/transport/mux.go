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

// readMuxFrame reads one sequence-tagged frame into a fresh buffer whose
// ownership passes to the caller — the client read loop uses it because
// response bodies outlive the loop iteration (callers' zero-copy decodes
// alias them indefinitely).
func readMuxFrame(r io.Reader) (seq uint64, tag byte, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size < muxHeaderSize {
		return 0, 0, nil, ErrShortFrame
	}
	if size > MaxFrameSize {
		return 0, 0, nil, ErrFrameTooLarge
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, err
	}
	return binary.BigEndian.Uint64(buf[:8]), buf[8], buf[muxHeaderSize:], nil
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

// Mux speaks the multiplexed framing over one connection: its one goroutine,
// the read loop, demuxes responses by sequence number to waiting callers,
// and callers write their own request frames, so any number of calls may be
// in flight concurrently. All methods are safe for concurrent use; a
// connection-level failure fails every in-flight and future call.
type Mux struct {
	conn   net.Conn
	opts   Options
	writer *muxWriter

	mu      sync.Mutex // guards the fields below
	seq     uint64
	pending map[uint64]chan muxResult
	err     error // terminal connection error, once set
	done    chan struct{}
}

// NewMux sends the mux preamble on a fresh connection and starts the
// demuxing reader.
func NewMux(conn net.Conn, opts ...Options) (*Mux, error) {
	m := &Mux{
		conn:    conn,
		opts:    firstOption(opts),
		pending: make(map[uint64]chan muxResult),
		done:    make(chan struct{}),
	}
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
	m.writer = newMuxWriter(conn, m.opts.writeDeadline, func(err error) {
		m.fail(err)
		m.conn.Close()
	})
	go m.readLoop()
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

// readLoop demuxes response frames to their waiting callers until the
// connection fails or the client closes. CallTimeout is enforced here as a
// progress deadline: while calls are pending the connection must deliver a
// response frame within CallTimeout or the whole connection fails with
// ErrCallTimeout — the dead-peer detector. (Individual slow calls are bounded
// separately by the per-call timer in wait(), which abandons just that call;
// this connection-level deadline is what catches a peer sending nothing at
// all.)
func (m *Mux) readLoop() {
	br := bufio.NewReaderSize(m.conn, muxBufferSize)
	for {
		seq, status, body, err := readMuxFrame(br)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// No response frame at all within the progress window: the
				// peer is dead to us, so the whole connection fails. (A single
				// slow call would have been abandoned individually instead.)
				err = fmt.Errorf("transport: no response within progress deadline %v: %w",
					m.opts.CallTimeout, ErrCallTimeout)
			}
			m.fail(err)
			m.conn.Close()
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[seq]
		delete(m.pending, seq)
		// The deadline update happens under mu so it cannot interleave with a
		// concurrent call arming the idle→busy deadline: whichever of the two
		// observes the map last also sets the deadline last.
		if m.opts.CallTimeout > 0 {
			if len(m.pending) > 0 {
				m.conn.SetReadDeadline(time.Now().Add(m.opts.CallTimeout))
			} else {
				m.conn.SetReadDeadline(time.Time{})
			}
		}
		m.mu.Unlock()
		if ok {
			// Buffered: a send never blocks the demux loop.
			ch <- muxResult{status: status, body: body}
		}
	}
}

// fail records the terminal error and releases every in-flight caller.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.done)
	}
	m.pending = make(map[uint64]chan muxResult)
	m.mu.Unlock()
}

// Close tears the connection down, failing in-flight calls with
// ErrClientClosed.
func (m *Mux) Close() error {
	m.fail(ErrClientClosed)
	return m.conn.Close()
}

// muxCall is what one call waits with: the channel the read loop delivers
// its response on and the timer of its per-call timeout, kept stopped while
// pooled (since go 1.23 a stopped or reset timer delivers no stale tick).
type muxCall struct {
	ch    chan muxResult
	timer *time.Timer
}

// muxCalls pools calls; a call is only returned to the pool by the caller
// that drained its delivery (or by abandon, which withdrew it before any
// delivery), after stopping its timer, so a pooled call's channel is always
// empty and unreferenced by the read loop.
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
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		muxCalls.Put(c)
		return nil, err
	}
	m.seq++
	seq := m.seq
	m.pending[seq] = c.ch
	if len(m.pending) == 1 && m.opts.CallTimeout > 0 {
		// The read loop renews this deadline as responses arrive; arming it on
		// the idle→busy transition (under mu, so it cannot race the loop's
		// idle clear) is what turns a dead peer into an error.
		m.conn.SetReadDeadline(time.Now().Add(m.opts.CallTimeout))
	}
	m.mu.Unlock()

	// A write failure fails the connection, and wait reports it.
	m.writer.send(newMuxFrame(seq, op, body), true)

	res, err := m.wait(ctx, seq, c)
	if err != nil {
		return nil, err
	}
	muxCalls.Put(c)
	if res.status != statusOK {
		return nil, responseError(res.status, res.body)
	}
	return res.body, nil
}

// wait blocks until the call's response is delivered or a bound ends the
// wait. On error the call must NOT be pooled by the caller (abandon pooled
// it, or a dying read loop may still reference its channel). Every path
// stops the timer before the call can reach the pool.
func (m *Mux) wait(ctx context.Context, seq uint64, c *muxCall) (muxResult, error) {
	// Fast path: the response may already be buffered (pipelined bursts on a
	// loaded connection); the timer is not armed then.
	select {
	case res := <-c.ch:
		return res, nil
	default:
	}
	var timeoutC <-chan time.Time
	if m.opts.CallTimeout > 0 {
		c.timer.Reset(m.opts.CallTimeout)
		timeoutC = c.timer.C
	}
	var cause error
	select {
	case res := <-c.ch:
		c.timer.Stop()
		return res, nil
	case <-ctx.Done():
		cause = ctx.Err()
	case <-timeoutC:
		cause = fmt.Errorf("%w (per-call timeout %v)", ErrCallTimeout, m.opts.CallTimeout)
	case <-m.done:
		c.timer.Stop()
		// Prefer a delivery that raced the failure; otherwise the channel may
		// still be referenced by a dying read loop, so it is not pooled.
		select {
		case res := <-c.ch:
			return res, nil
		default:
			m.mu.Lock()
			delete(m.pending, seq)
			err := m.err
			m.mu.Unlock()
			return muxResult{}, err
		}
	}
	c.timer.Stop()
	if res, delivered := m.abandon(seq, c); delivered {
		return res, nil
	}
	return muxResult{}, &AbandonedError{Cause: cause}
}

// abandon withdraws a call whose caller stopped waiting. If the sequence is
// still pending it is forgotten — the read loop will find no waiter when (if
// ever) its response arrives and discard it, leaving the connection usable —
// and the progress deadline is re-derived for the remaining pending set. If
// the read loop already claimed the sequence, its delivery is imminent on the
// buffered channel, so it is collected and returned as a normal completion
// (delivered=true): the response exists, losing it would only force the
// caller to wonder whether the operation executed.
//
// Pooling discipline: abandon pools the call only on the abandoned
// (delivered=false, sequence-was-ours) path. On the delivered path the
// caller falls through to its normal completion and pools the call exactly
// once there — a second Put here would hand the same channel to two future
// callers and cross-deliver their responses. The caller has stopped the
// timer.
func (m *Mux) abandon(seq uint64, c *muxCall) (muxResult, bool) {
	m.mu.Lock()
	_, mine := m.pending[seq]
	if mine {
		delete(m.pending, seq)
		if m.opts.CallTimeout > 0 && len(m.pending) == 0 && m.err == nil {
			// Last pending call abandoned: clear the progress deadline so the
			// now-idle connection is not failed for silence nobody minds.
			m.conn.SetReadDeadline(time.Time{})
		}
	}
	m.mu.Unlock()
	if mine {
		muxCalls.Put(c)
		return muxResult{}, false
	}
	// The loop claimed the sequence before we could: its buffered send either
	// landed already or is instants away (or the connection is failing, in
	// which case done breaks the wait and the call is left unpooled).
	select {
	case res := <-c.ch:
		return res, true
	case <-m.done:
		select {
		case res := <-c.ch:
			return res, true
		default:
			return muxResult{}, false
		}
	}
}
