// Package transport layers the bottle-rack broker's request/response
// protocol over net.Conn: a TCP server for real deployments plus an
// in-memory pipe listener (pipe.go) for tests and in-process load
// generation. The full wire specification — framings, opcodes, body
// encodings, error and deadline semantics — lives in docs/PROTOCOL.md; this
// package is its reference implementation.
//
// Two framings share one server port, detected from the first four bytes of
// each connection. The original lock-step framing carries one request at a
// time per connection: a 4-byte big-endian length, a 1-byte opcode
// (requests) or status (responses), and an operation-specific body encoded
// by the broker package's codec. The multiplexed framing (mux.go) is
// selected by the "SBM1" preamble and adds an 8-byte sequence number per
// frame, so one connection sustains many in-flight calls and the server may
// respond out of order; old lock-step clients keep working unchanged (with
// one documented exception: the OpStats response grew a revision-2 tail
// that pre-revision clients reject — docs/PROTOCOL.md §2.7).
//
// Operational behaviour worth knowing:
//
//   - Responses with a nonzero status carry the error text and become
//     *RemoteError on the client — proof the server executed, so pools must
//     not retry. The status byte doubles as a one-byte error code
//     (broker.ErrCode, docs/PROTOCOL.md §1.3.1) that RemoteError decodes
//     back into the broker/core sentinels, so errors.Is works identically
//     in-process and over TCP; legacy status-1 frames decode as text-only.
//   - Every client call takes a context. On a multiplexed connection a
//     context that ends (or the per-call CallTimeout) abandons only that
//     call — the sequence number is forgotten, a late response is discarded,
//     the connection keeps serving — surfaced as *AbandonedError so pools
//     know not to recycle. On a lock-step connection an interrupted exchange
//     costs the connection.
//   - The server runs cheap opcodes inline in frame order and hands heavy
//     ones (Sweep, Stats, the batches) to workers the connection keeps (at
//     most ServerOptions.MaxInflight, with read back-pressure at the bound).
//   - Nothing is spawned to write: whoever produced a frame writes it, with
//     the frames queued meanwhile, through a 64 KiB buffer, so a pipelined
//     burst rides a handful of syscalls; only the caller inside write(2) can
//     be held past its context, for at most its write deadline.
//   - Deadlines make dead peers errors instead of hangs: the server's
//     ReadIdleTimeout/WriteTimeout, and the client's CallTimeout — a round
//     trip bound on lock-step connections; on multiplexed ones both a
//     per-call bound (abandons one call) and a progress bound (no response
//     at all while calls pend fails the whole connection).
//
// Frames are bounded by MaxFrameSize (16 MiB), checked before allocation on
// both ends. New code should dial through the public sealedbottle package
// (or internal/client) rather than using Client/Mux directly.
package transport

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sealedbottle/internal/broker"
)

// Opcodes of the framed protocol. The batch opcodes carry several operations
// in one frame and return per-item outcomes, amortizing both the round trip
// and the broker's per-operation shard locking.
const (
	OpSubmit byte = iota + 1
	OpSweep
	OpReply
	OpFetch
	OpStats
	OpRemove
	OpSubmitBatch
	OpReplyBatch
	OpFetchBatch
	// OpHint asks a rack to queue handoff records for a currently-unreachable
	// peer (docs/PROTOCOL.md §2.10); the body is a broker hint frame, the
	// response the 4-byte count of records queued.
	OpHint
	// OpHandoff delivers queued handoff records rack-to-rack; the body is a
	// broker handoff-record list, the response the 4-byte count applied.
	OpHandoff
	// OpPeers administers the rack's peer table (set/delete/list); the body is
	// a broker peer-update frame, the response the full peer list after the
	// update.
	OpPeers
	// OpAdmin drives the rack control plane (docs/PROTOCOL.md §2.11): the
	// body is a broker admin request (status/drain/undrain/snapshot/quota),
	// the response the rack's admin status after the verb took effect. Scoped
	// to the auth "admin" capability on secured racks.
	OpAdmin
)

// Response status bytes. Since the error-code protocol revision the status
// byte doubles as the error's one-byte wire code: a coded error response
// carries status broker.OutcomeCodeBase+code (0x11..), while the bare
// statusErr value is what legacy servers wrote. Both directions remain
// compatible because every decoder — old and new — treats any nonzero status
// as "error, body is the text".
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// statusOf encodes an operation error as a response status byte.
func statusOf(err error) byte {
	return broker.OutcomeCodeBase + byte(broker.ErrCodeOf(err))
}

// codeOfStatus recovers the wire error code from a response status byte;
// legacy statuses (and unknown sub-0x10 values) carry no code.
func codeOfStatus(status byte) broker.ErrCode {
	if status >= broker.OutcomeCodeBase {
		return broker.ErrCode(status - broker.OutcomeCodeBase)
	}
	return broker.CodeNone
}

// remoteError builds the client-side error for a nonzero response status.
// When the peer predates the codes (bare legacy status) the code is inferred
// from the documented sentinel texts, so errors.Is routing — the ring's
// unknown-bottle fall-through in particular — keeps working against a
// not-yet-upgraded rack.
func remoteError(status byte, body []byte) *RemoteError {
	msg := string(body)
	code := codeOfStatus(status)
	if code == broker.CodeNone {
		code = broker.LegacyErrCodeOf(msg)
	}
	return &RemoteError{Msg: msg, Code: code}
}

// MaxFrameSize bounds a single frame; larger frames are rejected before
// allocation so a malicious peer cannot ask the server to allocate gigabytes.
const MaxFrameSize = 16 << 20

// DefaultMaxInflight bounds concurrently executing requests per multiplexed
// connection; past it the server stops reading the connection (backpressure)
// until a slot frees up.
const DefaultMaxInflight = 64

// Errors of the framed protocol.
var (
	// ErrFrameTooLarge indicates a frame exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	// ErrShortFrame indicates a frame without an opcode/status byte.
	ErrShortFrame = errors.New("transport: frame too short")
)

// RemoteError is an error reported by the server for one operation: the
// request was delivered and answered, so callers (connection pools in
// particular) must not treat it as a connection failure or retry it.
type RemoteError struct {
	// Msg is the server-side error text.
	Msg string
	// Code is the one-byte wire classification carried by the response's
	// status byte; broker.CodeNone when the server predates the codes.
	Code broker.ErrCode
}

func (e *RemoteError) Error() string { return "transport: remote error: " + e.Msg }

// Unwrap exposes the code's broker/core sentinel, so
// errors.Is(err, broker.ErrUnknownBottle) and friends hold for transported
// errors exactly as they do in-process. Codes without a sentinel (legacy,
// internal, unknown) unwrap to nothing.
func (e *RemoteError) Unwrap() error { return e.Code.Sentinel() }

// AbandonedError marks a call the client gave up on — its context ended or
// its per-call timeout elapsed — while the multiplexed connection underneath
// remains healthy and keeps serving other calls; the late response, if one
// arrives, is discarded by sequence number. Pools must NOT recycle the
// connection on it. The request may still have executed server-side:
// abandonment releases the caller, it does not undo work.
type AbandonedError struct {
	// Cause is the bound that ended the call: context.Canceled,
	// context.DeadlineExceeded, or a per-call-timeout error wrapping
	// ErrCallTimeout.
	Cause error
}

func (e *AbandonedError) Error() string {
	return "transport: call abandoned (connection unaffected): " + e.Cause.Error()
}

// Unwrap exposes the bound that fired, so errors.Is picks out
// context.Canceled, context.DeadlineExceeded or ErrCallTimeout.
func (e *AbandonedError) Unwrap() error { return e.Cause }

// Options tunes a client (either framing).
type Options struct {
	// CallTimeout bounds one round trip; zero means no limit. A lock-step
	// client arms read and write deadlines with it. A multiplexed client
	// enforces it as a progress deadline: whenever calls are pending, the
	// connection must deliver a response within CallTimeout or it fails
	// entirely with ErrCallTimeout — on a shared pipelined connection a stalled
	// peer has stalled every caller, so there is no per-call salvage.
	CallTimeout time.Duration
	// WriteTimeout bounds a single frame write (zero: CallTimeout governs).
	WriteTimeout time.Duration
	// Token is a capability token (internal/auth) presented to the server in
	// a HELLO preamble before the framing bytes; empty sends no preamble.
	// Against a server that requires authentication, a connection without a
	// valid token still works at the wire level but receives
	// broker.ErrUnauthorized for every operation.
	Token []byte
	// TLS, when set, wraps connections opened by Dial/DialMux in a TLS client
	// stream (a zero-ServerName config verifies against the dialed host).
	// NewClient/NewMux callers that bring their own connection wrap it
	// themselves before handing it over.
	TLS *tls.Config
	// Metrics, when set, records per-opcode round-trip latency and error
	// counts for every call on this connection. Pools share one ClientMetrics
	// across their connections so the series aggregate.
	Metrics *ClientMetrics
}

// writeDeadline resolves the write deadline implied by the options.
func (o Options) writeDeadline() time.Time {
	d := o.WriteTimeout
	if d <= 0 {
		d = o.CallTimeout
	}
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// firstOption collapses an optional variadic Options.
func firstOption(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// ReplicaHandler is the server-side replication surface: a rack that
// participates in R-way replication (internal/replica wraps a broker.Rack
// into one) accepts hints for unreachable peers, applies handed-off records,
// and administers a runtime peer table. A server without one rejects the
// replication opcodes, so plain single-rack deployments expose nothing new.
type ReplicaHandler interface {
	// Hint queues handoff records for the named destination, returning how
	// many were accepted (the rest were dropped against the queue bound).
	Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error)
	// Handoff applies records handed off by a peer, returning how many took
	// effect (duplicates and already-expired bottles count as applied).
	Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error)
	// SetPeer adds or updates a named peer's dial address.
	SetPeer(name, addr string) error
	// RemovePeer drops a peer (and any hints queued for it).
	RemovePeer(name string) error
	// Peers snapshots the peer table, name to dial address.
	Peers() map[string]string
	// ReplicaStats snapshots the handler's replication counters; the server
	// folds them into OpStats responses.
	ReplicaStats() broker.ReplicationStats
}

// ServerOptions tunes a Server.
type ServerOptions struct {
	// ReadIdleTimeout is the longest the server waits for the next request
	// frame before dropping the connection as dead (zero: wait forever).
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds one response write (zero: no limit).
	WriteTimeout time.Duration
	// MaxInflight bounds concurrently executing requests per multiplexed
	// connection (zero: DefaultMaxInflight).
	MaxInflight int
	// Replica, when set, serves the replication opcodes (OpHint, OpHandoff,
	// OpPeers) and folds the handler's counters into OpStats; when nil those
	// opcodes answer with an error.
	Replica ReplicaHandler
	// TLS, when set, wraps every accepted connection in a TLS server stream
	// before any bytes are read; the framing auto-detect then runs inside the
	// encrypted stream. Set ClientCAs + ClientAuth for mutual TLS.
	TLS *tls.Config
	// AuthKey, when set, requires every connection to authenticate with a
	// capability token minted under this key (internal/auth): connections
	// without a valid token receive broker.ErrUnauthorized for every
	// operation, and verified connections are scoped to their token's
	// operations and pinned to its identity (bottle ownership, admission).
	// When empty, HELLO preambles are consumed and ignored.
	AuthKey []byte
	// AuthNow overrides the clock used for token expiry checks (tests).
	AuthNow func() time.Time
	// Quota, when set, is the per-identity admission controller: each
	// operation costs one token from the caller's bucket, and calls over
	// quota answer broker.ErrOverload. Replication and admin opcodes are
	// exempt.
	Quota *broker.Admission
	// Metrics, when set, records per-opcode latency histograms, request and
	// error counters, and byte counters for every dispatched operation on
	// both framings.
	Metrics *ServerMetrics
}

func (o ServerOptions) maxInflight() int {
	if o.MaxInflight > 0 {
		return o.MaxInflight
	}
	return DefaultMaxInflight
}

// writeFrame writes one tagged lock-step frame as a single Write, staging it
// in a pooled buffer (the body is copied, so the caller's scratch is free on
// return).
func writeFrame(w io.Writer, tag byte, body []byte) error {
	if len(body)+1 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	f := muxBufs.Get().(*[]byte)
	buf := binary.BigEndian.AppendUint32((*f)[:0], uint32(len(body)+1))
	buf = append(buf, tag)
	buf = append(buf, body...)
	*f = buf
	_, err := w.Write(buf)
	putMuxBuf(f)
	return err
}

// readFrameBody reads the remainder of a lock-step frame whose 4-byte length
// prefix has already been consumed.
func readFrameBody(r io.Reader, size uint32) (byte, []byte, error) {
	if size == 0 {
		return 0, nil, ErrShortFrame
	}
	if size > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// readFrame reads one tagged lock-step frame.
func readFrame(r io.Reader) (byte, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	return readFrameBody(r, binary.BigEndian.Uint32(lenBuf[:]))
}

// Server serves rack operations over accepted connections, speaking whichever
// framing each connection opens with.
type Server struct {
	rack *broker.Rack
	opts ServerOptions

	// ctx is the server's lifetime context: it parents every dispatched rack
	// operation and is canceled by Close, so a shutdown releases in-flight
	// sweeps instead of waiting them out.
	ctx    context.Context
	cancel context.CancelFunc

	// draining, when set, refuses client submits with broker.ErrDraining
	// while every other operation — sweeps, replies, fetches, the replica
	// stream — keeps serving, so in-flight rendezvous finish and the
	// replicated ring migrates new writes to the surviving replicas.
	draining atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// Drain switches drain mode on or off; see the draining field for semantics.
func (s *Server) Drain(on bool) { s.draining.Store(on) }

// Draining reports whether the server is in drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// NewServer wraps a rack.
func NewServer(rack *broker.Rack, opts ...ServerOptions) *Server {
	var o ServerOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{rack: rack, opts: o, ctx: ctx, cancel: cancel, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener is closed; each connection is
// served by its own goroutine. Lock-step connections execute one request at a
// time; multiplexed connections execute up to MaxInflight concurrently.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closing() {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			return nil
		}
		go s.serveConn(conn)
	}
}

// Close terminates every tracked connection and cancels in-flight dispatches;
// callers close the listener themselves (Serve then returns nil).
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	s.done = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// armReadDeadline applies the idle read deadline, if configured.
func (s *Server) armReadDeadline(conn net.Conn) {
	if s.opts.ReadIdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadIdleTimeout))
	}
}

// armWriteDeadline applies the response write deadline, if configured.
func (s *Server) armWriteDeadline(conn net.Conn) {
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
}

// serveConn authenticates and sniffs the framing from the connection's
// leading bytes: an optional TLS wrap first (so everything below travels
// inside the encrypted stream), then an optional HELLO preamble pinning the
// caller's identity, then the four framing bytes — the mux magic selects
// multiplexed service, anything else is the length prefix of a first
// lock-step frame. Reads go through one buffered reader per connection.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	defer s.untrack(conn)
	stream := conn
	if s.opts.TLS != nil {
		// The handshake runs implicitly on the first read, bounded by the same
		// idle deadline as a first frame; closing the raw conn (Server.Close)
		// unblocks it.
		stream = tls.Server(conn, s.opts.TLS)
	}
	br := bufio.NewReaderSize(stream, muxBufferSize)
	s.armReadDeadline(stream)
	var first [4]byte
	if _, err := io.ReadFull(br, first[:]); err != nil {
		return
	}
	ca := &connAuth{ctx: s.ctx}
	if binary.BigEndian.Uint32(first[:]) == HelloMagic {
		if !s.readHello(br, ca) {
			return
		}
		if _, err := io.ReadFull(br, first[:]); err != nil {
			return
		}
	} else if len(s.opts.AuthKey) > 0 {
		ca.err = fmt.Errorf("transport: no capability token presented: %w", broker.ErrUnauthorized)
	}
	if binary.BigEndian.Uint32(first[:]) == MuxMagic {
		s.serveMux(stream, br, ca)
		return
	}
	s.serveLockStep(stream, br, ca, binary.BigEndian.Uint32(first[:]))
}

// serveLockStep answers framed requests one at a time until the connection
// closes. firstLen is the already-consumed length prefix of the first frame.
func (s *Server) serveLockStep(conn net.Conn, br *bufio.Reader, ca *connAuth, firstLen uint32) {
	op, body, err := readFrameBody(br, firstLen)
	for {
		if err != nil {
			return
		}
		respBody, opErr := s.dispatchMeasured(ca, op, body)
		s.armWriteDeadline(conn)
		if opErr != nil {
			if err := writeFrame(conn, statusOf(opErr), []byte(opErr.Error())); err != nil {
				return
			}
		} else if err := writeFrame(conn, statusOK, respBody); err != nil {
			return
		}
		s.armReadDeadline(conn)
		op, body, err = readFrame(br)
	}
}

// heavyOp reports whether an opcode is worth handing to a worker: sweeps and
// stats visit every shard (a sweep can run for milliseconds), and a batch
// frame can carry thousands of items each needing validation — running any
// of those inline would stall every pipelined request queued behind them.
// The point lookups are a few microseconds of locked map work: for those a
// hand-off costs more than the operation, and executing them inline lets a
// burst of pipelined frames be served back-to-back so their responses leave
// in one syscall.
func heavyOp(op byte) bool {
	switch op {
	case OpSweep, OpStats, OpSubmitBatch, OpReplyBatch, OpFetchBatch, OpHint, OpHandoff, OpAdmin:
		return true
	}
	return false
}

// muxRequest is one request frame read off a multiplexed connection; body
// aliases the pooled buf.
type muxRequest struct {
	seq  uint64
	op   byte
	body []byte
	buf  *[]byte
}

// serveMux answers multiplexed requests: cheap operations execute inline in
// frame order, heavy ones on the connection's workers. A worker is spawned
// only when none is idle, never past MaxInflight (the read loop then waits
// for one: back-pressure), and kept, grown stack and all, until the
// connection closes. Inline answers are written unflushed, and the read loop
// flushes before it would block, so a pipelined burst is answered in one
// write. Responses may be out of request order; the echoed sequence number
// lets the client demux them.
func (s *Server) serveMux(conn net.Conn, br *bufio.Reader, ca *connAuth) {
	// On a write failure the writer closes the connection so the read loop
	// below exits rather than leaving the client hanging on a broken stream.
	writer := newMuxWriter(conn, s.writeDeadline, func(error) { conn.Close() })
	serve := func(req muxRequest, flush bool) {
		respBody, opErr := s.dispatchMeasured(ca, req.op, req.body)
		tag := statusOK
		if opErr != nil {
			tag, respBody = statusOf(opErr), []byte(opErr.Error())
		}
		if len(respBody)+muxHeaderSize > MaxFrameSize {
			tag, respBody = statusOf(ErrFrameTooLarge), []byte(ErrFrameTooLarge.Error())
		}
		// newMuxFrame copies respBody into the pooled frame, and every rack
		// operation copies what it retains before dispatch returns, so the
		// request buffer is recycled at once.
		writer.send(newMuxFrame(req.seq, tag, respBody), flush)
		putMuxBuf(req.buf)
	}
	var (
		wg      sync.WaitGroup
		jobs    = make(chan muxRequest) // unbuffered: a send succeeds only into an idle worker
		workers int
	)
	worker := func(req muxRequest) {
		defer wg.Done()
		serve(req, true)
		for req := range jobs {
			serve(req, true)
		}
	}
	defer func() {
		close(jobs)
		wg.Wait() // let in-flight dispatches write their responses
		writer.push(true)
	}()
	for {
		if br.Buffered() == 0 {
			writer.push(true)
		}
		s.armReadDeadline(conn)
		seq, op, body, buf, err := readMuxFramePooled(br)
		if err != nil {
			return
		}
		req := muxRequest{seq: seq, op: op, body: body, buf: buf}
		if !heavyOp(op) {
			serve(req, false)
			continue
		}
		select {
		case jobs <- req:
			continue
		default:
		}
		if workers < s.opts.maxInflight() {
			workers++
			wg.Add(1)
			go worker(req)
			continue
		}
		writer.push(true)
		jobs <- req
	}
}

// writeDeadline resolves the server's per-write deadline.
func (s *Server) writeDeadline() time.Time {
	if s.opts.WriteTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.opts.WriteTimeout)
}

// dispatch executes one operation against the rack under the server's
// lifetime context (so Close releases in-flight operations), carrying the
// connection's pinned identity, after the admission gate — authentication,
// token scope, per-identity quota — has passed it.
func (s *Server) dispatch(ca *connAuth, op byte, body []byte) ([]byte, error) {
	if err := s.admit(ca, op); err != nil {
		return nil, err
	}
	ctx := ca.ctx
	switch op {
	case OpSubmit:
		id, err := s.rack.Submit(ctx, body)
		if err != nil {
			return nil, err
		}
		return []byte(id), nil
	case OpSweep:
		q, err := broker.UnmarshalSweepQuery(body)
		if err != nil {
			return nil, err
		}
		res, err := s.rack.Sweep(ctx, q)
		if err != nil {
			return nil, err
		}
		return broker.MarshalSweepResult(res), nil
	case OpReply:
		id, raw, err := broker.UnmarshalReplyPost(body)
		if err != nil {
			return nil, err
		}
		return nil, s.rack.Reply(ctx, id, raw)
	case OpFetch:
		raws, err := s.rack.Fetch(ctx, string(body))
		if err != nil {
			return nil, err
		}
		return broker.MarshalRawList(raws), nil
	case OpStats:
		st, err := s.rack.Stats(ctx)
		if err != nil {
			return nil, err
		}
		if s.opts.Replica != nil {
			st.Replication.Add(s.opts.Replica.ReplicaStats())
		}
		return broker.MarshalStats(st), nil
	case OpRemove:
		ok, err := s.rack.Remove(ctx, string(body))
		if err != nil {
			return nil, err
		}
		if ok {
			return []byte{1}, nil
		}
		return []byte{0}, nil
	case OpSubmitBatch:
		raws, err := broker.UnmarshalRawList(body)
		if err != nil {
			return nil, err
		}
		results, err := s.rack.SubmitBatch(ctx, raws)
		if err != nil {
			return nil, err
		}
		return broker.MarshalSubmitResults(results), nil
	case OpReplyBatch:
		posts, err := broker.UnmarshalReplyBatch(body)
		if err != nil {
			return nil, err
		}
		errs, err := s.rack.ReplyBatch(ctx, posts)
		if err != nil {
			return nil, err
		}
		return broker.MarshalErrorList(errs), nil
	case OpFetchBatch:
		ids, err := broker.UnmarshalIDList(body)
		if err != nil {
			return nil, err
		}
		results, err := s.rack.FetchBatch(ctx, ids)
		if err != nil {
			return nil, err
		}
		return broker.MarshalFetchResults(results), nil
	case OpHint:
		if s.opts.Replica == nil {
			return nil, errReplicationDisabled
		}
		dest, recs, err := broker.UnmarshalHint(body)
		if err != nil {
			return nil, err
		}
		n, err := s.opts.Replica.Hint(ctx, dest, recs)
		if err != nil {
			return nil, err
		}
		return appendCount(nil, n), nil
	case OpHandoff:
		if s.opts.Replica == nil {
			return nil, errReplicationDisabled
		}
		recs, err := broker.UnmarshalHandoffRecords(body)
		if err != nil {
			return nil, err
		}
		n, err := s.opts.Replica.Handoff(ctx, recs)
		if err != nil {
			return nil, err
		}
		return appendCount(nil, n), nil
	case OpPeers:
		if s.opts.Replica == nil {
			return nil, errReplicationDisabled
		}
		verb, name, addr, err := broker.UnmarshalPeerUpdate(body)
		if err != nil {
			return nil, err
		}
		switch verb {
		case broker.PeerVerbSet:
			err = s.opts.Replica.SetPeer(name, addr)
		case broker.PeerVerbDel:
			err = s.opts.Replica.RemovePeer(name)
		case broker.PeerVerbList:
			// List-only: the response below carries the table.
		default:
			err = fmt.Errorf("transport: unknown peer verb %d", verb)
		}
		if err != nil {
			return nil, err
		}
		return broker.MarshalPeerList(s.opts.Replica.Peers()), nil
	case OpAdmin:
		return s.handleAdmin(ctx, body)
	default:
		return nil, fmt.Errorf("transport: unknown opcode %d", op)
	}
}

// errReplicationDisabled answers the replication opcodes on a server without
// a ReplicaHandler.
var errReplicationDisabled = errors.New("transport: replication not enabled on this rack")

// appendCount appends a count response: one 4-byte big-endian integer.
func appendCount(b []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(n))
}

// parseCount decodes a count response.
func parseCount(body []byte) (int, error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("transport: malformed count response (%d bytes)", len(body))
	}
	return int(binary.BigEndian.Uint32(body)), nil
}

// Client speaks the lock-step framing over one connection: methods are safe
// for concurrent use, but requests are serialized — each call holds the
// connection for a full round trip. Kept for compatibility with old servers;
// new code should use Mux (or the internal/client courier, which wraps it).
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	br        *bufio.Reader
	opts      Options
	helloSent bool
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn, opts ...Options) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn), opts: firstOption(opts)}
}

// Dial connects a lock-step client over TCP (TLS when the options carry a
// config).
func Dial(addr string, opts ...Options) (*Client, error) {
	conn, err := dialNetConn(addr, firstOption(opts))
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts...), nil
}

// Close closes the underlying connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// call performs one request/response round trip, recording it against the
// options' ClientMetrics when configured.
func (c *Client) call(ctx context.Context, op byte, body []byte) ([]byte, error) {
	m := c.opts.Metrics
	if m == nil {
		return c.roundTrip(ctx, op, body)
	}
	start := time.Now()
	resp, err := c.roundTrip(ctx, op, body)
	m.record(op, start, err)
	return resp, err
}

// roundTrip performs one request/response round trip. The context composes
// with the per-call timeout, earliest wins: the connection's read deadline is
// set to whichever bound expires first, and a cancellation pops the deadline
// immediately. Because the lock-step framing has no sequence numbers, an
// interrupted call leaves the connection mid-response and therefore
// unusable — unlike the multiplexed client, a lock-step cancellation costs
// the connection (pools observe a plain transport error and recycle it).
func (c *Client) roundTrip(ctx context.Context, op byte, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A cancellation mid-round-trip pops the deadlines so the blocked I/O
	// returns now rather than at the timeout.
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetReadDeadline(time.Now())
		c.conn.SetWriteDeadline(time.Now())
	})
	defer stop()
	// Deadlines are re-armed unconditionally (zero clears): a cancellation
	// that fires in the instant between a completed exchange and its stop()
	// would otherwise leave popped deadlines behind to fail the next call.
	// Each arm is followed by a ctx re-check that re-pops, so a cancellation
	// firing between the AfterFunc registration and an arm (which would
	// otherwise erase the pop and block the canceled call for the full
	// timeout) is always caught by one side or the other.
	deadline, perCall := c.opts.callDeadline(ctx)
	wd := c.opts.writeDeadline()
	if wd.IsZero() || (!deadline.IsZero() && deadline.Before(wd)) {
		wd = deadline
	}
	c.conn.SetWriteDeadline(wd)
	if ctx.Err() != nil {
		c.conn.SetWriteDeadline(time.Now())
	}
	// The authentication preamble must precede the first frame; writing it
	// lazily here (under the call lock and the armed write deadline) keeps
	// NewClient infallible.
	if len(c.opts.Token) > 0 && !c.helloSent {
		if err := writeHello(c.conn, c.opts.Token); err != nil {
			return nil, c.mapDeadlineErr(ctx, err, perCall)
		}
		c.helloSent = true
	}
	if err := writeFrame(c.conn, op, body); err != nil {
		return nil, c.mapDeadlineErr(ctx, err, perCall)
	}
	c.conn.SetReadDeadline(deadline)
	if ctx.Err() != nil {
		c.conn.SetReadDeadline(time.Now())
	}
	status, resp, err := readFrame(c.br)
	if err != nil {
		return nil, c.mapDeadlineErr(ctx, err, perCall)
	}
	if status != statusOK {
		return nil, remoteError(status, resp)
	}
	return resp, nil
}

// mapDeadlineErr turns an I/O deadline expiry into the bound that caused it:
// the caller's context error when the context ended, otherwise the per-call
// timeout (as ErrCallTimeout) when that was the deadline armed. Either way
// the lock-step connection is left mid-exchange and must be discarded.
func (c *Client) mapDeadlineErr(ctx context.Context, err error, perCall bool) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("transport: lock-step call interrupted (connection unusable): %w", ctxErr)
	}
	if perCall {
		return fmt.Errorf("transport: %w (per-call timeout %v, lock-step connection unusable)", ErrCallTimeout, c.opts.CallTimeout)
	}
	return err
}

// callDeadline resolves the earliest of the caller's context deadline and the
// per-call timeout; perCall reports that the timeout is the binding bound.
func (o Options) callDeadline(ctx context.Context) (deadline time.Time, perCall bool) {
	if o.CallTimeout > 0 {
		deadline, perCall = time.Now().Add(o.CallTimeout), true
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline, perCall = d, false
	}
	return deadline, perCall
}

// caller abstracts the two client framings for the shared operation wrappers.
type caller interface {
	call(ctx context.Context, op byte, body []byte) ([]byte, error)
}

// doSubmit racks a marshalled request package and returns its request ID.
func doSubmit(ctx context.Context, c caller, raw []byte) (string, error) {
	resp, err := c.call(ctx, OpSubmit, raw)
	if err != nil {
		return "", err
	}
	return string(resp), nil
}

// doSweep screens the rack with the query's residue sets.
func doSweep(ctx context.Context, c caller, q broker.SweepQuery) (broker.SweepResult, error) {
	resp, err := c.call(ctx, OpSweep, broker.MarshalSweepQuery(q))
	if err != nil {
		return broker.SweepResult{}, err
	}
	return broker.UnmarshalSweepResult(resp)
}

// doReply posts a marshalled reply for the given request.
func doReply(ctx context.Context, c caller, requestID string, raw []byte) error {
	_, err := c.call(ctx, OpReply, broker.MarshalReplyPost(requestID, raw))
	return err
}

// doFetch drains the replies queued for a request.
func doFetch(ctx context.Context, c caller, requestID string) ([][]byte, error) {
	resp, err := c.call(ctx, OpFetch, []byte(requestID))
	if err != nil {
		return nil, err
	}
	return broker.UnmarshalRawList(resp)
}

// doStats snapshots the rack's counters.
func doStats(ctx context.Context, c caller) (broker.Stats, error) {
	resp, err := c.call(ctx, OpStats, nil)
	if err != nil {
		return broker.Stats{}, err
	}
	return broker.UnmarshalStats(resp)
}

// doRemove takes a bottle off the rack.
func doRemove(ctx context.Context, c caller, requestID string) (bool, error) {
	resp, err := c.call(ctx, OpRemove, []byte(requestID))
	if err != nil {
		return false, err
	}
	return len(resp) == 1 && resp[0] == 1, nil
}

// doSubmitBatch racks several packages in one round trip.
func doSubmitBatch(ctx context.Context, c caller, raws [][]byte) ([]broker.SubmitResult, error) {
	resp, err := c.call(ctx, OpSubmitBatch, broker.MarshalRawList(raws))
	if err != nil {
		return nil, err
	}
	return broker.UnmarshalSubmitResults(resp)
}

// doReplyBatch posts several replies in one round trip.
func doReplyBatch(ctx context.Context, c caller, posts []broker.ReplyPost) ([]error, error) {
	resp, err := c.call(ctx, OpReplyBatch, broker.MarshalReplyBatch(posts))
	if err != nil {
		return nil, err
	}
	return broker.UnmarshalErrorList(resp)
}

// doFetchBatch drains replies for several requests in one round trip.
func doFetchBatch(ctx context.Context, c caller, ids []string) ([]broker.FetchResult, error) {
	resp, err := c.call(ctx, OpFetchBatch, broker.MarshalIDList(ids))
	if err != nil {
		return nil, err
	}
	return broker.UnmarshalFetchResults(resp)
}

// doHint asks the rack to queue handoff records for an unreachable peer.
func doHint(ctx context.Context, c caller, dest string, recs []broker.HandoffRecord) (int, error) {
	resp, err := c.call(ctx, OpHint, broker.MarshalHint(dest, recs))
	if err != nil {
		return 0, err
	}
	return parseCount(resp)
}

// doHandoff delivers handoff records to the rack for application.
func doHandoff(ctx context.Context, c caller, recs []broker.HandoffRecord) (int, error) {
	resp, err := c.call(ctx, OpHandoff, broker.MarshalHandoffRecords(recs))
	if err != nil {
		return 0, err
	}
	return parseCount(resp)
}

// doPeers sends one peer-table update and returns the resulting table.
func doPeers(ctx context.Context, c caller, verb byte, name, addr string) (map[string]string, error) {
	resp, err := c.call(ctx, OpPeers, broker.MarshalPeerUpdate(verb, name, addr))
	if err != nil {
		return nil, err
	}
	return broker.UnmarshalPeerList(resp)
}

// Submit racks a marshalled request package and returns its request ID.
func (c *Client) Submit(ctx context.Context, raw []byte) (string, error) {
	return doSubmit(ctx, c, raw)
}

// Sweep screens the rack with the query's residue sets.
func (c *Client) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	return doSweep(ctx, c, q)
}

// Reply posts a marshalled reply for the given request.
func (c *Client) Reply(ctx context.Context, requestID string, raw []byte) error {
	return doReply(ctx, c, requestID, raw)
}

// Fetch drains the replies queued for a request.
func (c *Client) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	return doFetch(ctx, c, requestID)
}

// Stats snapshots the rack's counters.
func (c *Client) Stats(ctx context.Context) (broker.Stats, error) { return doStats(ctx, c) }

// Remove takes a bottle off the rack; it reports whether the bottle was held.
func (c *Client) Remove(ctx context.Context, requestID string) (bool, error) {
	return doRemove(ctx, c, requestID)
}

// SubmitBatch racks several packages in one round trip, returning per-item
// outcomes.
func (c *Client) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	return doSubmitBatch(ctx, c, raws)
}

// ReplyBatch posts several replies in one round trip, returning per-item
// outcomes.
func (c *Client) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	return doReplyBatch(ctx, c, posts)
}

// FetchBatch drains replies for several requests in one round trip, returning
// per-item outcomes.
func (c *Client) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	return doFetchBatch(ctx, c, ids)
}

// Hint asks the rack to queue handoff records for an unreachable peer; it
// returns how many were accepted.
func (c *Client) Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	return doHint(ctx, c, dest, recs)
}

// Handoff delivers handoff records to the rack; it returns how many applied.
func (c *Client) Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error) {
	return doHandoff(ctx, c, recs)
}

// SetPeer adds or updates a peer in the rack's table, returning the table.
func (c *Client) SetPeer(ctx context.Context, name, addr string) (map[string]string, error) {
	return doPeers(ctx, c, broker.PeerVerbSet, name, addr)
}

// RemovePeer drops a peer from the rack's table, returning the table.
func (c *Client) RemovePeer(ctx context.Context, name string) (map[string]string, error) {
	return doPeers(ctx, c, broker.PeerVerbDel, name, "")
}

// Peers snapshots the rack's peer table.
func (c *Client) Peers(ctx context.Context) (map[string]string, error) {
	return doPeers(ctx, c, broker.PeerVerbList, "", "")
}

// Submit racks a marshalled request package and returns its request ID.
func (m *Mux) Submit(ctx context.Context, raw []byte) (string, error) {
	return doSubmit(ctx, m, raw)
}

// Sweep screens the rack with the query's residue sets.
func (m *Mux) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	return doSweep(ctx, m, q)
}

// Reply posts a marshalled reply for the given request.
func (m *Mux) Reply(ctx context.Context, requestID string, raw []byte) error {
	return doReply(ctx, m, requestID, raw)
}

// Fetch drains the replies queued for a request.
func (m *Mux) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	return doFetch(ctx, m, requestID)
}

// Stats snapshots the rack's counters.
func (m *Mux) Stats(ctx context.Context) (broker.Stats, error) { return doStats(ctx, m) }

// Remove takes a bottle off the rack; it reports whether the bottle was held.
func (m *Mux) Remove(ctx context.Context, requestID string) (bool, error) {
	return doRemove(ctx, m, requestID)
}

// SubmitBatch racks several packages in one round trip, returning per-item
// outcomes.
func (m *Mux) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	return doSubmitBatch(ctx, m, raws)
}

// ReplyBatch posts several replies in one round trip, returning per-item
// outcomes.
func (m *Mux) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	return doReplyBatch(ctx, m, posts)
}

// FetchBatch drains replies for several requests in one round trip, returning
// per-item outcomes.
func (m *Mux) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	return doFetchBatch(ctx, m, ids)
}

// Hint asks the rack to queue handoff records for an unreachable peer; it
// returns how many were accepted.
func (m *Mux) Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	return doHint(ctx, m, dest, recs)
}

// Handoff delivers handoff records to the rack; it returns how many applied.
func (m *Mux) Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error) {
	return doHandoff(ctx, m, recs)
}

// SetPeer adds or updates a peer in the rack's table, returning the table.
func (m *Mux) SetPeer(ctx context.Context, name, addr string) (map[string]string, error) {
	return doPeers(ctx, m, broker.PeerVerbSet, name, addr)
}

// RemovePeer drops a peer from the rack's table, returning the table.
func (m *Mux) RemovePeer(ctx context.Context, name string) (map[string]string, error) {
	return doPeers(ctx, m, broker.PeerVerbDel, name, "")
}

// Peers snapshots the rack's peer table.
func (m *Mux) Peers(ctx context.Context) (map[string]string, error) {
	return doPeers(ctx, m, broker.PeerVerbList, "", "")
}
