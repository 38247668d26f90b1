// Package transport layers the bottle-rack broker's request/response
// protocol over net.Conn: a TCP server for real deployments plus an
// in-memory pipe listener (pipe.go) for tests and in-process load
// generation. The full wire specification — framing, opcodes, body
// encodings, error and deadline semantics — lives in docs/PROTOCOL.md; this
// package is its reference implementation.
//
// A connection opens with the "SBM1" preamble (mux.go); every frame after it
// carries a 4-byte big-endian length, an 8-byte sequence number, a 1-byte
// opcode (requests) or status (responses), and an operation-specific body
// encoded by the broker package's codec, so one connection sustains many
// in-flight calls and the server may respond out of order. The server closes
// a connection that opens with anything else without answering it.
//
// Operational behaviour worth knowing:
//
//   - Responses with a nonzero status carry the error text and become
//     *RemoteError on the client — proof the server executed, so pools must
//     not retry. The status byte is 0x10 plus a one-byte error code
//     (broker.ErrCode, docs/PROTOCOL.md §1.3.1) that RemoteError decodes
//     back into the broker/core sentinels, so errors.Is works identically
//     in-process and over TCP.
//   - Every client call takes a context. A context that ends (or the
//     per-call CallTimeout) abandons only that call — the sequence number is
//     forgotten, a late response is discarded, the connection keeps serving —
//     surfaced as *AbandonedError so pools know not to recycle.
//   - The server runs cheap opcodes inline in frame order and hands heavy
//     ones (Sweep, Stats, the batches) to workers the connection keeps (at
//     most ServerOptions.MaxInflight, with read back-pressure at the bound).
//   - Nothing is spawned to write: whoever produced a frame writes it, with
//     the frames queued meanwhile, through a 64 KiB buffer, so a pipelined
//     burst rides a handful of syscalls; only the caller inside write(2) can
//     be held past its context, for at most its write deadline.
//   - Nothing is spawned to read on the client either: a waiting caller
//     takes the connection's read turn, reads frames, hands other callers'
//     responses to them and returns with its own. Its context cuts even its
//     read(2) short, and the next caller resumes the frame it was reading.
//     A response due to a call given up on is still read — by a short-lived
//     goroutine that holds the turn whenever no caller does — so the peer
//     is never left blocked writing it. A peer that closes an idle connection is seen by the next
//     call.
//   - Deadlines make dead peers errors instead of hangs: the server's
//     ReadIdleTimeout/WriteTimeout, and the client's CallTimeout — both a
//     per-call bound (abandons one call) and a progress bound (no response
//     at all while calls pend fails the whole connection).
//
// Frames are bounded by MaxFrameSize (16 MiB), checked before allocation on
// both ends. New code should dial through the public sealedbottle package
// (or internal/client) rather than using Mux directly.
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

// statusOK is the status byte of a successful response. An error response
// carries broker.OutcomeCodeBase+code, the error's one-byte wire code offset
// the same way as a batch item's outcome flag.
const statusOK byte = 0

// statusOf encodes an operation error as a response status byte.
func statusOf(err error) byte {
	return broker.OutcomeCodeBase + byte(broker.ErrCodeOf(err))
}

// responseError builds the client-side error for a nonzero response status:
// a *RemoteError carrying the status's code, or a malformed-frame error for
// a status below broker.OutcomeCodeBase, which carries no code.
func responseError(status byte, body []byte) error {
	if status < broker.OutcomeCodeBase {
		return fmt.Errorf("%w: uncoded response status %#x", broker.ErrMalformedFrame, status)
	}
	return &RemoteError{Msg: string(body), Code: broker.ErrCode(status - broker.OutcomeCodeBase)}
}

// MaxFrameSize bounds a single frame; larger frames are rejected before
// allocation so a malicious peer cannot ask the server to allocate gigabytes.
const MaxFrameSize = 16 << 20

// DefaultMaxInflight bounds concurrently executing requests per connection;
// past it the server stops reading the connection (backpressure) until a
// slot frees up.
const DefaultMaxInflight = 64

// Errors of the framed protocol.
var (
	// ErrFrameTooLarge indicates a frame exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	// ErrShortFrame indicates a frame without a sequence number and tag.
	ErrShortFrame = errors.New("transport: frame too short")
)

// RemoteError is an error reported by the server for one operation: the
// request was delivered and answered, so callers (connection pools in
// particular) must not treat it as a connection failure or retry it.
type RemoteError struct {
	// Msg is the server-side error text.
	Msg string
	// Code is the one-byte wire classification carried by the response's
	// status byte.
	Code broker.ErrCode
}

func (e *RemoteError) Error() string { return "transport: remote error: " + e.Msg }

// Unwrap exposes the code's broker/core sentinel, so
// errors.Is(err, broker.ErrUnknownBottle) and friends hold for transported
// errors exactly as they do in-process. Codes without a sentinel (internal,
// unknown) unwrap to nothing.
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

// Options tunes a Mux.
type Options struct {
	// CallTimeout bounds one round trip; zero means no limit. It abandons a
	// call that got no response in time, and it is the connection's progress
	// deadline: whenever calls are pending, some response must arrive within
	// CallTimeout or the connection fails entirely with ErrCallTimeout.
	CallTimeout time.Duration
	// WriteTimeout bounds a single frame write (zero: CallTimeout governs).
	WriteTimeout time.Duration
	// Token is a capability token (internal/auth) presented to the server in
	// a HELLO preamble before the framing bytes; empty sends no preamble.
	// Against a server that requires authentication, a connection without a
	// valid token still works at the wire level but receives
	// broker.ErrUnauthorized for every operation.
	Token []byte
	// TLS, when set, wraps connections opened by DialMux in a TLS client
	// stream (a zero-ServerName config verifies against the dialed host).
	// NewMux callers that bring their own connection wrap it themselves
	// before handing it over.
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
	// MaxInflight bounds concurrently executing requests per connection
	// (zero: DefaultMaxInflight).
	MaxInflight int
	// Replica, when set, serves the replication opcodes (OpHint, OpHandoff,
	// OpPeers) and folds the handler's counters into OpStats; when nil those
	// opcodes answer with an error.
	Replica ReplicaHandler
	// TLS, when set, wraps every accepted connection in a TLS server stream
	// before any bytes are read; the preamble check then runs inside the
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
	// error counters, and byte counters for every dispatched operation.
	Metrics *ServerMetrics
}

func (o ServerOptions) maxInflight() int {
	if o.MaxInflight > 0 {
		return o.MaxInflight
	}
	return DefaultMaxInflight
}

// Server serves rack operations over accepted connections.
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
// served by its own goroutine and executes up to MaxInflight requests
// concurrently.
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

// serveConn authenticates the connection and checks its framing preamble: an
// optional TLS wrap first (so everything below travels inside the encrypted
// stream), then an optional HELLO preamble pinning the caller's identity,
// then the four bytes of the mux magic. A connection that opens with
// anything else — a revision-5 lock-step frame among them — is closed with
// nothing dispatched and nothing written. Reads go through one buffered
// reader per connection.
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
	if binary.BigEndian.Uint32(first[:]) != MuxMagic {
		return
	}
	s.serveMux(stream, br, ca)
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

// Submit racks a marshalled request package and returns its request ID.
func (m *Mux) Submit(ctx context.Context, raw []byte) (string, error) {
	resp, err := m.call(ctx, OpSubmit, raw)
	if err != nil {
		return "", err
	}
	return string(resp), nil
}

// Sweep screens the rack with the query's residue sets.
func (m *Mux) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	resp, err := m.call(ctx, OpSweep, broker.MarshalSweepQuery(q))
	if err != nil {
		return broker.SweepResult{}, err
	}
	return broker.UnmarshalSweepResult(resp)
}

// Reply posts a marshalled reply for the given request.
func (m *Mux) Reply(ctx context.Context, requestID string, raw []byte) error {
	_, err := m.call(ctx, OpReply, broker.AppendReplyPost(nil, requestID, raw))
	return err
}

// Fetch drains the replies queued for a request.
func (m *Mux) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	resp, err := m.call(ctx, OpFetch, []byte(requestID))
	if err != nil {
		return nil, err
	}
	return broker.UnmarshalRawList(resp)
}

// Stats snapshots the rack's counters.
func (m *Mux) Stats(ctx context.Context) (broker.Stats, error) {
	resp, err := m.call(ctx, OpStats, nil)
	if err != nil {
		return broker.Stats{}, err
	}
	return broker.UnmarshalStats(resp)
}

// Remove takes a bottle off the rack; it reports whether the bottle was held.
func (m *Mux) Remove(ctx context.Context, requestID string) (bool, error) {
	resp, err := m.call(ctx, OpRemove, []byte(requestID))
	if err != nil {
		return false, err
	}
	return len(resp) == 1 && resp[0] == 1, nil
}

// SubmitBatch racks several packages in one round trip, returning per-item
// outcomes. Like ReplyBatch and FetchBatch, it refuses an answer that does
// not carry one outcome per item as broker.ErrMalformedFrame.
func (m *Mux) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	resp, err := m.call(ctx, OpSubmitBatch, broker.MarshalRawList(raws))
	if err != nil {
		return nil, err
	}
	out, err := broker.UnmarshalSubmitResults(resp)
	return out, broker.CheckListAnswer(len(out), len(raws), err)
}

// ReplyBatch posts several replies in one round trip, returning per-item
// outcomes.
func (m *Mux) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	resp, err := m.call(ctx, OpReplyBatch, broker.MarshalReplyBatch(posts))
	if err != nil {
		return nil, err
	}
	out, err := broker.UnmarshalErrorList(resp)
	return out, broker.CheckListAnswer(len(out), len(posts), err)
}

// FetchBatch drains replies for several requests in one round trip, returning
// per-item outcomes.
func (m *Mux) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	resp, err := m.call(ctx, OpFetchBatch, broker.MarshalIDList(ids))
	if err != nil {
		return nil, err
	}
	out, err := broker.UnmarshalFetchResults(resp)
	return out, broker.CheckListAnswer(len(out), len(ids), err)
}

// Hint asks the rack to queue handoff records for an unreachable peer; it
// returns how many were accepted.
func (m *Mux) Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	resp, err := m.call(ctx, OpHint, broker.MarshalHint(dest, recs))
	if err != nil {
		return 0, err
	}
	return parseCount(resp)
}

// Handoff delivers handoff records to the rack; it returns how many applied.
func (m *Mux) Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error) {
	resp, err := m.call(ctx, OpHandoff, broker.MarshalHandoffRecords(recs))
	if err != nil {
		return 0, err
	}
	return parseCount(resp)
}

// SetPeer adds or updates a peer in the rack's table, returning the table.
func (m *Mux) SetPeer(ctx context.Context, name, addr string) (map[string]string, error) {
	return m.peers(ctx, broker.PeerVerbSet, name, addr)
}

// RemovePeer drops a peer from the rack's table, returning the table.
func (m *Mux) RemovePeer(ctx context.Context, name string) (map[string]string, error) {
	return m.peers(ctx, broker.PeerVerbDel, name, "")
}

// Peers snapshots the rack's peer table.
func (m *Mux) Peers(ctx context.Context) (map[string]string, error) {
	return m.peers(ctx, broker.PeerVerbList, "", "")
}

// peers sends one peer-table update and returns the resulting table.
func (m *Mux) peers(ctx context.Context, verb byte, name, addr string) (map[string]string, error) {
	resp, err := m.call(ctx, OpPeers, broker.MarshalPeerUpdate(verb, name, addr))
	if err != nil {
		return nil, err
	}
	return broker.UnmarshalPeerList(resp)
}
