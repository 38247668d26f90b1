// Package client is the courier SDK for the bottle-rack broker: the one
// client-side implementation of the rendezvous protocol that every consumer
// (cmd/loadgen, the scenario runner, the examples)
// builds on, so protocol behaviour — pooling, retry discipline, batching —
// is decided once, here, rather than per caller. The public surface of the
// module — the root sealedbottle package — re-exports everything here; new
// external code should import that instead.
//
// Every layer implements the one canonical broker.Backend interface
// (context-first Submit/SubmitBatch/Sweep/Reply/ReplyBatch/Fetch/FetchBatch/
// Remove/Stats/Close), so racks, couriers and rings compose interchangeably.
//
// The pieces:
//
//   - Courier (Dial) is the connection layer: a pool of lazily-dialed
//     multiplexed transport connections (Config.Conns) with transparent
//     redial. Its retry rule is the part worth knowing: a RemoteError means
//     the server executed and answered, and is returned as-is, never retried;
//     a canceled or timed-out call (transport.AbandonedError) left the
//     connection healthy and is likewise never retried; a transport-level
//     failure recycles the
//     connection and retries once on a fresh one, but only for the truly
//     idempotent operations (Sweep, Stats) — a Submit or Reply whose frame
//     may have reached the server is not replayed, because doing so could
//     double-apply it; a Remove is not replayed because the retry would
//     answer held=false for a bottle the first attempt removed; and a Fetch
//     is not replayed because it drains destructively — the lost response may
//     have carried replies a retry would silently swallow.
//   - Sweeper (NewSweeper) is the candidate-side loop: compute residue sets
//     for the rack's live primes, sweep, evaluate returned bottles locally
//     with the full core.Matcher, post replies batched (transport-failed
//     posts are queued and retried next tick, never silently lost). It
//     keeps one arrival cursor per rack, so each rack hands over each
//     passing bottle once and keeps no state for it, and a bounded window
//     of swept IDs to drop the copies a second rack hands over.
//   - Ring (NewRing) scales all of the above out to a cluster: it implements
//     the same Backend surface over N rack endpoints, placing every bottle
//     on its top-R racks by rendezvous hashing of its ID, fanning sweeps out
//     to every healthy rack, and sending Reply/Fetch/Remove to those same
//     racks — the other healthy racks only when all of them answer "unknown
//     bottle" — with per-rack failure ejection and probe-based
//     re-admission.
//
// Cancellation is honored end to end: a context that ends mid-call abandons
// the in-flight wire call (the pipelined connection keeps serving other
// callers), stops ring fan-outs from dispatching further, and stops a rack
// between shard visits. The wire protocol the courier speaks is specified in
// docs/PROTOCOL.md; the broker it talks to is internal/broker served by
// internal/broker/transport.
package client

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
)

// Errors of the courier.
var (
	// ErrNoEndpoint indicates a Config with neither Addr nor Dialer.
	ErrNoEndpoint = errors.New("client: config needs an Addr or a Dialer")
	// ErrCourierClosed indicates an operation on a closed courier.
	ErrCourierClosed = errors.New("client: courier closed")
)

// DefaultCallTimeout bounds one round trip unless the config overrides it; it
// is what turns a dead broker into an error instead of a hung goroutine.
const DefaultCallTimeout = 30 * time.Second

// Config tunes a Courier.
type Config struct {
	// Addr is the broker's TCP address.
	Addr string
	// Dialer, when non-nil, replaces TCP dialing (e.g. a pipe listener's Dial
	// for in-process deployments). It must return a fresh connection per call.
	Dialer func() (net.Conn, error)
	// Conns is the connection pool size (zero: 1). One multiplexed connection
	// already sustains many in-flight calls; more spread load across server
	// read loops.
	Conns int
	// CallTimeout bounds one round trip (zero: DefaultCallTimeout; negative:
	// no limit). It composes with the caller's context deadline — the
	// earliest bound wins, and the returned error says which fired. On
	// multiplexed connections it doubles as the progress deadline that turns
	// a dead peer into an error.
	CallTimeout time.Duration
	// WriteTimeout bounds one frame write (zero: CallTimeout governs).
	WriteTimeout time.Duration
	// TLS, when set, wraps every dialed connection (including Dialer-provided
	// ones) in a TLS client stream; a zero ServerName verifies against the
	// Addr host.
	TLS *tls.Config
	// Token is a capability token (internal/auth) presented on every dialed
	// connection; the broker pins the courier's operations and bottle
	// ownership to its identity. Empty sends none.
	Token []byte
	// Metrics, when set, records per-opcode round-trip latency and error
	// counts on every pooled connection. One ClientMetrics may be shared by
	// many couriers (a ring passes its template's to every rack) so the
	// series aggregate.
	Metrics *transport.ClientMetrics
}

// slot is one pooled connection, dialed lazily and discarded on failure.
type slot struct {
	mu sync.Mutex
	c  *transport.Mux
}

// Courier is the unified broker client: a pool of lazily-dialed multiplexed
// transport connections with transparent redial. Methods are safe for
// concurrent use; concurrent calls pipeline onto the pooled connections.
// Remote (per-operation) errors are returned as-is and never
// recycle a connection; abandoned calls (context ended, per-call timeout)
// leave the connection serving; transport-level failures discard the
// connection and retry once on a fresh one when the operation is idempotent.
type Courier struct {
	cfg    Config
	slots  []slot
	next   atomic.Uint64
	closed atomic.Bool
}

// The courier implements the canonical Backend surface.
var _ broker.Backend = (*Courier)(nil)

// Dial builds a courier. Connections are dialed lazily, so Dial succeeds even
// while the broker is down; the first operation reports the dial error.
func Dial(cfg Config) (*Courier, error) {
	if cfg.Addr == "" && cfg.Dialer == nil {
		return nil, ErrNoEndpoint
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = DefaultCallTimeout
	} else if cfg.CallTimeout < 0 {
		cfg.CallTimeout = 0
	}
	return &Courier{cfg: cfg, slots: make([]slot, cfg.Conns)}, nil
}

// Close closes every pooled connection; subsequent operations fail with
// ErrCourierClosed. Taking each slot's lock after marking closed means a
// concurrent acquire either observes closed before dialing or has its fresh
// connection swept here — nothing leaks.
func (c *Courier) Close() error {
	c.closed.Store(true)
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		if s.c != nil {
			s.c.Close()
			s.c = nil
		}
		s.mu.Unlock()
	}
	return nil
}

// dialConn opens one multiplexed transport connection per the config.
func (c *Courier) dialConn() (*transport.Mux, error) {
	var nc net.Conn
	var err error
	if c.cfg.Dialer != nil {
		nc, err = c.cfg.Dialer()
	} else {
		nc, err = net.Dial("tcp", c.cfg.Addr)
	}
	if err != nil {
		return nil, err
	}
	if c.cfg.TLS != nil {
		tc := c.cfg.TLS.Clone()
		if tc.ServerName == "" && !tc.InsecureSkipVerify {
			if host, _, err := net.SplitHostPort(c.cfg.Addr); err == nil {
				tc.ServerName = host
			}
		}
		nc = tls.Client(nc, tc)
	}
	return transport.NewMux(nc, transport.Options{CallTimeout: c.cfg.CallTimeout, WriteTimeout: c.cfg.WriteTimeout, Token: c.cfg.Token, Metrics: c.cfg.Metrics})
}

// acquire returns the slot's connection, dialing if it has none. The closed
// check under the slot lock orders against Close's sweep of the same lock.
func (s *slot) acquire(c *Courier) (*transport.Mux, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrCourierClosed
	}
	if s.c != nil {
		return s.c, nil
	}
	cn, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	s.c = cn
	return cn, nil
}

// recycle discards a connection observed failing. Another call may have
// recycled and redialed the slot already; only the observed connection is
// cleared.
func (s *slot) recycle(old *transport.Mux) {
	s.mu.Lock()
	if s.c == old {
		s.c = nil
	}
	s.mu.Unlock()
	old.Close()
}

// do runs one operation over a pooled connection, redialing dead slots.
// Remote errors are returned without retry — the server executed and
// answered. An abandoned call (context ended or per-call timeout) is
// returned without retry or recycle: the connection underneath is still
// healthy, only the caller stopped waiting. A transport-level failure
// recycles the connection; the operation itself is re-attempted on a fresh
// connection only when idempotent is true, because once a frame may have
// reached the server a mutating operation (Submit, Reply and their batches)
// may have executed — retrying it could double-apply it or turn a success
// into a duplicate error. Dial failures always permit one more attempt:
// nothing was sent.
func do[T any](ctx context.Context, c *Courier, idempotent bool, fn func(*transport.Mux) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if c.closed.Load() {
			return zero, ErrCourierClosed
		}
		s := &c.slots[c.next.Add(1)%uint64(len(c.slots))]
		cn, err := s.acquire(c)
		if err != nil {
			if errors.Is(err, ErrCourierClosed) {
				return zero, err
			}
			lastErr = err
			continue
		}
		v, err := fn(cn)
		if err == nil {
			return v, nil
		}
		var re *transport.RemoteError
		if errors.As(err, &re) {
			return zero, err
		}
		var ab *transport.AbandonedError
		if errors.As(err, &ab) {
			// The caller's bound fired and the connection survived (the
			// abandoned sequence is discarded on arrival): no recycle, no
			// replay.
			return zero, err
		}
		// Anything else poisons the connection and it must not be pooled.
		s.recycle(cn)
		if ctx.Err() != nil {
			// The caller stopped waiting; never replay on a fresh connection.
			return zero, err
		}
		lastErr = err
		if !idempotent || errors.Is(err, transport.ErrCallTimeout) {
			break
		}
	}
	return zero, lastErr
}

// Submit racks a marshalled request package and returns its request ID.
func (c *Courier) Submit(ctx context.Context, raw []byte) (string, error) {
	return do(ctx, c, false, func(cn *transport.Mux) (string, error) { return cn.Submit(ctx, raw) })
}

// Sweep screens the rack with the query's residue sets.
func (c *Courier) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	return do(ctx, c, true, func(cn *transport.Mux) (broker.SweepResult, error) { return cn.Sweep(ctx, q) })
}

// Reply posts a marshalled reply for the given request.
func (c *Courier) Reply(ctx context.Context, requestID string, raw []byte) error {
	_, err := do(ctx, c, false, func(cn *transport.Mux) (struct{}, error) {
		return struct{}{}, cn.Reply(ctx, requestID, raw)
	})
	return err
}

// Fetch drains the replies queued for a request. Fetching is destructive —
// the server empties the queue as it answers — so like Remove it is never
// auto-retried after a transport failure: the lost response may have carried
// drained replies, and a retry would find an empty queue and report a clean
// ([], nil) that silently swallows them. The transport error keeps the
// possible loss visible to the caller.
func (c *Courier) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	return do(ctx, c, false, func(cn *transport.Mux) ([][]byte, error) { return cn.Fetch(ctx, requestID) })
}

// Stats snapshots the rack's counters.
func (c *Courier) Stats(ctx context.Context) (broker.Stats, error) {
	return do(ctx, c, true, func(cn *transport.Mux) (broker.Stats, error) { return cn.Stats(ctx) })
}

// Remove takes a bottle off the rack; it reports whether the bottle was
// held. Unlike the other read-side operations, Remove is never retried after
// a transport failure: the lost frame may have reached the server and
// removed the bottle, and a retried Remove would then answer held=false for
// a bottle that *was* removed by this very call. The transport error keeps
// that ambiguity visible; callers that need certainty re-issue the Remove
// themselves and treat held=false as "gone, possibly by my earlier attempt"
// (see docs/PROTOCOL.md §2 on Remove idempotency).
func (c *Courier) Remove(ctx context.Context, requestID string) (bool, error) {
	return do(ctx, c, false, func(cn *transport.Mux) (bool, error) { return cn.Remove(ctx, requestID) })
}

// SubmitBatch racks several packages in one round trip, one outcome per item.
func (c *Courier) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	return do(ctx, c, false, func(cn *transport.Mux) ([]broker.SubmitResult, error) { return cn.SubmitBatch(ctx, raws) })
}

// ReplyBatch posts several replies in one round trip, one outcome per item.
func (c *Courier) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	return do(ctx, c, false, func(cn *transport.Mux) ([]error, error) { return cn.ReplyBatch(ctx, posts) })
}

// FetchBatch drains several reply queues in one round trip, one outcome per
// item. Like Fetch it drains destructively and is therefore never
// auto-retried after a transport failure.
func (c *Courier) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	return do(ctx, c, false, func(cn *transport.Mux) ([]broker.FetchResult, error) { return cn.FetchBatch(ctx, ids) })
}

// FetchMany drains replies for several request IDs through any Backend in one
// batched round trip, returning one outcome per ID. A whole-call failure is
// surfaced on every item that got no definite outcome — never papered over
// with per-item re-fetches: fetching drains destructively, so a failed batch
// may already have drained queues whose responses were lost, and a re-fetch
// would find them empty and report a clean nothing where replies vanished
// (the same reason Courier.Fetch is never auto-retried, docs/PROTOCOL.md
// §2.1.2). Items that did complete (a rack-side partial batch, e.g. under
// cancellation) keep their real replies and errors.
func FetchMany(ctx context.Context, b broker.Backend, ids []string) []broker.FetchResult {
	if len(ids) == 0 {
		return nil
	}
	results, err := b.FetchBatch(ctx, ids)
	if err == nil {
		return results
	}
	if len(results) != len(ids) {
		results = make([]broker.FetchResult, len(ids))
	}
	for i := range results {
		if results[i].Err == nil && len(results[i].Replies) == 0 {
			results[i].Err = err
		}
	}
	return results
}
