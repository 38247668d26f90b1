package client

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/core"
)

// DefaultSeenCap bounds the window of evaluated IDs a sweeper has the racks
// exclude; without a bound a long-lived sweeper would cost every rack memory
// linear in its lifetime. IDs that fall out of the window may be swept again;
// the participant's own duplicate suppression drops them.
const DefaultSeenCap = 4096

// SweeperConfig configures a Sweeper.
type SweeperConfig struct {
	// Participant evaluates swept bottles and produces replies (required).
	Participant *core.Participant
	// Primes lists the remainder primes to screen against
	// (nil: core.DefaultPrime only).
	Primes []uint32
	// Limit caps bottles per sweep (zero: the broker's default).
	Limit int
	// SeenCap bounds the seen-ID window (zero: DefaultSeenCap; at most
	// broker.MaxSeenCap).
	SeenCap int
	// ExcludeOrigin skips bottles submitted by this origin server-side.
	ExcludeOrigin string
	// Skip, when non-nil, drops a swept bottle by request ID before it is
	// unmarshalled (e.g. one's own requests in a shared-identity setup).
	Skip func(requestID string) bool
	// OnResult, when non-nil, observes every evaluated bottle with the
	// participant's verdict, before its reply (if any) is posted.
	OnResult func(pkg *core.RequestPackage, res *core.HandleResult)
	// Metrics, when non-nil, records every completed tick (duration
	// histogram plus the TickStats counters). One SweeperMetrics is shared
	// by all sweepers of a process so the series aggregate.
	Metrics *SweeperMetrics
}

// TickStats summarizes one sweep-evaluate-reply cycle.
type TickStats struct {
	// Swept is the number of bottles the broker returned.
	Swept int
	// Evaluated is the number run through the participant machinery.
	Evaluated int
	// Matches is the number the participant confirmed locally (Protocol 1).
	Matches int
	// Replies is the number of replies posted successfully.
	Replies int
	// ReplyErrors is the number of reply posts that failed this tick (bottle
	// expired between sweep and reply, transport hiccup); the paper's
	// analogue of an undeliverable unicast. Transport-level failures are
	// queued and retried on the next Tick, so a hiccup shows up here without
	// losing the reply; a definitive broker answer drops it for good.
	ReplyErrors int
	// Duplicates is the number of swept bottles dropped as replica copies of
	// a bottle already handled this tick (same untagged ID, different rack).
	Duplicates int
	// Scanned and Rejected echo the broker's screening counters for the sweep.
	Scanned, Rejected int
	// Truncated reports that more bottles passed the prefilter than Limit
	// allowed; another tick will pick them up.
	Truncated bool
	// Resyncs is 1 when a rack no longer held the sweeper's window and the
	// sweep was repeated with the whole window attached (0 otherwise).
	Resyncs int
}

// Sweeper drives the candidate side of the rendezvous protocol: each Tick
// sweeps the rack with the participant's residue sets, evaluates every
// returned bottle with the full Matcher machinery, posts the resulting
// replies batched, and remembers evaluated IDs so the next sweep spends its
// limit on fresh bottles. The racks hold a copy of that window under the
// sweeper's handle, so a query carries only the IDs added since the last
// sweep that succeeded. It is the single implementation of the loop that
// loadgen, the msn simulator and the examples previously each hand-rolled.
// It runs against any Backend — an in-process rack, a courier, a whole ring.
// Not safe for concurrent use; run one Sweeper per goroutine (they may share
// a Courier).
type Sweeper struct {
	rv       broker.Backend
	cfg      SweeperConfig
	residues []core.ResidueSet
	// seen is the window of evaluated IDs; window is the handle the racks
	// hold their copy under, and acked is seen.Total() as of the last sweep
	// that succeeded — what the racks' copies stand at.
	seen   *broker.SeenWindow
	window uint64
	acked  uint64
	// full says the next query carries the whole window whatever acked is:
	// some rack of a ring did not answer the last one and has missed its delta.
	full bool
	// delta backs the per-tick list of IDs added since acked.
	delta []string
	// pending holds replies whose post failed at the transport level; they
	// are retried on the next Tick. Without it a failed post lost the reply
	// forever: the bottle was already in the seen window (and in the
	// participant's duplicate suppression), so no future sweep would ever
	// reproduce the reply.
	pending []broker.ReplyPost
}

// maxPendingReplies bounds the failed-post retry queue; beyond it the oldest
// replies are shed (their post failures were already reported).
const maxPendingReplies = 1024

// NewSweeper builds a sweeper, computing the participant's residue sets once.
func NewSweeper(rv broker.Backend, cfg SweeperConfig) (*Sweeper, error) {
	if rv == nil {
		return nil, errors.New("client: sweeper needs a rendezvous")
	}
	if cfg.Participant == nil {
		return nil, errors.New("client: sweeper needs a participant")
	}
	if len(cfg.Primes) == 0 {
		cfg.Primes = []uint32{core.DefaultPrime}
	}
	if cfg.SeenCap <= 0 {
		cfg.SeenCap = DefaultSeenCap
	}
	if cfg.SeenCap > broker.MaxSeenCap {
		return nil, fmt.Errorf("client: sweeper SeenCap %d exceeds the %d racks hold", cfg.SeenCap, broker.MaxSeenCap)
	}
	// The handle names this sweeper's window on every rack; random, so that
	// sweepers sharing an identity never share a window, and nonzero.
	var handle [8]byte
	if _, err := rand.Read(handle[:]); err != nil {
		return nil, fmt.Errorf("client: sweeper window handle: %w", err)
	}
	matcher := cfg.Participant.Matcher()
	residues := make([]core.ResidueSet, 0, len(cfg.Primes))
	for _, p := range cfg.Primes {
		residues = append(residues, matcher.ResidueSet(p))
	}
	return &Sweeper{
		rv: rv, cfg: cfg, residues: residues,
		seen:   broker.NewSeenWindow(cfg.SeenCap),
		window: binary.BigEndian.Uint64(handle[:]) | 1,
	}, nil
}

// sweep runs the tick's query: the IDs added to the window since the last
// sweep that succeeded, or — first tick, a rack asked for a resync, or a rack
// of the ring missed the last query — the whole window. A failed sweep leaves
// acked alone, so the next tick sends the same delta again, which racks that
// did apply it recognize.
func (s *Sweeper) sweep(ctx context.Context) (res broker.SweepResult, resyncs int, err error) {
	total := s.seen.Total()
	q := broker.SweepQuery{
		Residues:      s.residues,
		Limit:         s.cfg.Limit,
		ExcludeOrigin: s.cfg.ExcludeOrigin,
		Window:        s.window,
		SeenCap:       s.cfg.SeenCap,
	}
	// A delta as long as the window is the window.
	unacked := total - s.acked
	q.SeenFull = s.full || unacked >= uint64(s.seen.Len())
	for {
		if q.SeenFull {
			// Whole-window lists are rare; not worth holding on to.
			q.Seen = s.seen.AppendNewest(nil, s.seen.Len())
		} else {
			s.delta = s.seen.AppendNewest(s.delta[:0], int(unacked))
			q.Seen = s.delta
		}
		q.SeenBase = total - uint64(len(q.Seen))
		res, err = s.rv.Sweep(ctx, q)
		switch {
		case err != nil:
			return res, resyncs, err
		case !res.Resync:
			s.acked, s.full = total, res.Partial
			return res, resyncs, nil
		case q.SeenFull:
			return res, resyncs, errors.New("client: rack asked to resync a sweep that carried the whole window")
		}
		// A rack lost the window (restart, eviction, ticks missed while
		// ejected) and scanned nothing: discard, resend everything.
		resyncs++
		q.SeenFull = true
	}
}

// Tick performs one sweep-evaluate-reply cycle. The returned error is a
// sweep failure (including the context ending mid-sweep — a canceled tick is
// safe to repeat, nothing swept was marked seen); per-reply failures are
// reported in the stats. Cancellation between sweep and post queues the
// tick's replies for the next Tick instead of dropping them.
func (s *Sweeper) Tick(ctx context.Context) (TickStats, error) {
	var start time.Time
	if s.cfg.Metrics != nil {
		start = time.Now()
	}
	res, resyncs, err := s.sweep(ctx)
	if err != nil {
		return TickStats{}, err
	}
	st := TickStats{
		Swept:     len(res.Bottles),
		Scanned:   res.Scanned,
		Rejected:  res.Rejected,
		Truncated: res.Truncated,
		Resyncs:   resyncs,
	}
	// Replies whose post failed at the transport on an earlier tick are
	// retried ahead of this tick's fresh posts. Keeping the bottle out of the
	// seen window instead would not recover anything: the participant's own
	// duplicate suppression drops a re-swept package as already evaluated and
	// produces no second reply. The marshalled reply itself is what must
	// survive the failed post.
	posts := s.pending
	s.pending = nil
	// One bottle, one observation — regardless of how many replicas served
	// it. tick collapses same-ID copies inside this sweep; the seen window
	// stores the *untagged* ID because each rack strips only its own tag from
	// inbound Seen entries: a tagged entry learned from replica A would never
	// suppress the same bottle on replica B, and the candidate would evaluate
	// it once per replica.
	tick := make(map[string]struct{}, len(res.Bottles))
	for _, b := range res.Bottles {
		id := broker.UntagID(b.ID)
		if _, dup := tick[id]; dup {
			st.Duplicates++
			continue
		}
		tick[id] = struct{}{}
		s.seen.Add(id)
		// Skip decides on the request ID proper; swept IDs may carry a rack
		// tag ("tag@id") that callers keying by package ID never see.
		if s.cfg.Skip != nil && s.cfg.Skip(id) {
			continue
		}
		pkg, err := core.UnmarshalPackage(b.Raw)
		if err != nil {
			continue
		}
		hr, err := s.cfg.Participant.HandleRequest(pkg)
		if err != nil {
			continue
		}
		st.Evaluated++
		if hr.Matched {
			st.Matches++
		}
		if s.cfg.OnResult != nil {
			s.cfg.OnResult(pkg, hr)
		}
		if hr.Reply != nil {
			posts = append(posts, broker.ReplyPost{RequestID: pkg.ID, Raw: hr.Reply.Marshal()})
		}
	}
	for i, err := range s.post(ctx, posts) {
		switch {
		case err == nil:
			st.Replies++
		case rackFault(err), retriablePost(err):
			// Transport-level failure or a post our own context abandoned:
			// the broker never answered (or we stopped waiting for it), so
			// the reply may still be deliverable — queue it for the next
			// tick. A remote answer (bottle expired, validation) is
			// definitive and the reply is dropped as undeliverable.
			st.ReplyErrors++
			s.pending = append(s.pending, posts[i])
		default:
			st.ReplyErrors++
		}
	}
	if excess := len(s.pending) - maxPendingReplies; excess > 0 {
		// Shed the oldest queued replies; their failures were already
		// reported in the ticks that queued them.
		s.pending = append(s.pending[:0], s.pending[excess:]...)
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.record(start, st)
	}
	return st, nil
}

// retriablePost reports a reply post that got no definitive broker verdict:
// the caller's own bound ended it (context cancellation/deadline, per-call
// timeout), or the broker shed it over the identity's admission quota.
// rackFault deliberately excludes all of these — neither a canceled call nor
// quota backpressure may eject a healthy rack — but for the pending queue
// they are exactly as retriable as a transport failure: the quota bucket
// refills, so a shed reply is deferred work, never a dropped reply.
func retriablePost(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, transport.ErrCallTimeout) || errors.Is(err, broker.ErrOverload)
}

// post delivers the tick's replies in one batched round trip, returning one
// outcome per post in order; a whole-batch transport failure falls back to
// per-item posting (unless the context ended — then every post reports the
// context error and the pending queue keeps the replies for the next tick).
func (s *Sweeper) post(ctx context.Context, posts []broker.ReplyPost) []error {
	if len(posts) == 0 {
		return nil
	}
	if errs, err := s.rv.ReplyBatch(ctx, posts); err == nil {
		return errs
	}
	errs := make([]error, len(posts))
	for i, p := range posts {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		errs[i] = s.rv.Reply(ctx, p.RequestID, p.Raw)
	}
	return errs
}
