package client

import (
	"context"
	"errors"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/core"
)

// DefaultSeenCap bounds the window of swept IDs a sweeper keeps to drop the
// copies of a bottle that a second rack hands over — a replica racked on the
// far side of a sweep or of a limit cut, a handoff or repair copy that
// arrives later. The racks keep nothing: a rack's cursor already returns each
// of its bottles once. A copy that arrives after its ID left the window is
// evaluated again, and the participant's own duplicate suppression drops it.
const DefaultSeenCap = 4096

// SweeperConfig configures a Sweeper.
type SweeperConfig struct {
	// Participant evaluates swept bottles and produces replies (required).
	Participant *core.Participant
	// Primes lists the remainder primes to screen against
	// (nil: core.DefaultPrime only).
	Primes []uint32
	// Limit caps the fresh bottles per sweep (zero: the broker's default).
	// A query after one whose answer carried copies of bottles already
	// handled asks for as many more, at most Limit more: the racks cannot
	// know what another rack handed over, and their copies must not eat
	// the limit.
	Limit int
	// SeenCap bounds the seen-ID window (zero: DefaultSeenCap).
	SeenCap int
	// ExcludeOrigin skips bottles submitted by this origin server-side.
	ExcludeOrigin string
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
	// RepliesShed is the number of queued replies dropped this tick because
	// the retry queue held more than maxPendingReplies; they are lost.
	RepliesShed int
	// Duplicates is the number of swept bottles dropped as copies of a
	// bottle already handled (same untagged ID, in the seen window).
	Duplicates int
	// Scanned and Rejected echo the broker's screening counters for the sweep.
	Scanned, Rejected int
	// Truncated reports that more bottles passed the prefilter than Limit
	// allowed; another tick will pick them up.
	Truncated bool
}

// Sweeper drives the candidate side of the rendezvous protocol: each Tick
// sweeps the rack with the participant's residue sets, evaluates every
// returned bottle with the full Matcher machinery, posts the resulting
// replies batched, and moves its cursors so the next sweep returns only
// bottles that arrived since. It keeps one cursor per rack (a ring's
// members each have one), and the racks keep nothing for it. It is the
// single implementation of the loop that loadgen, the scenario runner and
// the examples share. It runs against any Backend — an in-process rack, a
// courier, a whole ring. Not safe for concurrent use; run one Sweeper per
// goroutine (they may share a Courier).
type Sweeper struct {
	rv       broker.Backend
	cfg      SweeperConfig
	residues []core.ResidueSet
	// seen is the window of swept IDs, untagged; cursors are the positions
	// the last sweeps answered with, one per rack; copies is how many
	// copies the last answer carried.
	seen    *broker.SeenWindow
	cursors []broker.SweepCursor
	copies  int
	// pending holds replies whose post failed at the transport level; they
	// are retried on the next Tick. Without it a failed post lost the reply
	// forever: the cursor had moved past the bottle (and the participant's
	// duplicate suppression held it), so no future sweep would ever
	// reproduce the reply.
	pending []broker.ReplyPost
}

// maxPendingReplies bounds the failed-post retry queue; beyond it the oldest
// replies are shed and counted in TickStats.RepliesShed.
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
	if cfg.Limit <= 0 {
		cfg.Limit = broker.DefaultSweepLimit
	}
	matcher := cfg.Participant.Matcher()
	residues := make([]core.ResidueSet, 0, len(cfg.Primes))
	for _, p := range cfg.Primes {
		residues = append(residues, matcher.ResidueSet(p))
	}
	return &Sweeper{rv: rv, cfg: cfg, residues: residues, seen: broker.NewSeenWindow(cfg.SeenCap)}, nil
}

// Tick performs one sweep-evaluate-reply cycle. The returned error is a
// sweep failure (including the context ending mid-sweep — a canceled tick is
// safe to repeat, no cursor moved and nothing swept was marked seen);
// per-reply failures are reported in the stats. Cancellation between sweep
// and post queues the tick's replies for the next Tick instead of dropping
// them.
func (s *Sweeper) Tick(ctx context.Context) (TickStats, error) {
	var start time.Time
	if s.cfg.Metrics != nil {
		start = time.Now()
	}
	res, err := s.rv.Sweep(ctx, broker.SweepQuery{
		Residues:      s.residues,
		Limit:         s.cfg.Limit + min(s.copies, s.cfg.Limit),
		ExcludeOrigin: s.cfg.ExcludeOrigin,
		Cursors:       s.cursors,
	})
	if err != nil {
		return TickStats{}, err
	}
	s.cursors = broker.MergeCursors(s.cursors, res.Cursors)
	st := TickStats{
		Swept:     len(res.Bottles),
		Scanned:   res.Scanned,
		Rejected:  res.Rejected,
		Truncated: res.Truncated,
	}
	// Replies whose post failed at the transport on an earlier tick are
	// retried ahead of this tick's fresh posts. Sweeping the bottle again
	// instead would not recover anything: the participant's own duplicate
	// suppression drops a re-swept package as already evaluated and produces
	// no second reply. The marshalled reply itself is what must survive the
	// failed post.
	posts := s.pending
	s.pending = nil
	// One bottle, one observation — regardless of how many racks served it.
	// The seen window holds the *untagged* ID: replicas tag one bottle
	// differently, and a copy from replica B must find the entry replica A's
	// copy made.
	for _, b := range res.Bottles {
		id := broker.UntagID(b.ID)
		if !s.seen.Add(id) {
			st.Duplicates++
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
	s.copies = st.Duplicates
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
		st.RepliesShed = excess
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
// outcome per post in order. When the whole call fails, every post carries
// its error: Tick queues the retriable ones for the next tick.
func (s *Sweeper) post(ctx context.Context, posts []broker.ReplyPost) []error {
	if len(posts) == 0 {
		return nil
	}
	errs, err := s.rv.ReplyBatch(ctx, posts)
	if err != nil {
		errs = make([]error, len(posts))
		for i := range errs {
			errs[i] = err
		}
	}
	return errs
}
