package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"sealedbottle"
	"sealedbottle/internal/broker"
)

// Link errors injected client-side. They are generic on purpose: the layers
// above must survive them exactly as they survive a real dead access link.
var (
	errOffline  = errors.New("cluster: client offline (out of coverage)")
	errLinkLost = errors.New("cluster: call lost on the access link")
)

// link wraps a client's view of the cluster with the mobile access link the
// paper's setting implies: calls fail while the device is out of coverage
// (churn windows) and a LossRate fraction of calls is dropped. Drops happen
// strictly *before* dispatch — a dropped call never reaches the cluster — so
// an acknowledged operation is always one the cluster really served and the
// invariant checker's accounting stays exact. Replies crossing the link are
// reported to the checker: attempts when they leave the client, acks when
// the cluster acknowledges them.
//
// The wrapped backend is shared and concurrency-safe; the link's own state
// (connectivity, loss, rng) is mutex-guarded so churn controllers and client
// goroutines may race on it.
type link struct {
	backend sealedbottle.Backend
	checker *Checker
	// Round trips of submit, sweep and reply-post calls (nil: not recorded).
	submitLat, sweepLat, replyLat *latencies

	mu     sync.Mutex
	rng    *rand.Rand
	loss   float64
	online bool
}

func newLink(backend sealedbottle.Backend, checker *Checker, loss float64, seed int64) *link {
	return &link{
		backend: backend,
		checker: checker,
		rng:     rand.New(rand.NewSource(seed)),
		loss:    loss,
		online:  true,
	}
}

// gate decides a call's fate before dispatch.
func (l *link) gate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.online {
		return errOffline
	}
	if l.loss > 0 && l.rng.Float64() < l.loss {
		return errLinkLost
	}
	return nil
}

// setOnline toggles the coverage window.
func (l *link) setOnline(up bool) {
	l.mu.Lock()
	l.online = up
	l.mu.Unlock()
}

// clearFaults restores a perfect link for the drain phase: the scenario's
// completeness invariants are only achievable once injected faults stop.
func (l *link) clearFaults() {
	l.mu.Lock()
	l.online = true
	l.loss = 0
	l.mu.Unlock()
}

func (l *link) Submit(ctx context.Context, raw []byte) (string, error) {
	if err := l.gate(); err != nil {
		return "", err
	}
	t0 := time.Now()
	id, err := l.backend.Submit(ctx, raw)
	l.submitLat.record(time.Since(t0))
	return id, err
}

func (l *link) SubmitBatch(ctx context.Context, raws [][]byte) ([]sealedbottle.SubmitResult, error) {
	if err := l.gate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	results, err := l.backend.SubmitBatch(ctx, raws)
	l.submitLat.record(time.Since(t0))
	return results, err
}

func (l *link) Sweep(ctx context.Context, q sealedbottle.SweepQuery) (sealedbottle.SweepResult, error) {
	if err := l.gate(); err != nil {
		return sealedbottle.SweepResult{}, err
	}
	t0 := time.Now()
	res, err := l.backend.Sweep(ctx, q)
	l.sweepLat.record(time.Since(t0))
	return res, err
}

func (l *link) Reply(ctx context.Context, requestID string, raw []byte) error {
	if err := l.gate(); err != nil {
		return err
	}
	l.checker.ReplyAttempt(requestID, raw)
	t0 := time.Now()
	err := l.backend.Reply(ctx, requestID, raw)
	l.replyLat.record(time.Since(t0))
	if err == nil {
		l.checker.ReplyAcked(requestID, raw)
	}
	return err
}

func (l *link) ReplyBatch(ctx context.Context, posts []sealedbottle.ReplyPost) ([]error, error) {
	if err := l.gate(); err != nil {
		return nil, err
	}
	for _, p := range posts {
		l.checker.ReplyAttempt(p.RequestID, p.Raw)
	}
	t0 := time.Now()
	errs, err := l.backend.ReplyBatch(ctx, posts)
	l.replyLat.record(time.Since(t0))
	if err == nil {
		for i, e := range errs {
			if e == nil {
				l.checker.ReplyAcked(posts[i].RequestID, posts[i].Raw)
			}
		}
	}
	return errs, err
}

func (l *link) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	if err := l.gate(); err != nil {
		return nil, err
	}
	return l.backend.Fetch(ctx, requestID)
}

func (l *link) FetchBatch(ctx context.Context, ids []string) ([]sealedbottle.FetchResult, error) {
	if err := l.gate(); err != nil {
		return nil, err
	}
	return l.backend.FetchBatch(ctx, ids)
}

func (l *link) Remove(ctx context.Context, requestID string) (bool, error) {
	if err := l.gate(); err != nil {
		return false, err
	}
	return l.backend.Remove(ctx, requestID)
}

func (l *link) Stats(ctx context.Context) (sealedbottle.Stats, error) {
	return l.backend.Stats(ctx)
}

// Close is a no-op: links share the scenario's backend.
func (l *link) Close() error { return nil }

// directSweep degrades a client from the ring's replica-merged sweep to
// sweeping every rack directly and concatenating the results — what a client
// cut off from the routing layer but still holding rack addresses would do.
// Each bottle then arrives once per replica within a tick, and the Sweeper's
// own duplicate collapsing (TickStats.Duplicates) is the only thing keeping
// evaluation exactly-once. Each rack gets its own cursor, named by the rack,
// as a ring would hand it. Everything except Sweep goes through the ring.
type directSweep struct {
	sealedbottle.Backend
	harness *Harness
}

func (d *directSweep) Sweep(ctx context.Context, q sealedbottle.SweepQuery) (sealedbottle.SweepResult, error) {
	var (
		out      sealedbottle.SweepResult
		answered int
		firstErr error
	)
	for _, b := range d.harness.RackBackends() {
		rq := q
		rq.Cursors = broker.MemberCursors(nil, q.Cursors, b.Name)
		res, err := b.Backend.Sweep(ctx, rq)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		answered++
		out.Bottles = append(out.Bottles, res.Bottles...)
		out.Scanned += res.Scanned
		out.Rejected += res.Rejected
		out.Truncated = out.Truncated || res.Truncated
		out.Cursors = broker.AppendMemberAnswer(out.Cursors, res.Cursors, b.Name)
	}
	if answered == 0 {
		if firstErr == nil {
			firstErr = errors.New("cluster: no racks answered the direct sweep")
		}
		return sealedbottle.SweepResult{}, firstErr
	}
	return out, nil
}
