package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"sealedbottle"
	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
)

// workload is one set of inputs: a deployment, a standing population and the
// operation two closed-loop clients repeat against it. The sizes are frozen
// here; BENCHMARK.json names the workloads and says why each exists.
type workload struct {
	name string
	topo topology
	// distinct real request packages are cloned up to the standing size.
	distinct, standing int
	// candidates gives every client a matching user with a sweeper.
	candidates bool
	// fifo is how many standing bottles each client's remove queue starts
	// with; the operation removes the oldest as it submits new ones.
	fifo int
	// compact snapshots the racks between segments, untimed, so the log of a
	// write-only workload stays small (see system.maintain).
	compact bool
	op      func(ctx context.Context, c *client) error
}

var workloads = []workload{
	{name: "friend-1rack", topo: topology{racks: 1, replication: 1, secured: true},
		distinct: 500, standing: 5000, candidates: true, op: friendOp},
	{name: "friend-ring", topo: topology{racks: 3, replication: 2},
		distinct: 500, standing: 5000, candidates: true, op: friendOp},
	{name: "submit-storm", topo: topology{racks: 1, replication: 1},
		distinct: 500, standing: 20000, fifo: 10000, compact: true, op: stormOp},
	{name: "sweep-churn", topo: topology{racks: 1, replication: 1},
		distinct: 2000, standing: 50000, candidates: true, fifo: 128, op: churnOp},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the workload's sizes for the smoke tests.
func (w workload) scaled(div int) workload {
	w.distinct = max(4, w.distinct/div)
	if w.fifo > 0 {
		w.fifo = max(1, w.fifo/div)
	}
	w.standing = max(16, numClients*w.fifo, w.standing/div)
	return w
}

// churnBatch is how many bottles one sweep-churn operation submits and
// removes.
const churnBatch = 8

// client is one closed loop: a goroutine, its connection, the candidate it
// owns and the state its operations carry from one to the next.
type client struct {
	idx     int
	w       *workload
	corpus  *corpus
	backend sealedbottle.Backend
	cand    *candidate
	tr      *tracer
	rng     *rand.Rand
	profile []attr.Attribute
	origin  string

	// fresh counts the IDs drawn from the client's stream.
	fresh int
	// queue is a ring of the client's bottles on the rack, oldest at head.
	queue []string
	head  int

	// Tallies for the reconciliation with the racks' counters.
	acked, removed, fetched int
	// extraTicks counts sweeper cycles beyond the first that an operation
	// needed to see its own bottle.
	extraTicks     int
	submittedBytes int
}

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// nextID draws the client's next request ID.
func (c *client) nextID() string {
	c.fresh++
	return requestID(c.corpus.seed, streamClient+c.idx, c.fresh)
}

// nextBottle clones a template under a fresh ID.
func (c *client) nextBottle() (id string, raw []byte) {
	id = c.nextID()
	return id, c.corpus.templates[c.fresh%len(c.corpus.templates)].stamp(id)
}

// rotate puts id at the tail of the queue and returns the oldest entry.
func (c *client) rotate(id string) string {
	old := c.queue[c.head]
	c.queue[c.head] = id
	c.head = (c.head + 1) % len(c.queue)
	return old
}

// maxTicks bounds the sweeper cycles one friending operation waits for its
// own bottle: a sweep is cut at sweepLimit, and the other client's bottles
// share it.
const maxTicks = 3

// friendOp is one friending round trip as a user pays for it: build a
// request the client's candidate matches, rack it, let the candidate sweep,
// unseal and reply, fetch the reply, verify it and take the bottle down.
func friendOp(ctx context.Context, c *client) error {
	sp := c.tr.begin("core.build")
	ini, err := core.NewInitiator(friendSpec(c.rng, c.profile), core.InitiatorConfig{
		Origin: c.origin,
		Rand:   seededReader{c.rng},
	})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	req := ini.Request()
	raw, err := req.Marshal()
	c.tr.end(sp)
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}

	id, err := c.backend.Submit(ctx, raw)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	c.acked++
	c.submittedBytes += len(raw)
	if sealedbottle.UntagID(id) != req.ID {
		return fmt.Errorf("submit: racked as %q, want %q", id, req.ID)
	}

	c.cand.watch, c.cand.found = req.ID, false
	for t := 0; t < maxTicks && !c.cand.found; t++ {
		if t > 0 {
			c.extraTicks++
		}
		sp = c.tr.begin("client.tick")
		_, err := c.cand.tick(ctx)
		c.tr.end(sp)
		if err != nil {
			return fmt.Errorf("tick: %w", err)
		}
	}
	if !c.cand.found {
		return fmt.Errorf("candidate did not match %s within %d ticks", req.ID, maxTicks)
	}

	replies, err := c.backend.Fetch(ctx, id)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	c.fetched += len(replies)
	if len(replies) != 1 {
		return fmt.Errorf("fetch: %d replies, want 1", len(replies))
	}
	sp = c.tr.begin("core.verify")
	rep, err := core.UnmarshalReply(replies[0])
	var m *core.Match
	var why core.RejectReason
	if err == nil {
		m, why, err = ini.ProcessReply(rep)
	}
	c.tr.end(sp)
	switch {
	case err != nil:
		return fmt.Errorf("verify: %w", err)
	case why != core.RejectNone || m == nil:
		return fmt.Errorf("verify: reply rejected (%q)", why)
	case m.ChannelKey != c.cand.key:
		return errors.New("verify: initiator and candidate derived different channel keys")
	}

	held, err := c.backend.Remove(ctx, id)
	if err != nil {
		return fmt.Errorf("remove: %w", err)
	}
	if !held {
		return errors.New("remove: bottle was not held")
	}
	c.removed++
	return nil
}

// stormOp is the write path alone: rack one bottle, take down the one racked
// a queue length of operations ago.
func stormOp(ctx context.Context, c *client) error {
	id, raw := c.nextBottle()
	got, err := c.backend.Submit(ctx, raw)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	c.acked++
	c.submittedBytes += len(raw)
	if got != id {
		return fmt.Errorf("submit: racked as %q, want %q", got, id)
	}
	return c.remove(ctx, c.rotate(id))
}

func (c *client) remove(ctx context.Context, id string) error {
	held, err := c.backend.Remove(ctx, id)
	if err != nil {
		return fmt.Errorf("remove: %w", err)
	}
	if !held {
		return fmt.Errorf("remove: %s was not held", id)
	}
	c.removed++
	return nil
}

// churnOp reads beside writes: rack a batch, sweep the whole rack with the
// client's candidate, take down the client's oldest batch.
func churnOp(ctx context.Context, c *client) error {
	ids := make([]string, churnBatch)
	raws := make([][]byte, churnBatch)
	for i := range raws {
		ids[i], raws[i] = c.nextBottle()
		c.submittedBytes += len(raws[i])
	}
	res, err := c.backend.SubmitBatch(ctx, raws)
	if err != nil {
		return fmt.Errorf("submit batch: %w", err)
	}
	if len(res) != churnBatch {
		return fmt.Errorf("submit batch: %d results, want %d", len(res), churnBatch)
	}
	var first error
	for i, r := range res {
		switch {
		case r.Err != nil:
			first = errors.Join(first, fmt.Errorf("submit batch item %d: %w", i, r.Err))
		case r.ID != ids[i]:
			c.acked++
			first = errors.Join(first, fmt.Errorf("submit batch item %d: racked as %q, want %q", i, r.ID, ids[i]))
		default:
			c.acked++
		}
	}
	if first != nil {
		return first
	}

	sp := c.tr.begin("client.tick")
	st, err := c.cand.tick(ctx)
	c.tr.end(sp)
	if err != nil {
		return fmt.Errorf("tick: %w", err)
	}
	// The candidate has seen every standing bottle that passes its
	// prefilter, so a sweep screens the whole rack and returns the few fresh
	// ones; a short scan means the sweep was cut.
	if st.Truncated || st.Scanned < c.w.standing*9/10 {
		return fmt.Errorf("tick: scanned %d of %d (truncated=%v)", st.Scanned, c.w.standing, st.Truncated)
	}

	for _, id := range ids {
		if err := c.remove(ctx, c.rotate(id)); err != nil {
			return err
		}
	}
	return nil
}
