package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/core"
)

// This file is the ring's placement and its ID-addressed operations, plus
// runtime membership (AddRack/RemoveRack). Placement is pure rendezvous
// hashing — a bottle's intent set is the top-R members by HRW score of its
// untagged ID over the whole membership (down members included: ejection is
// a health observation, not a placement change). R only sizes that set:
// R=1 runs the same code with a set of one. Writes go to the intent set's
// healthy members (submits extend along the rank order to keep R live
// copies); writes that miss a member queue hinted handoff on one that took
// them; reads fan out, merge, and queue read-repair for members found
// missing a bottle. See docs/PROTOCOL.md §2.10 for the consistency contract.

// errTargetDown answers for a target the ring skipped because it is ejected:
// like a fault, it says the bottle may be there, so it outranks "unknown".
var errTargetDown = errors.New("client: a rack that may hold the bottle is ejected")

// Members lists the current membership names in rack order.
func (r *Ring) Members() []string {
	nodes := r.members()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.name
	}
	return out
}

// AddRack adds a named backend to the membership at runtime. Rendezvous
// hashing bounds the re-placement: only IDs whose top-R set now includes the
// new member move, ~R/N of the space — everything else keeps its replicas.
// The backend belongs to the caller (the ring does not close it).
func (r *Ring) AddRack(name string, b broker.Backend) error {
	if name == "" {
		return errors.New("client: rack name must be non-empty")
	}
	if b == nil {
		return errors.New("client: rack backend must be non-nil")
	}
	return r.addNode(name, b, false)
}

// AddRackAddr dials a courier for addr and adds it to the membership under
// its address as the name (the same naming Addrs-mode construction uses).
// The courier dials lazily, so the rack may still be starting; the ring owns
// and eventually closes it.
func (r *Ring) AddRackAddr(addr string) error {
	c, err := r.dialCourier(addr)
	if err != nil {
		return err
	}
	if err := r.addNode(addr, c, true); err != nil {
		c.Close()
		return err
	}
	return nil
}

func (r *Ring) addNode(name string, b broker.Backend, owned bool) error {
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	cur := r.members()
	for _, n := range cur {
		if n.name == name {
			return fmt.Errorf("client: ring already has a rack named %q", name)
		}
	}
	next := make([]*rackNode, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, &rackNode{idx: r.nextIdx, name: name, b: b, owned: owned})
	r.nextIdx++
	r.nodes.Store(&next)
	return nil
}

// RemoveRack takes the named rack out of the membership at runtime. In-flight
// operations holding the previous membership snapshot finish against it. An
// owned backend (Addrs mode, AddRackAddr) is closed. Re-placement is again
// bounded by rendezvous hashing: only the removed member's ~R/N share of the
// ID space re-ranks.
func (r *Ring) RemoveRack(name string) error {
	r.memberMu.Lock()
	cur := r.members()
	var victim *rackNode
	next := make([]*rackNode, 0, len(cur))
	for _, n := range cur {
		if n.name == name && victim == nil {
			victim = n
			continue
		}
		next = append(next, n)
	}
	if victim == nil {
		r.memberMu.Unlock()
		return fmt.Errorf("client: ring has no rack named %q", name)
	}
	r.nodes.Store(&next)
	r.memberMu.Unlock()
	if victim.owned {
		if c, ok := victim.b.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	return nil
}

// idPlan is one item of a list call and where it goes: rest is the
// untagged ID every target is asked about, raw the package a submit places
// or the reply a post carries, down the intent members skipped as ejected
// (hint destinations for writes), and from and to bound the item's cells.
type idPlan struct {
	rest     string
	raw      []byte
	down     []*rackNode
	from, to int
}

// verb names the rack call a list call makes.
type verb uint8

const (
	verbSubmit verb = iota
	verbReply
	verbFetch
	verbRemove
)

// callInline is the items, and the racks, a list call holds in its own
// arrays, and half its (item, target) cells: a one-item call at R ≤ 8
// allocates no slice.
const callInline = 4

// listCall is one call of a verb: per item its plan, per (item, target)
// cell the rack asked and its answer, and the racks asked, each once. A
// call of a few items is this one object.
type listCall struct {
	r     *Ring
	ctx   context.Context
	verb  verb
	items []idPlan
	nodes []*rackNode
	outs  []outcome
	racks []*rackNode

	itemBuf [callInline]idPlan
	nodeBuf [2 * callInline]*rackNode
	outBuf  [2 * callInline]outcome
	rackBuf [callInline]*rackNode
}

// newCall starts a call of v with room for n items.
func (r *Ring) newCall(ctx context.Context, v verb, n int) *listCall {
	c := &listCall{r: r, ctx: ctx, verb: v}
	c.items, c.nodes, c.outs, c.racks = c.itemBuf[:0], c.nodeBuf[:0], c.outBuf[:0], c.rackBuf[:0]
	if n > callInline {
		c.items = make([]idPlan, 0, n)
		c.nodes = make([]*rackNode, 0, n*r.rf)
		c.outs = make([]outcome, 0, n*r.rf)
	}
	return c
}

// route adds an item about the untagged ID rest and reports whether it has
// a target. Its targets are the healthy members of the ID's intent set (the
// top R by rank), its down the ejected ones; a submit's targets extend along
// the rank order until R are live, so R copies exist even with an intent
// member down. A holder outside the intent set is found by the walk.
func (c *listCall) route(rest string, raw []byte) bool {
	p := idPlan{rest: rest, raw: raw, from: len(c.nodes)}
	var buf [8]*rackNode
	ranked := rank(buf[:0], c.r.members(), rest)
	rf := min(c.r.rf, len(ranked))
	for i, n := range ranked {
		live := len(c.nodes) - p.from
		if i >= rf && (c.verb != verbSubmit || live == rf) {
			break
		}
		if n.down.Load() {
			if i < rf {
				p.down = append(p.down, n)
			}
		} else if live < rf {
			c.nodes, c.outs = append(c.nodes, n), append(c.outs, outcome{})
			if !slices.Contains(c.racks, n) {
				c.racks = append(c.racks, n)
			}
		}
	}
	p.to = len(c.nodes)
	c.items = append(c.items, p)
	return p.to > p.from
}

// hintKey addresses one per-destination hint batch through the replica that
// will queue it.
type hintKey struct {
	via  *rackNode
	dest string
}

// hintSet accumulates the handoff records an operation decided to queue,
// grouped by (queueing replica, destination) so each pair costs one Hint
// call. The zero value is empty and allocates on first use.
type hintSet map[hintKey][]broker.HandoffRecord

// add queues rec for each of dests via the first of the holders that can
// relay hints; silently dropped when none can (in-process plain racks, racks
// that refused hints before) — replication then still works, only the
// handoff convergence is absent.
func (h *hintSet) add(via, dests []*rackNode, rec broker.HandoffRecord) {
	if len(dests) == 0 {
		return
	}
	for _, n := range via {
		if _, ok := n.b.(broker.Hinter); !ok || n.noHints.Load() {
			continue
		}
		if *h == nil {
			*h = make(hintSet)
		}
		for _, d := range dests {
			k := hintKey{via: n, dest: d.name}
			(*h)[k] = append((*h)[k], rec)
		}
		return
	}
}

// sendHints delivers the accumulated hints, best-effort: hint queueing is an
// optimization of convergence, never a reason to fail the operation that
// already succeeded.
func (r *Ring) sendHints(ctx context.Context, h hintSet) {
	for k, recs := range h {
		if ctx.Err() != nil {
			return
		}
		n, err := k.via.b.(broker.Hinter).Hint(ctx, k.dest, recs)
		if err == nil {
			r.hintsSent.Add(uint64(n))
		}
		if refusesHints(err) {
			k.via.noHints.Store(true)
		}
		r.note(k.via, err)
	}
}

// refusesHints reports whether a Hint answer says the rack cannot relay hints
// at all: a rack serving without replication (or predating it) answers the
// opcode with an uncoded remote error. Sheds, auth refusals, faults and
// abandoned calls are not refusals.
func refusesHints(err error) bool {
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Code.Sentinel() == nil
}

// repair queues read-repair for the targets found missing a bottle the
// holders in succ have: RecRepair makes a holder ship the bottle and its
// queued replies. A divergence counts as a repair unless every holder has
// refused hints — through those it can never be repaired.
func (r *Ring) repair(h *hintSet, rest string, succ, missing []*rackNode) {
	if len(missing) == 0 || !slices.ContainsFunc(succ, func(n *rackNode) bool { return !n.noHints.Load() }) {
		return
	}
	h.add(succ, missing, broker.HandoffRecord{Type: broker.RecRepair, Payload: []byte(rest)})
	r.readRepairs.Add(uint64(len(missing)))
}

// outcome is one target's answer to one item: the ID a submit was racked
// under, the replies a fetch drained, the error.
type outcome struct {
	id      string
	err     error
	replies [][]byte
}

// fanPark caps the fan-out workers a ring keeps parked between calls. One
// fan-out takes a worker per rack but the last, so this serves a few
// concurrent callers of a small ring without starting a goroutine; past it,
// a worker that finishes its job exits instead of parking.
const fanPark = 8

// fanJob is one index of a fan-out, handed to a worker; done is the join of
// the each call it belongs to.
type fanJob struct {
	fn   func(i int)
	i    int
	done *sync.WaitGroup
}

// fanJoins pools each's joins. A join goes back only after its Wait has
// returned, so a pooled one is always at zero and shared with nobody.
var fanJoins = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// each runs fn(i) for every i < n concurrently — every index but the last on
// one of the ring's parked fan-out workers (a new worker when none is idle),
// the last on the caller's goroutine — and returns once all have returned.
// Nothing is shared between callers but idle workers, so concurrent calls
// to one rack stay concurrent and its Mux keeps pipelining them.
func (r *Ring) each(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	wg := fanJoins.Get().(*sync.WaitGroup)
	wg.Add(n - 1)
	for i := range n - 1 {
		job := fanJob{fn: fn, i: i, done: wg}
		select {
		case r.jobs <- job: // unbuffered: taken only by an idle worker
		default:
			go r.fanWorker(job)
		}
	}
	fn(n - 1)
	wg.Wait()
	fanJoins.Put(wg)
}

// fanWorker runs job, then parks for the next one until the ring closes,
// keeping the stack the jobs grew. It exits instead of parking when fanPark
// workers already are. A parked worker holds nothing of the job it ran, so
// it pins no sweep page or caller state.
func (r *Ring) fanWorker(job fanJob) {
	for {
		job.fn(job.i)
		job.done.Done()
		job = fanJob{}
		if r.parked.Add(1) > fanPark {
			r.parked.Add(-1)
			return
		}
		select {
		case job = <-r.jobs:
			r.parked.Add(-1)
		case <-r.closed:
			r.parked.Add(-1)
			return
		}
	}
}

// dispatch asks every rack about its items, racks concurrently, each once:
// a rack given one item gets its single call, a rack given more its list
// call, whose whole-call error answers for each of them — as does the
// context's error for a rack never called.
func (c *listCall) dispatch() {
	c.r.each(len(c.racks), func(k int) { c.callRack(c.racks[k]) })
}

// cells calls fn(i, j) for each cell j of item i that asks rack n, in order.
func (c *listCall) cells(n *rackNode, fn func(i, j int)) {
	for i, p := range c.items {
		for j := p.from; j < p.to; j++ {
			if c.nodes[j] == n {
				fn(i, j)
			}
		}
	}
}

func (c *listCall) callRack(n *rackNode) {
	count, item, cell := 0, 0, 0
	c.cells(n, func(i, j int) { count, item, cell = count+1, i, j })
	err := c.ctx.Err()
	switch {
	case err != nil:
	case count == 1:
		c.outs[cell] = c.ask(item, n)
		return
	default:
		err = c.askList(n, count)
		c.r.note(n, err)
	}
	if err != nil {
		c.cells(n, func(_, j int) { c.outs[j] = outcome{err: err} })
	}
}

// ask sends item i to rack n as the rack's single call and notes the answer
// against its health. A remove that finds nothing answers like any miss.
func (c *listCall) ask(i int, n *rackNode) outcome {
	p := &c.items[i]
	var o outcome
	switch c.verb {
	case verbSubmit:
		o.id, o.err = n.b.Submit(c.ctx, p.raw)
	case verbReply:
		o.err = n.b.Reply(c.ctx, p.rest, p.raw)
	case verbFetch:
		o.replies, o.err = n.b.Fetch(c.ctx, p.rest)
	case verbRemove:
		var held bool
		if held, o.err = n.b.Remove(c.ctx, p.rest); o.err == nil && !held {
			o.err = broker.ErrUnknownBottle
		}
	}
	c.r.note(n, o.err)
	return o
}

// askList sends rack n its count items as the rack's list call and writes
// each answer to its item's cell. An answer without one outcome per item is
// the rack's error for all of them. A remove is one item: it has no list
// call.
func (c *listCall) askList(n *rackNode, count int) error {
	k := 0
	switch c.verb {
	case verbSubmit:
		sub := make([][]byte, 0, count)
		c.cells(n, func(i, _ int) { sub = append(sub, c.items[i].raw) })
		rs, err := n.b.SubmitBatch(c.ctx, sub)
		if err = broker.CheckListAnswer(len(rs), count, err); err != nil {
			return err
		}
		c.cells(n, func(_, j int) { c.outs[j], k = outcome{id: rs[k].ID, err: rs[k].Err}, k+1 })
	case verbReply:
		sub := make([]broker.ReplyPost, 0, count)
		c.cells(n, func(i, _ int) { sub = append(sub, broker.ReplyPost{RequestID: c.items[i].rest, Raw: c.items[i].raw}) })
		rs, err := n.b.ReplyBatch(c.ctx, sub)
		if err = broker.CheckListAnswer(len(rs), count, err); err != nil {
			return err
		}
		c.cells(n, func(_, j int) { c.outs[j], k = outcome{err: rs[k]}, k+1 })
	case verbFetch:
		sub := make([]string, 0, count)
		c.cells(n, func(i, _ int) { sub = append(sub, c.items[i].rest) })
		rs, err := n.b.FetchBatch(c.ctx, sub)
		if err = broker.CheckListAnswer(len(rs), count, err); err != nil {
			return err
		}
		c.cells(n, func(_, j int) { c.outs[j], k = outcome{replies: rs[k].Replies, err: rs[k].Err}, k+1 })
	}
	return nil
}

// replyClass classifies one target's answer to an ID-addressed operation.
type replyClass int

const (
	classOK replyClass = iota
	classMissing
	classFault
	classOther
)

func classify(err error) replyClass {
	switch {
	case err == nil:
		return classOK
	case errors.Is(err, broker.ErrUnknownBottle):
		return classMissing
	case errors.Is(err, ErrCourierClosed), errors.Is(err, broker.ErrRackClosed), rackFault(err):
		// A backend torn down under the call (a rack removed at runtime) is
		// inconclusive like a fault, never a definitive answer.
		return classFault
	case errors.Is(err, broker.ErrOverload), errors.Is(err, broker.ErrDraining):
		// A quota shed is transient, like an unreachable replica: the write
		// must still converge onto this replica through handoff hints
		// (delivered over the quota-exempt replica channel). It is NOT a
		// health fault — classFault here only routes hint queuing and error
		// precedence; consecutive-fault counting happens in Ring.note. A
		// draining rack is the same shape: its submit refusal queues a hint,
		// the acked write lands on the surviving replicas, and the drained
		// rack catches up over the handoff stream if it returns.
		return classFault
	default:
		return classOther
	}
}

// walk goes past the intent set for each item short of need holders — R
// for a remove, so no copy outlives it, 1 otherwise — that some target held
// or every target answered "unknown" for: a fault or a down target may be
// where the bottle is. It asks the other healthy racks one at a time in
// rank order, until need of them hold the item or one answers definitively.
// That is the order a submit extends along past an ejected member, so it
// finds such a copy, as well as one a membership change re-ranked or a
// bottle this ring never placed. A rack not asked because the context ended
// reports its error.
func (c *listCall) walk(need int) {
	for i := range c.items {
		p := &c.items[i]
		held, missed := 0, 0
		for _, o := range c.outs[p.from:p.to] {
			switch classify(o.err) {
			case classOK:
				held++
			case classMissing:
				missed++
			}
		}
		if held >= need || held == 0 && missed < p.to-p.from {
			continue
		}
		if p.to != len(c.nodes) { // the item's cells stay one range
			from := len(c.nodes)
			c.nodes = append(c.nodes, c.nodes[p.from:p.to]...)
			c.outs = append(c.outs, c.outs[p.from:p.to]...)
			p.from, p.to = from, len(c.nodes)
		}
		var buf [8]*rackNode
		for _, n := range rank(buf[:0], c.r.members(), p.rest) {
			if held == need {
				break
			}
			if n.down.Load() || slices.Contains(c.nodes[p.from:p.to], n) || slices.Contains(p.down, n) {
				continue
			}
			o := outcome{err: c.ctx.Err()}
			if o.err == nil {
				o = c.ask(i, n)
			}
			c.nodes, c.outs = append(c.nodes, n), append(c.outs, o)
			p.to++
			if k := classify(o.err); k == classOK {
				held++
			} else if k == classOther {
				break
			}
		}
	}
}

// resolve merges one item's per-target outcomes with the ring's precedence:
// any success wins; then a definitive error; then a fault — a target skipped
// as down counts as one, since it may hold the bottle; then unknown-bottle.
// "Unknown" reads as a definitive broker answer — the Sweeper drops, rather
// than queues, replies on those — so it must never mask a rack that could
// not answer. With no target called, every rack is ejected. succ is built
// in buf, which callers back with an array of their own: it never leaves
// their call.
func resolve(buf, targets []*rackNode, outs []outcome, down int) (succ, missing, faulted []*rackNode, err error) {
	succ = buf[:0]
	var defErr, faultErr, lastErr error
	for i, n := range targets {
		switch e := outs[i].err; classify(e) {
		case classOK:
			succ = append(succ, n)
		case classMissing:
			missing = append(missing, n)
			lastErr = e
		case classFault:
			faulted = append(faulted, n)
			if faultErr == nil {
				faultErr = e
			}
		case classOther:
			if defErr == nil {
				defErr = e
			}
		}
	}
	switch {
	case len(succ) > 0:
	case defErr != nil:
		err = defErr
	case faultErr != nil:
		err = faultErr
	case len(targets) == 0:
		err = ErrNoHealthyRacks
	case down > 0:
		err = errTargetDown
	default:
		err = lastErr
	}
	return succ, missing, faulted, err
}

// Submit places a marshalled request package on its intent set, as a
// one-item SubmitBatch, and returns the (rack-tagged, when so configured)
// request ID it is held under.
func (r *Ring) Submit(ctx context.Context, raw []byte) (string, error) {
	var res [1]broker.SubmitResult
	if err := r.submit(ctx, [][]byte{raw}, res[:]); err != nil && res[0].Err == nil {
		return "", err
	}
	return res[0].ID, res[0].Err
}

// SubmitBatch is Submit over a batch, outcomes per item, in order. A rack
// call that faults marks that rack's items with the fault. The call itself
// only fails when every rack is ejected or the context ends — cancellation
// stops further rack dispatches (their items carry the context error) and
// returns the context error alongside the partial outcomes.
func (r *Ring) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	results := make([]broker.SubmitResult, len(raws))
	return results, r.submit(ctx, raws, results)
}

// submit is Submit and SubmitBatch: it routes every package, asks each rack
// once, settles each item (settleSubmit) and sends the hints. With every
// rack ejected, the call and each item fail with ErrNoHealthyRacks.
func (r *Ring) submit(ctx context.Context, raws [][]byte, results []broker.SubmitResult) error {
	if !slices.ContainsFunc(r.members(), func(n *rackNode) bool { return !n.down.Load() }) {
		for i := range results {
			results[i].Err = ErrNoHealthyRacks
		}
		return ErrNoHealthyRacks
	}
	c := r.newCall(ctx, verbSubmit, len(raws))
	for i, raw := range raws {
		v, err := core.UnmarshalPackageView(raw)
		switch {
		case err != nil:
			results[i].Err = err
			c.items = append(c.items, idPlan{})
		case !c.route(v.ID, raw):
			results[i].Err = ErrNoHealthyRacks
		}
	}
	c.dispatch()
	var h hintSet
	for i, p := range c.items {
		if p.from < p.to {
			results[i].ID, results[i].Err = r.settleSubmit(&h, p.raw, c.nodes[p.from:p.to], p.down, c.outs[p.from:p.to])
		}
	}
	r.sendHints(ctx, h)
	return ctx.Err()
}

// settleSubmit applies the submit rule to one bottle's per-target outcomes.
// Success is one target accepting it. A target answering duplicate already
// holds the bottle — that is replication working, and a valid hint relay —
// but when every target says duplicate the submit is the duplicate it would
// have been on a single rack. Targets that missed the write (ejected at
// planning time, or failed during it) get RecSubmit hints through a holder.
func (r *Ring) settleSubmit(h *hintSet, raw []byte, live, missed []*rackNode, outs []outcome) (string, error) {
	var buf [4]*rackNode
	holders := buf[:0]
	var failed []*rackNode
	first := -1
	var firstErr error
	for i, n := range live {
		switch err := outs[i].err; {
		case err == nil:
			if first < 0 {
				first = i
			}
			holders = append(holders, n)
		case errors.Is(err, broker.ErrDuplicateBottle):
			holders = append(holders, n)
		default:
			failed = append(failed, n)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if len(holders) == 0 {
		return "", firstErr
	}
	if first < 0 {
		return "", broker.ErrDuplicateBottle
	}
	if len(missed)+len(failed) > 0 {
		rec := broker.HandoffRecord{Type: broker.RecSubmit, Payload: raw}
		h.add(holders, missed, rec)
		h.add(holders, failed, rec)
	}
	return outs[first].id, nil
}

// Reply posts a marshalled reply to every live holder of the addressed
// bottle, so any of them can serve the fetch, as a one-item ReplyBatch.
func (r *Ring) Reply(ctx context.Context, requestID string, raw []byte) error {
	var errs [1]error
	err := r.reply(ctx, []broker.ReplyPost{{RequestID: requestID, Raw: raw}}, errs[:])
	return cmp.Or(errs[0], err)
}

// ReplyBatch is Reply over a batch, outcomes per item, in order.
// Cancellation stops further rack dispatches and the walks past the intent
// sets; affected items carry the context's error, which is also returned.
func (r *Ring) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	errs := make([]error, len(posts))
	return errs, r.reply(ctx, posts, errs)
}

// reply is Reply and ReplyBatch: it routes every post, asks each rack once,
// walks on for the posts no target held, settles each post (settleReply)
// and sends the hints.
func (r *Ring) reply(ctx context.Context, posts []broker.ReplyPost, errs []error) error {
	c := r.newCall(ctx, verbReply, len(posts))
	for _, post := range posts {
		c.route(broker.UntagID(post.RequestID), post.Raw)
	}
	c.dispatch()
	c.walk(1)
	var h hintSet
	for i, p := range c.items {
		errs[i] = r.settleReply(&h, p, p.raw, c.nodes[p.from:p.to], c.outs[p.from:p.to])
	}
	r.sendHints(ctx, h)
	return ctx.Err()
}

// settleReply applies the reply rule to one post's per-target outcomes.
// Targets the post missed converge through hints: RecReply for the
// unreachable ones, read-repair (RecRepair, which ships the bottle and its
// queued replies from a holder) for live ones that turned out not to hold
// the bottle at all.
func (r *Ring) settleReply(h *hintSet, p idPlan, raw []byte, targets []*rackNode, outs []outcome) error {
	var buf [4]*rackNode
	succ, missing, faulted, err := resolve(buf[:], targets, outs, len(p.down))
	if err != nil {
		return err
	}
	if len(p.down)+len(faulted) > 0 {
		rec := broker.HandoffRecord{Type: broker.RecReply, Payload: broker.AppendReplyPost(nil, p.rest, raw)}
		h.add(succ, p.down, rec)
		h.add(succ, faulted, rec)
	}
	r.repair(h, p.rest, succ, missing)
	return nil
}

// Fetch drains the replies queued for a request from every live holder and
// merges them, as a one-item FetchBatch.
func (r *Ring) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	var res [1]broker.FetchResult
	err := r.fetch(ctx, []string{requestID}, res[:])
	return res[0].Replies, cmp.Or(res[0].Err, err)
}

// FetchBatch is Fetch over a batch, outcomes per item, in order. An item
// alone on its rack is drained by the rack's single Fetch, without
// MaxFetchBatchBytes' budget (the frame cap bounds it). Cancellation stops
// further rack dispatches and the walks past the intent sets; affected
// items carry the context's error (their queues stay intact), which is also
// returned.
func (r *Ring) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	results := make([]broker.FetchResult, len(ids))
	return results, r.fetch(ctx, ids, results)
}

// fetch is Fetch and FetchBatch: it routes every ID, asks each rack once,
// walks on for the IDs no target held, settles each item (settleFetch) and
// sends the hints.
func (r *Ring) fetch(ctx context.Context, ids []string, results []broker.FetchResult) error {
	c := r.newCall(ctx, verbFetch, len(ids))
	for _, id := range ids {
		c.route(broker.UntagID(id), nil)
	}
	c.dispatch()
	c.walk(1)
	var h hintSet
	for i, p := range c.items {
		results[i].Replies, results[i].Err = r.settleFetch(&h, p, c.nodes[p.from:p.to], c.outs[p.from:p.to])
	}
	r.sendHints(ctx, h)
	return ctx.Err()
}

// settleFetch applies the fetch rule to one bottle's per-target outcomes:
// the replies every holder drained, merged with the byte-identical copies
// replication produced collapsed, and read-repair for targets missing the
// bottle. A target shed under quota may hold replies this merge could not
// drain, so its error comes back beside what was drained: the caller
// retries after backoff instead of mistaking a partial drain for complete.
func (r *Ring) settleFetch(h *hintSet, p idPlan, targets []*rackNode, outs []outcome) ([][]byte, error) {
	var buf [4]*rackNode
	succ, missing, _, err := resolve(buf[:], targets, outs, len(p.down))
	if err != nil {
		return nil, err
	}
	r.repair(h, p.rest, succ, missing)
	var merged [][]byte
	var shed error
	seen := make(map[string]struct{})
	for _, o := range outs {
		if o.err != nil {
			if shed == nil && errors.Is(o.err, broker.ErrOverload) {
				shed = o.err
			}
			continue
		}
		for _, rep := range o.replies {
			if _, dup := seen[string(rep)]; dup {
				r.replicaDedup.Add(1)
				continue
			}
			seen[string(rep)] = struct{}{}
			merged = append(merged, rep)
		}
	}
	return merged, shed
}

// Remove takes the bottle off every live holder, best-effort destructive:
// it reports whether any held it, and holders the remove could not reach get
// RecRemove hints so the bottle does not resurface from a returning replica.
// The walk goes on until R racks answered that they held it: a submit made
// while an intent member was ejected left a copy past the intent set, and
// once that member is back only the walk reaches it. When nothing answered
// that it held the bottle but a target faulted or was down, the fault is
// returned — the bottle may live there, and a clean held=false would
// misreport that ambiguity.
func (r *Ring) Remove(ctx context.Context, requestID string) (bool, error) {
	c := r.newCall(ctx, verbRemove, 1)
	c.route(broker.UntagID(requestID), nil)
	c.dispatch()
	c.walk(r.rf)
	p := c.items[0]
	var buf [4]*rackNode
	succ, _, faulted, err := resolve(buf[:], c.nodes[p.from:p.to], c.outs[p.from:p.to], len(p.down))
	switch {
	case err == nil:
		if len(p.down)+len(faulted) > 0 {
			var h hintSet
			rec := broker.HandoffRecord{Type: broker.RecRemove, Payload: []byte(p.rest)}
			h.add(succ, p.down, rec)
			h.add(succ, faulted, rec)
			r.sendHints(ctx, h)
		}
		return true, ctx.Err()
	case errors.Is(err, broker.ErrUnknownBottle):
		return false, nil
	}
	return false, err
}
