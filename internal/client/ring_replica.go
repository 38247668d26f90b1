package client

import (
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
// operations holding the previous membership snapshot finish against it;
// stale routing-table and tag references observe the removed mark and skip
// it. An owned backend (Addrs mode, AddRackAddr) is closed. Re-placement is
// again bounded by rendezvous hashing: only the removed member's ~R/N share
// of the ID space re-ranks.
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
	victim.removed.Store(true)
	if victim.owned {
		if c, ok := victim.b.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	return nil
}

// submitTargets plans a submit for an untagged ID: live is the healthy
// members to write to — the healthy part of the top-R intent set, extended
// along the rank order until R live targets (so R copies exist immediately
// even with an intent member down) — and missed is the intent members
// currently ejected, which get hints instead of writes. With every rack
// healthy at R=1 this is the top-ranked rack alone.
func (r *Ring) submitTargets(id string) (live, missed []*rackNode) {
	ranked := rank(r.members(), id)
	rf := min(r.rf, len(ranked))
	// live is compacted into ranked's own array: each write lands at or
	// before the element the loop is reading.
	live = ranked[:0]
	for i, n := range ranked {
		if i >= rf && len(live) == rf {
			break
		}
		if n.down.Load() {
			if i < rf {
				missed = append(missed, n)
			}
		} else if len(live) < rf {
			live = append(live, n)
		}
	}
	return live, missed
}

// idPlan is where an ID-addressed operation goes: rest is the untagged ID
// every target is asked about; live are the targets to call, down the ones
// skipped as ejected (hint destinations for writes).
type idPlan struct {
	rest       string
	live, down []*rackNode
}

// route plans an ID-addressed operation: the learned holder, then the rack
// the ID's tag names, then the intent set, split by health. The holder and
// the tag's rack can sit outside the intent set — after a submit extended
// past a down member, a membership change, or for a bottle this ring did not
// place.
func (r *Ring) route(id string) idPlan {
	tag, rest := broker.SplitTaggedID(id)
	p := idPlan{rest: rest, live: make([]*rackNode, 0, r.rf+2)}
	add := func(n *rackNode) {
		if n == nil || n.removed.Load() || slices.Contains(p.live, n) || slices.Contains(p.down, n) {
			return
		}
		if n.down.Load() {
			p.down = append(p.down, n)
		} else {
			p.live = append(p.live, n)
		}
	}
	if n, ok := r.idTab.get(rest); ok {
		add(n)
	}
	if tag != "" {
		add(r.tagNode(tag))
	}
	ranked := rank(r.members(), rest)
	for _, n := range ranked[:min(r.rf, len(ranked))] {
		add(n)
	}
	return p
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
// opcode with an uncoded remote error, and a lock-step connection cannot
// carry it. Sheds, auth refusals, faults and abandoned calls are not
// refusals.
func refusesHints(err error) bool {
	var re *transport.RemoteError
	return errors.Is(err, ErrNotReplicated) || errors.As(err, &re) && re.Code.Sentinel() == nil
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

// each runs fn(i) for every i < n concurrently — every index but the last
// on a goroutine of its own, the last on the caller's — and returns once all
// have returned.
func each(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		if i == n-1 {
			fn(i)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// fanout runs op against every target concurrently and returns the
// per-target outcomes, noting each against rack health. Targets not yet
// called when the context ends report its error.
func (r *Ring) fanout(ctx context.Context, targets []*rackNode, op func(n *rackNode) outcome) []outcome {
	outs := make([]outcome, len(targets))
	each(len(targets), func(i int) {
		if err := ctx.Err(); err != nil {
			outs[i].err = err
			return
		}
		outs[i] = op(targets[i])
		r.note(targets[i], outs[i].err)
	})
	return outs
}

// cell addresses one (batch item, target) pair of a dispatchGroups result.
type cell struct{ item, target int }

// rackCells is one rack's share of a dispatchGroups batch.
type rackCells struct {
	n     *rackNode
	cells []cell
}

// dispatchGroups runs a batch against its per-item targets: every rack gets
// one call carrying all the items it is a target of, racks concurrently. The
// result holds one outcome per (item, target). call fills its cells of outs
// and returns nil, or returns the whole call's error, which is recorded for
// each of its cells — as is the context's error for racks never called.
func (r *Ring) dispatchGroups(ctx context.Context, targets [][]*rackNode, call func(n *rackNode, cells []cell, outs [][]outcome) error) [][]outcome {
	outs := make([][]outcome, len(targets))
	var groups []rackCells // in order of first appearance; racks are few
	for i, ts := range targets {
		outs[i] = make([]outcome, len(ts))
		for j, n := range ts {
			k := slices.IndexFunc(groups, func(g rackCells) bool { return g.n == n })
			if k < 0 {
				k = len(groups)
				groups = append(groups, rackCells{n: n})
			}
			groups[k].cells = append(groups[k].cells, cell{i, j})
		}
	}
	fail := func(cells []cell, err error) {
		for _, s := range cells {
			outs[s.item][s.target] = outcome{err: err}
		}
	}
	each(len(groups), func(k int) {
		g := groups[k]
		if err := ctx.Err(); err != nil {
			fail(g.cells, err)
			return
		}
		err := call(g.n, g.cells, outs)
		r.note(g.n, err)
		if err != nil {
			fail(g.cells, err)
		}
	})
	return outs
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

// missedEverywhere reports that every target answered "unknown bottle" (so
// does a plan with no live target): the case for the last resort.
func missedEverywhere(outs []outcome) bool {
	for _, o := range outs {
		if classify(o.err) != classMissing {
			return false
		}
	}
	return true
}

// callID runs an ID-addressed operation: op goes to the plan's live targets
// concurrently, and only when every one answers "unknown bottle" do the
// other healthy racks get asked, in rank order, one at a time, until one
// answers something other than unknown or a fault — for bottles neither the
// table, the tag nor the hash places. The returned targets and outcomes line
// up, last-resort racks appended; a rack not asked because the context ended
// reports its error. No targets at all means no rack was healthy.
func (r *Ring) callID(ctx context.Context, p idPlan, op func(n *rackNode) outcome) ([]*rackNode, []outcome) {
	targets := p.live
	outs := r.fanout(ctx, targets, op)
	if !missedEverywhere(outs) {
		return targets, outs
	}
	for _, n := range rank(r.healthy(), p.rest) {
		if slices.Contains(p.live, n) || slices.Contains(p.down, n) {
			continue
		}
		o := outcome{err: ctx.Err()}
		if o.err == nil {
			o = op(n)
			r.note(n, o.err)
		}
		targets, outs = append(targets, n), append(outs, o)
		if c := classify(o.err); c == classOK || c == classOther {
			break
		}
	}
	return targets, outs
}

// resolve merges one item's per-target outcomes with the ring's precedence:
// any success wins; then a definitive error; then a fault — a target skipped
// as down counts as one, since it may hold the bottle; then unknown-bottle.
// "Unknown" reads as a definitive broker answer — the Sweeper drops, rather
// than queues, replies on those — so it must never mask a rack that could
// not answer. With no target called, every rack is ejected.
func resolve(targets []*rackNode, outs []outcome, down int) (succ, missing, faulted []*rackNode, err error) {
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

// Submit places a marshalled request package on its intent set and returns
// the (rack-tagged, when so configured) request ID it is held under.
func (r *Ring) Submit(ctx context.Context, raw []byte) (string, error) {
	pkg, err := core.UnmarshalPackage(raw)
	if err != nil {
		return "", err
	}
	live, missed := r.submitTargets(pkg.ID)
	if len(live) == 0 {
		return "", ErrNoHealthyRacks
	}
	outs := r.fanout(ctx, live, func(n *rackNode) outcome {
		id, err := n.b.Submit(ctx, raw)
		return outcome{id: id, err: err}
	})
	var h hintSet
	id, err := r.settleSubmit(&h, raw, live, missed, outs)
	r.sendHints(ctx, h)
	if err != nil {
		return "", err
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return id, nil
}

// SubmitBatch is Submit over a batch: one SubmitBatch per rack, concurrently,
// outcomes per item, in order. A rack call that faults marks that rack's
// items with the fault. The call itself only fails when every rack is
// ejected or the context ends — cancellation stops further rack dispatches
// (their items carry the context error) and returns the context error
// alongside the partial outcomes.
func (r *Ring) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	if len(r.healthy()) == 0 {
		return nil, ErrNoHealthyRacks
	}
	results := make([]broker.SubmitResult, len(raws))
	live := make([][]*rackNode, len(raws))
	missed := make([][]*rackNode, len(raws))
	for i, raw := range raws {
		pkg, err := core.UnmarshalPackage(raw)
		if err != nil {
			results[i].Err = err
			continue
		}
		if live[i], missed[i] = r.submitTargets(pkg.ID); len(live[i]) == 0 {
			results[i].Err = ErrNoHealthyRacks
		}
	}
	outs := r.dispatchGroups(ctx, live, func(n *rackNode, cells []cell, outs [][]outcome) error {
		sub := make([][]byte, len(cells))
		for k, s := range cells {
			sub[k] = raws[s.item]
		}
		rs, err := n.b.SubmitBatch(ctx, sub)
		if err != nil {
			return err
		}
		for k, s := range cells {
			outs[s.item][s.target] = outcome{id: rs[k].ID, err: rs[k].Err}
		}
		return nil
	})
	var h hintSet
	for i := range raws {
		if len(live[i]) > 0 {
			results[i].ID, results[i].Err = r.settleSubmit(&h, raws[i], live[i], missed[i], outs[i])
		}
	}
	r.sendHints(ctx, h)
	return results, ctx.Err()
}

// settleSubmit applies the submit rule to one bottle's per-target outcomes.
// Success is one target accepting it. A target answering duplicate already
// holds the bottle — that is replication working, and a valid hint relay —
// but when every target says duplicate the submit is the duplicate it would
// have been on a single rack. Targets that missed the write (ejected at
// planning time, or failed during it) get RecSubmit hints through a holder.
func (r *Ring) settleSubmit(h *hintSet, raw []byte, live, missed []*rackNode, outs []outcome) (string, error) {
	var holders, failed []*rackNode
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
	r.learn(live[first], outs[first].id)
	return outs[first].id, nil
}

// Reply posts a marshalled reply to every live holder of the addressed
// bottle, so any of them can serve the fetch.
func (r *Ring) Reply(ctx context.Context, requestID string, raw []byte) error {
	p := r.route(requestID)
	targets, outs := r.callID(ctx, p, func(n *rackNode) outcome {
		return outcome{err: n.b.Reply(ctx, p.rest, raw)}
	})
	var h hintSet
	err := r.settleReply(&h, p, raw, targets, outs)
	r.sendHints(ctx, h)
	if err != nil {
		return err
	}
	return ctx.Err()
}

// ReplyBatch is Reply over a batch: one ReplyBatch per rack, concurrently,
// outcomes per item, in order. Posts every target answered "unknown bottle"
// for (a stale table entry) take the single-post path and its last resort.
// Cancellation stops further rack dispatches and that per-item round;
// affected items carry the context's error, which is also returned.
func (r *Ring) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	if len(posts) == 0 {
		return nil, nil
	}
	plans, live := r.routeBatch(len(posts), func(i int) string { return posts[i].RequestID })
	outs := r.dispatchGroups(ctx, live, func(n *rackNode, cells []cell, outs [][]outcome) error {
		sub := make([]broker.ReplyPost, len(cells))
		for k, s := range cells {
			sub[k] = broker.ReplyPost{RequestID: plans[s.item].rest, Raw: posts[s.item].Raw}
		}
		rs, err := n.b.ReplyBatch(ctx, sub)
		if err != nil {
			return err
		}
		for k, s := range cells {
			outs[s.item][s.target].err = rs[k]
		}
		return nil
	})
	errs := make([]error, len(posts))
	var h hintSet
	for i, p := range plans {
		if missedEverywhere(outs[i]) {
			errs[i] = r.Reply(ctx, posts[i].RequestID, posts[i].Raw)
			continue
		}
		errs[i] = r.settleReply(&h, p, posts[i].Raw, p.live, outs[i])
	}
	r.sendHints(ctx, h)
	return errs, ctx.Err()
}

// settleReply applies the reply rule to one post's per-target outcomes.
// Targets the post missed converge through hints: RecReply for the
// unreachable ones, read-repair (RecRepair, which ships the bottle and its
// queued replies from a holder) for live ones that turned out not to hold
// the bottle at all.
func (r *Ring) settleReply(h *hintSet, p idPlan, raw []byte, targets []*rackNode, outs []outcome) error {
	succ, missing, faulted, err := resolve(targets, outs, len(p.down))
	if err != nil {
		return err
	}
	// Remember a holder for the untagged ID only: the outer tag names the
	// rack that minted the ID, which need not be the replica that answered.
	r.idTab.put(p.rest, succ[0])
	if len(p.down)+len(faulted) > 0 {
		rec := broker.HandoffRecord{Type: broker.RecReply, Payload: broker.MarshalReplyPost(p.rest, raw)}
		h.add(succ, p.down, rec)
		h.add(succ, faulted, rec)
	}
	r.repair(h, p.rest, succ, missing)
	return nil
}

// Fetch drains the replies queued for a request from every live holder and
// merges them.
func (r *Ring) Fetch(ctx context.Context, requestID string) ([][]byte, error) {
	p := r.route(requestID)
	targets, outs := r.callID(ctx, p, func(n *rackNode) outcome {
		raws, err := n.b.Fetch(ctx, p.rest)
		return outcome{replies: raws, err: err}
	})
	var h hintSet
	replies, err := r.settleFetch(&h, p, targets, outs)
	r.sendHints(ctx, h)
	if cerr := ctx.Err(); cerr != nil && err == nil {
		return replies, cerr
	}
	return replies, err
}

// FetchBatch is Fetch over a batch: one FetchBatch per rack, concurrently,
// outcomes per item, in order. IDs every target answered "unknown bottle"
// for take the single-ID path and its last resort. Cancellation stops
// further rack dispatches and that per-item round; affected items carry the
// context's error (their queues stay intact), which is also returned.
func (r *Ring) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	plans, live := r.routeBatch(len(ids), func(i int) string { return ids[i] })
	outs := r.dispatchGroups(ctx, live, func(n *rackNode, cells []cell, outs [][]outcome) error {
		sub := make([]string, len(cells))
		for k, s := range cells {
			sub[k] = plans[s.item].rest
		}
		rs, err := n.b.FetchBatch(ctx, sub)
		if err != nil {
			return err
		}
		for k, s := range cells {
			outs[s.item][s.target] = outcome{replies: rs[k].Replies, err: rs[k].Err}
		}
		return nil
	})
	results := make([]broker.FetchResult, len(ids))
	var h hintSet
	for i, p := range plans {
		if missedEverywhere(outs[i]) {
			results[i].Replies, results[i].Err = r.Fetch(ctx, ids[i])
			continue
		}
		results[i].Replies, results[i].Err = r.settleFetch(&h, p, p.live, outs[i])
	}
	r.sendHints(ctx, h)
	return results, ctx.Err()
}

// settleFetch applies the fetch rule to one bottle's per-target outcomes:
// the replies every holder drained, merged with the byte-identical copies
// replication produced collapsed, and read-repair for targets missing the
// bottle. A target shed under quota may hold replies this merge could not
// drain, so its error comes back beside what was drained: the caller
// retries after backoff instead of mistaking a partial drain for complete.
func (r *Ring) settleFetch(h *hintSet, p idPlan, targets []*rackNode, outs []outcome) ([][]byte, error) {
	succ, missing, _, err := resolve(targets, outs, len(p.down))
	if err != nil {
		return nil, err
	}
	r.idTab.put(p.rest, succ[0])
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

// routeBatch routes every item of an ID-addressed batch, returning the
// plans and their live targets side by side for dispatchGroups.
func (r *Ring) routeBatch(n int, id func(i int) string) ([]idPlan, [][]*rackNode) {
	plans := make([]idPlan, n)
	live := make([][]*rackNode, n)
	for i := range plans {
		plans[i] = r.route(id(i))
		live[i] = plans[i].live
	}
	return plans, live
}

// Remove takes the bottle off every live holder, best-effort destructive:
// it reports whether any held it, and holders the remove could not reach get
// RecRemove hints so the bottle does not resurface from a returning replica.
// When nothing answered that it held the bottle but a target faulted or was
// down, the fault is returned — the bottle may live there, and a clean
// held=false would misreport that ambiguity.
func (r *Ring) Remove(ctx context.Context, requestID string) (bool, error) {
	p := r.route(requestID)
	targets, outs := r.callID(ctx, p, func(n *rackNode) outcome {
		held, err := n.b.Remove(ctx, p.rest)
		if err == nil && !held {
			err = broker.ErrUnknownBottle // not here: answered like any miss
		}
		return outcome{err: err}
	})
	succ, _, faulted, err := resolve(targets, outs, len(p.down))
	switch {
	case err == nil:
		if len(p.down)+len(faulted) > 0 {
			var h hintSet
			rec := broker.HandoffRecord{Type: broker.RecRemove, Payload: []byte(p.rest)}
			h.add(succ, p.down, rec)
			h.add(succ, faulted, rec)
			r.sendHints(ctx, h)
		}
		r.idTab.del(p.rest)
		return true, ctx.Err()
	case errors.Is(err, broker.ErrUnknownBottle):
		r.idTab.del(p.rest)
		return false, nil
	}
	return false, err
}
