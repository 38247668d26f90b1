package broker

import (
	"container/list"
	"context"
	"slices"
	"strings"
	"sync"
	"time"
)

// Sweep exclusion windows. A sweeper excludes the bottles it has already
// evaluated; rather than re-ship that window with every query, it names a
// window the rack holds for it and sends only what was added since the last
// sweep (SweepQuery.Window/SeenBase/SeenFull). The windows are soft state:
// never logged, lost on restart, evicted under a budget — every loss is
// answered with SweepResult.Resync and costs the sweeper one full resend.

const (
	// MaxSeenCap bounds an exclusion window on both ends: the sweeper refuses
	// a larger SeenCap, the codec refuses a longer seen list, and the rack
	// clamps what it holds per window.
	MaxSeenCap = 1 << 16
	// maxHeldSeenBytes is the rack's budget for all windows together, in the
	// bytes they are charged with (heldWindow.charge): the ID bytes they keep
	// alive plus seenIDOverhead an ID and heldWindowOverhead a window. Past it
	// the least recently swept windows are dropped whole. 64 MiB is some 150
	// windows of 4096 request IDs.
	maxHeldSeenBytes = 64 << 20
	// identityBudgetShare is the part of the budget (one in so many) that one
	// authenticated identity's windows may hold; past it that identity's own
	// least recently swept windows go first, so a client cycling through
	// handles evicts itself and not the other sweepers. The empty identity
	// (an open server, the in-process rack) has nobody to be fair to and may
	// use the whole budget.
	identityBudgetShare = 4
	// What an ID costs beside its bytes (16 in the ring, 53 measured in a map
	// of 4096) and a window beside its IDs (table entry, recency link, struct),
	// rounded up.
	seenIDOverhead     = 72
	heldWindowOverhead = 512
	// windowIdleAge is how long a window survives without a sweep before the
	// reap pass drops it, by the rack's clock.
	windowIdleAge = 10 * time.Minute
)

// SeenWindow is a bounded FIFO set of request IDs: the newest cap IDs in
// insertion order plus a membership index, so recording an ID and evicting
// the oldest are both O(1). The sweeper keeps one and the rack keeps its
// mirror; both sides run this one implementation, which is what keeps the
// rack's copy identical to the sweeper's through evictions. Not safe for
// concurrent use.
type SeenWindow struct {
	cap int
	// ring grows until it holds cap IDs and is overwritten in place from then
	// on; head is the next overwrite position, so oldest-first order is
	// ring[head:] then ring[:head] in both regimes.
	ring  []string
	head  int
	index map[string]struct{}
	// total counts the IDs ever added, i.e. the window's version: two windows
	// fed the same adds agree on it.
	total uint64
	// bytes is the summed length of the IDs held.
	bytes int
}

// NewSeenWindow returns an empty window bounded at capacity IDs (zero or
// beyond MaxSeenCap: MaxSeenCap).
func NewSeenWindow(capacity int) *SeenWindow {
	w := &SeenWindow{}
	w.reset(capacity, 0)
	return w
}

// reset empties the window, sets its bound and presizes it for n IDs.
func (w *SeenWindow) reset(capacity, n int) {
	capacity = clampSeenCap(capacity)
	n = min(n, capacity)
	*w = SeenWindow{cap: capacity, ring: make([]string, 0, n), index: make(map[string]struct{}, n)}
}

// Add records an ID, evicting the oldest once the window is full, and reports
// whether the window changed. An ID already in the window is left in place
// (its age is not refreshed): the rack excluded window entries from the
// sweep, so a re-add can only happen when a replica raced the window bound,
// and keeping the original position preserves eviction order.
func (w *SeenWindow) Add(id string) bool {
	if w.Has(id) {
		return false
	}
	w.total++
	w.bytes += len(id)
	w.index[id] = struct{}{}
	if n := len(w.ring); n < w.cap {
		if n == cap(w.ring) {
			// Double, but not past the bound, as append alone would.
			w.ring = slices.Grow(w.ring, min(w.cap, max(8, 2*n))-n)
		}
		w.ring = append(w.ring, id)
		return true
	}
	w.bytes -= len(w.ring[w.head])
	delete(w.index, w.ring[w.head])
	w.ring[w.head] = id
	if w.head++; w.head == w.cap {
		w.head = 0
	}
	return true
}

// Has reports whether an ID is currently excluded by the window.
func (w *SeenWindow) Has(id string) bool {
	_, ok := w.index[id]
	return ok
}

// Len is the number of IDs currently in the window.
func (w *SeenWindow) Len() int { return len(w.ring) }

// Total is the number of IDs ever added to the window.
func (w *SeenWindow) Total() uint64 { return w.total }

// AppendNewest appends the newest n IDs (all of them when n exceeds Len) to
// dst, oldest first.
func (w *SeenWindow) AppendNewest(dst []string, n int) []string {
	older, newer := w.newest(min(n, len(w.ring)))
	return append(append(dst, older...), newer...)
}

// newest returns the newest n ≤ Len IDs, oldest first, as the two runs the
// ring stores them in: the newest entry sits just before head once the ring
// is full, and at its end while it fills.
func (w *SeenWindow) newest(n int) (older, newer []string) {
	end := w.head
	if len(w.ring) < w.cap {
		end = len(w.ring)
	}
	if n <= end {
		return nil, w.ring[end-n : end]
	}
	return w.ring[len(w.ring)-(n-end):], w.ring[:end]
}

// endsWith reports whether the window's newest len(ids) entries are ids
// (less the rack's own tag), oldest first.
func (w *SeenWindow) endsWith(ids []string, tag string) bool {
	if len(ids) > len(w.ring) {
		return false
	}
	older, newer := w.newest(len(ids))
	for i, id := range ids {
		held := older
		if i >= len(older) {
			held, i = newer, i-len(older)
		}
		if held[i] != untagOwn(tag, id) {
			return false
		}
	}
	return true
}

// apply brings the window up to date with a query's seen fields and reports
// whether it now equals the sweeper's. A full query replaces the contents; a
// delta is applied when the window stands exactly at the query's base, and is
// a no-op when it already stands at the query's end with the same tail (the
// byte-identical retry of a sweep whose answer was lost). Anything else — a
// different bound, a gap, a diverged tail — leaves the window untouched and
// needs a resync.
func (w *SeenWindow) apply(q *SweepQuery, tag string) bool {
	end := q.SeenBase + uint64(len(q.Seen))
	switch {
	case q.SeenFull:
		w.reset(q.SeenCap, len(q.Seen))
		// IDs beyond the bound would only be evicted again.
		for _, id := range q.Seen[max(0, len(q.Seen)-w.cap):] {
			w.Add(untagOwn(tag, id))
		}
	case w.cap != clampSeenCap(q.SeenCap):
		return false
	case w.total == q.SeenBase:
		for _, id := range q.Seen {
			w.Add(untagOwn(tag, id))
		}
	case w.total != end || !w.endsWith(q.Seen, tag):
		return false
	}
	// Set, not counted: the sweeper's numbering is the reference even if a
	// malformed delta repeated an ID (the next retry check then fails and the
	// window resyncs).
	w.total = end
	return true
}

// compact copies the IDs held into one allocation of their own, so that none
// of them keeps alive the larger allocation it was cut from.
func (w *SeenWindow) compact() {
	var arena strings.Builder
	arena.Grow(w.bytes)
	for _, id := range w.ring {
		arena.WriteString(id)
	}
	rest := arena.String()
	clear(w.index)
	for i, id := range w.ring {
		w.ring[i], rest = rest[:len(id)], rest[len(id):]
		w.index[w.ring[i]] = struct{}{}
	}
}

// clampSeenCap resolves a query's window bound.
func clampSeenCap(n int) int {
	if n <= 0 || n > MaxSeenCap {
		return MaxSeenCap
	}
	return n
}

// windowKey names a held window: handles are only unique per identity.
type windowKey struct {
	identity string
	handle   uint64
}

// heldWindow is one exclusion window on the rack.
type heldWindow struct {
	key windowKey
	set SeenWindow
	// pinned bounds from above the bytes the IDs in set keep alive. The codec
	// cuts a query's IDs from one copy of the frame's seen list, so an ID still
	// held keeps its whole list alive, evicted neighbours included; the lists
	// taken are summed here, and once they come to a quarter more than the IDs
	// held the window is compacted — the bytes a window is charged with are
	// then never far from the bytes it costs, whatever a client sends. (The
	// compacted copy lives until the last of its IDs is evicted, so a larger
	// margin would only let more of the lists taken since pile up beside it.)
	pinned int
	// busy is a one-slot semaphore over set and pinned: taken before a sweep
	// applies its delta and released when the last shard job of that sweep has
	// reported, so a window is never mutated under a scan that is still
	// reading it — not even the abandoned scan of a canceled sweep.
	busy chan struct{}

	// The rest is guarded by windowTable.mu.
	elem       *list.Element // position in the table's recency list; nil once dropped
	ids, bytes int           // what the table has this window charged with
	swept      time.Time
}

// compactSlack keeps small windows from compacting on every other delta.
const compactSlack = 4 << 10

// apply brings the window up to date with a query (SeenWindow.apply) and
// accounts for the seen list it kept IDs of.
func (h *heldWindow) apply(q *SweepQuery, tag string) bool {
	before := h.set.total
	if !h.set.apply(q, tag) {
		return false
	}
	if q.SeenFull {
		h.pinned = 0
	}
	if q.SeenFull || h.set.total != before {
		for _, id := range q.Seen {
			h.pinned += 2 + len(id) // as the codec's copy holds it
		}
	}
	if h.pinned > h.set.bytes+h.set.bytes/4+compactSlack {
		h.set.compact()
		h.pinned = h.set.bytes
	}
	return true
}

// charge is what the window costs the rack, in bytes.
func (h *heldWindow) charge() int {
	return heldWindowOverhead + seenIDOverhead*h.set.Len() + h.pinned
}

// WindowStats counts the rack's exclusion-window state.
type WindowStats struct {
	// Held and IDs are the windows currently held and the IDs in them; Bytes
	// is what they are charged against the rack's budget for windows.
	Held, IDs, Bytes int
	// Resyncs counts delta queries answered without a scan because the rack
	// did not hold the window at the query's base. Above zero in steady state
	// it says the rack's budget is too small for its sweepers.
	Resyncs uint64
	// Evicted counts windows dropped, for budget or for idleness.
	Evicted uint64
}

// windowTable is the rack's set of held windows.
type windowTable struct {
	mu    sync.Mutex
	byKey map[windowKey]*heldWindow
	// recent orders the windows most recently swept first.
	recent *list.List
	// charged is the bytes each identity's windows are charged with.
	charged map[string]int
	// budget is maxHeldSeenBytes; a field so that tests can reach it with few IDs.
	budget int
	stats  WindowStats
}

func newWindowTable() *windowTable {
	return &windowTable{
		byKey:   make(map[windowKey]*heldWindow),
		recent:  list.New(),
		charged: make(map[string]int),
		budget:  maxHeldSeenBytes,
	}
}

// hold finds the window a query names, applies the query's seen fields and
// returns the window with its busy slot taken; the caller owes a release. A
// nil window with a nil error means the rack cannot serve the delta and the
// sweeper must resync.
func (t *windowTable) hold(ctx context.Context, closed <-chan struct{}, q *SweepQuery, tag string, now time.Time) (*heldWindow, error) {
	key := windowKey{identity: IdentityFromContext(ctx), handle: q.Window}
	t.mu.Lock()
	w := t.byKey[key]
	switch {
	case w != nil:
		t.recent.MoveToFront(w.elem)
	case q.SeenFull:
		// Charged from the start: a sweep that ends before it settles the
		// window leaves it behind empty, and empty windows are bounded too.
		w = &heldWindow{key: key, busy: make(chan struct{}, 1), bytes: heldWindowOverhead}
		w.elem = t.recent.PushFront(w)
		t.byKey[key] = w
		t.stats.Bytes += w.bytes
		t.charged[key.identity] += w.bytes
	default:
		t.stats.Resyncs++
		t.mu.Unlock()
		return nil, nil
	}
	w.swept = now
	t.mu.Unlock()

	select {
	case w.busy <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-closed:
		return nil, ErrRackClosed
	}
	ok := w.apply(q, tag)
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok && w.elem != nil { // still held: settle its charge, then the budgets
		ok = t.settle(w)
	}
	if !ok {
		t.stats.Resyncs++
		<-w.busy
		return nil, nil
	}
	return w, nil
}

// share is the part of the budget one identity's windows may be charged with.
func (t *windowTable) share(identity string) int {
	if identity == "" {
		return t.budget
	}
	return t.budget / identityBudgetShare
}

// settle charges a window with what it holds now and enforces the budgets:
// while its identity is over its share that identity's other windows go,
// least recently swept first; while the rack is over budget anybody's do;
// and a window too large on its own goes itself. It reports whether w is
// still held. The caller holds mu.
func (t *windowTable) settle(w *heldWindow) bool {
	id := w.key.identity
	ids, bytes := w.set.Len(), w.charge()
	t.stats.IDs += ids - w.ids
	t.stats.Bytes += bytes - w.bytes
	t.charged[id] += bytes - w.bytes
	w.ids, w.bytes = ids, bytes

	overShare := func() bool { return t.charged[id] > t.share(id) }
	overBudget := func() bool { return t.stats.Bytes > t.budget }
	for e := t.recent.Back(); e != nil && overShare(); {
		v := e.Value.(*heldWindow)
		if e = e.Prev(); v != w && v.key.identity == id {
			t.drop(v)
		}
	}
	for e := t.recent.Back(); e != nil && overBudget(); {
		v := e.Value.(*heldWindow)
		if e = e.Prev(); v != w {
			t.drop(v)
		}
	}
	if overShare() || overBudget() {
		t.drop(w)
		return false
	}
	return true
}

// drop forgets a window; a sweep still scanning against it keeps its copy
// until it finishes. The caller holds mu.
func (t *windowTable) drop(w *heldWindow) {
	delete(t.byKey, w.key)
	t.recent.Remove(w.elem)
	w.elem = nil
	t.stats.IDs -= w.ids
	t.stats.Bytes -= w.bytes
	if t.charged[w.key.identity] -= w.bytes; t.charged[w.key.identity] == 0 {
		delete(t.charged, w.key.identity)
	}
	t.stats.Evicted++
}

// reap drops the windows no sweep has touched for windowIdleAge.
func (t *windowTable) reap(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for e := t.recent.Back(); e != nil; e = t.recent.Back() {
		w := e.Value.(*heldWindow)
		if now.Sub(w.swept) < windowIdleAge {
			return
		}
		t.drop(w)
	}
}

func (t *windowTable) snapshot() WindowStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Held = len(t.byKey)
	return st
}
