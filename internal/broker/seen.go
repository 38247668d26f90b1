package broker

import "slices"

// SeenWindow is a bounded FIFO set of request IDs: the newest cap IDs in
// insertion order plus a membership index, so recording an ID and evicting
// the oldest are both O(1). A sweeper keeps one to drop the copies of a
// bottle that more than one rack hands over, and a query's one-off exclusion
// list (SweepQuery.Seen) is screened through one. Not safe for concurrent
// use.
type SeenWindow struct {
	cap int
	// ring grows until it holds cap IDs and is overwritten in place from then
	// on; head is the next overwrite position, so oldest-first order is
	// ring[head:] then ring[:head] in both regimes.
	ring  []string
	head  int
	index map[string]struct{}
}

// NewSeenWindow returns an empty window bounded at capacity IDs (at least
// one).
func NewSeenWindow(capacity int) *SeenWindow {
	capacity = max(1, capacity)
	return &SeenWindow{cap: capacity, index: make(map[string]struct{}, min(capacity, 64))}
}

// Add records an ID, evicting the oldest once the window is full, and reports
// whether the ID was new. An ID already in the window is left in place (its
// age is not refreshed).
func (w *SeenWindow) Add(id string) bool {
	if w.Has(id) {
		return false
	}
	w.index[id] = struct{}{}
	if n := len(w.ring); n < w.cap {
		if n == cap(w.ring) {
			// Double, but not past the bound, as append alone would.
			w.ring = slices.Grow(w.ring, min(w.cap, max(8, 2*n))-n)
		}
		w.ring = append(w.ring, id)
		return true
	}
	delete(w.index, w.ring[w.head])
	w.ring[w.head] = id
	if w.head++; w.head == w.cap {
		w.head = 0
	}
	return true
}

// Has reports whether an ID is currently in the window.
func (w *SeenWindow) Has(id string) bool {
	_, ok := w.index[id]
	return ok
}

// Len is the number of IDs currently in the window.
func (w *SeenWindow) Len() int { return len(w.ring) }

// AppendNewest appends the newest n IDs (all of them when n exceeds Len) to
// dst, oldest first.
func (w *SeenWindow) AppendNewest(dst []string, n int) []string {
	n = min(n, len(w.ring))
	// The newest entry sits just before head once the ring is full, and at
	// its end while it fills.
	end := w.head
	if len(w.ring) < w.cap {
		end = len(w.ring)
	}
	if n <= end {
		return append(dst, w.ring[end-n:end]...)
	}
	return append(append(dst, w.ring[len(w.ring)-(n-end):]...), w.ring[:end]...)
}
