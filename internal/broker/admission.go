package broker

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// admissionMaxBuckets bounds the per-identity bucket table. When an insert
// would cross the bound, buckets that have refilled to capacity (identities
// idle long enough to be indistinguishable from new ones) are pruned; a
// hostile client minting unbounded identities therefore costs one bucket
// each, recycled as soon as it goes idle. When none has refilled, the
// admissionEvictBatch buckets owing the least are evicted (Evicted counts
// these), so the table never holds more than the bound.
const admissionMaxBuckets = 8192

// admissionEvictBatch is how many buckets one prune that frees nothing
// evicts. The prune scans the whole table, so a batch of a 64th of it keeps
// an insert at the bound to a constant share of a scan.
const admissionEvictBatch = admissionMaxBuckets / 64

// Admission is a per-identity token-bucket admission controller: each
// identity may perform Rate operations per second with bursts up to Burst.
// Calls over quota are shed with ErrOverload — typed backpressure the ring
// treats as a broker answer, never a rack fault. One Admission is shared by
// every connection of a server, so a client reconnecting (or fanning out
// over several connections) stays inside one bucket.
//
// All methods are safe for concurrent use.
type Admission struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	now   func() time.Time
	shed  atomic.Uint64
	// evicted counts buckets dropped at the table bound before refilling.
	evicted atomic.Uint64

	mu      sync.Mutex
	buckets map[string]*admissionBucket
}

// admissionBucket is one identity's bucket state, guarded by Admission.mu.
type admissionBucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds an admission controller allowing rate operations per
// second per identity, with bursts of up to burst operations (burst < 1 uses
// max(2*rate, 8)). A rate <= 0 returns nil — admission disabled — so callers
// can pass flag values straight through.
func NewAdmission(rate float64, burst int) *Admission {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = 2 * rate
		if b < 8 {
			b = 8
		}
	}
	return &Admission{
		rate:    rate,
		burst:   b,
		now:     time.Now,
		buckets: make(map[string]*admissionBucket),
	}
}

// SetClock overrides the controller's clock (tests).
func (a *Admission) SetClock(now func() time.Time) { a.now = now }

// Update replaces the controller's rate and burst at runtime (the admin
// quota-reload verb). Existing buckets keep their token balances — a reload
// retunes the refill, it does not forgive accumulated debt — and the burst
// derivation matches NewAdmission (burst < 1 uses max(2*rate, 8)). A rate
// <= 0 is rejected: admission cannot be disabled at runtime, because every
// connection shares this controller by pointer and nil-ing it out cannot be
// done race-free. A nil Admission ignores the update.
func (a *Admission) Update(rate float64, burst int) error {
	if a == nil {
		return errors.New("broker: admission not enabled on this rack")
	}
	if rate <= 0 {
		return fmt.Errorf("broker: admission rate must be positive, got %v", rate)
	}
	b := float64(burst)
	if b < 1 {
		b = 2 * rate
		if b < 8 {
			b = 8
		}
	}
	a.mu.Lock()
	a.rate, a.burst = rate, b
	a.mu.Unlock()
	return nil
}

// Limits reports the controller's current rate and burst (zeros when nil —
// admission disabled).
func (a *Admission) Limits() (rate, burst float64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rate, a.burst
}

// Allow reports whether one operation by identity is admitted, consuming a
// token when it is. A nil Admission admits everything.
func (a *Admission) Allow(identity string) bool {
	if a == nil {
		return true
	}
	now := a.now()
	a.mu.Lock()
	b, ok := a.buckets[identity]
	if !ok {
		if len(a.buckets) >= admissionMaxBuckets {
			a.pruneLocked(now)
		}
		b = &admissionBucket{tokens: a.burst, last: now}
		a.buckets[identity] = b
	} else {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * a.rate
			if b.tokens > a.burst {
				b.tokens = a.burst
			}
		}
		b.last = now
	}
	admitted := b.tokens >= 1
	if admitted {
		b.tokens--
	}
	a.mu.Unlock()
	if !admitted {
		a.shed.Add(1)
	}
	return admitted
}

// pruneLocked drops buckets that have refilled to capacity; they carry no
// state a fresh bucket would not. When none has, it evicts the
// admissionEvictBatch buckets with the most tokens, found in the same pass:
// their identities lose the least debt by starting over.
func (a *Admission) pruneLocked(now time.Time) {
	var fullest bucketHeap
	freed := false
	for id, b := range a.buckets {
		tokens := b.tokens + now.Sub(b.last).Seconds()*a.rate
		switch {
		case tokens >= a.burst:
			delete(a.buckets, id)
			freed = true
		case freed:
		case len(fullest) < admissionEvictBatch:
			if fullest = append(fullest, heldBucket{id, tokens}); len(fullest) == admissionEvictBatch {
				heap.Init(&fullest)
			}
		case tokens > fullest[0].tokens:
			fullest[0] = heldBucket{id, tokens}
			heap.Fix(&fullest, 0)
		}
	}
	if !freed {
		for _, v := range fullest {
			delete(a.buckets, v.id)
		}
		a.evicted.Add(uint64(len(fullest)))
	}
}

// heldBucket is an eviction candidate: an identity and its refilled tokens.
type heldBucket struct {
	id     string
	tokens float64
}

// bucketHeap is a min-heap of eviction candidates by tokens, so its root is
// the first to give way to a fuller bucket.
type bucketHeap []heldBucket

func (h bucketHeap) Len() int           { return len(h) }
func (h bucketHeap) Less(i, j int) bool { return h[i].tokens < h[j].tokens }
func (h bucketHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bucketHeap) Push(x any)        { *h = append(*h, x.(heldBucket)) }
func (h *bucketHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Shed returns the number of operations shed over quota since construction.
func (a *Admission) Shed() uint64 {
	if a == nil {
		return 0
	}
	return a.shed.Load()
}

// Evicted returns the number of buckets evicted at the table bound before
// they had refilled. An eviction sheds nothing: the identity's next call
// starts a fresh bucket.
func (a *Admission) Evicted() uint64 {
	if a == nil {
		return 0
	}
	return a.evicted.Load()
}
