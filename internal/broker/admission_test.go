package broker

import (
	"fmt"
	"testing"
	"time"
)

// TestAdmissionBucketTableBounded drives twice the bucket bound of live
// identities on a stopped clock, so no bucket refills and pruning frees
// nothing: the table still stays at the bound, the inserts past it evict at
// least one bucket each and less than one batch more, and no operation is
// shed.
func TestAdmissionBucketTableBounded(t *testing.T) {
	a := NewAdmission(1, 8)
	at := time.Unix(1_700_000_000, 0)
	a.SetClock(func() time.Time { return at })
	for i := range 2 * admissionMaxBuckets {
		if !a.Allow(fmt.Sprintf("id-%d", i)) {
			t.Fatalf("identity %d shed on its first call", i)
		}
		if n := len(a.buckets); n > admissionMaxBuckets {
			t.Fatalf("after %d identities the table holds %d buckets, bound %d", i+1, n, admissionMaxBuckets)
		}
	}
	evicted := a.Evicted()
	if evicted < admissionMaxBuckets || evicted >= admissionMaxBuckets+admissionEvictBatch {
		t.Fatalf("evicted %d buckets, want %d to %d", evicted, admissionMaxBuckets, admissionMaxBuckets+admissionEvictBatch-1)
	}
	if got := a.Shed(); got != 0 {
		t.Fatalf("shed %d operations, want 0", got)
	}
	// A bucket that has refilled is pruned in preference to an eviction.
	at = at.Add(time.Minute)
	a.Allow("late")
	if got := a.Evicted(); got != evicted {
		t.Fatalf("an insert with refilled buckets evicted: %d, want %d", got, evicted)
	}
	if n := len(a.buckets); n != 1 {
		t.Fatalf("refilled buckets left after a prune: %d, want 1", n)
	}
}
