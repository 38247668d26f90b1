package core

import (
	"testing"

	"sealedbottle/internal/attr"
)

// Allocation budgets for one initiator-side BuildRequest and one candidate's
// TryUnseal, each the measured count plus 20 %. Field elements are values,
// the confirmation tag and the hash inputs live on the stack, and the
// enumeration's buffers in the matcher's frame, so what remains is mostly
// what the calls return: the package with its hint, remainders and sealed
// message (whose seal allocates two cipher objects), the request's secrets
// and, on the candidate side, the diagnostics, each recovered candidate
// vector and the opened plaintext.
const (
	buildRequestAllocBudget        = 28 // measured 23
	candidateProcessingAllocBudget = 17 // measured 14
)

// allocSpec is the six-attribute, γ = 2 request of the root package's
// BenchmarkRequestGeneration and BenchmarkCandidateProcessing.
func allocSpec() RequestSpec {
	return RequestSpec{
		Necessary: []attr.Attribute{
			attr.MustNew("sex", "male"),
			attr.MustNew("university", "columbia"),
		},
		Optional: []attr.Attribute{
			attr.MustNew("interest", "basketball"),
			attr.MustNew("interest", "chess"),
			attr.MustNew("interest", "golf"),
			attr.MustNew("interest", "tennis"),
		},
		MinOptional: 2,
	}
}

func TestBuildRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	spec := allocSpec()
	avg := testing.AllocsPerRun(200, func() {
		if _, err := BuildRequest(spec, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BuildRequest: %v allocs/op", avg)
	if avg > buildRequestAllocBudget {
		t.Errorf("BuildRequest: %v allocs/op, budget %d", avg, buildRequestAllocBudget)
	}
}

func TestCandidateProcessingAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	built, err := BuildRequest(allocSpec(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(attr.NewProfile(
		attr.MustNew("sex", "male"),
		attr.MustNew("university", "columbia"),
		attr.MustNew("interest", "basketball"),
		attr.MustNew("interest", "chess"),
		attr.MustNew("interest", "cooking"),
		attr.MustNew("interest", "hiking"),
	), MatcherConfig{AllowCollisionSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		res, _, err := m.TryUnseal(built.Package)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Matched {
			t.Fatal("the candidate did not match")
		}
	})
	t.Logf("TryUnseal: %v allocs/op", avg)
	if avg > candidateProcessingAllocBudget {
		t.Errorf("TryUnseal: %v allocs/op, budget %d", avg, candidateProcessingAllocBudget)
	}
}
