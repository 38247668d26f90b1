package core

import (
	"testing"

	"sealedbottle/internal/attr"
)

// buildRequestAllocBudget caps the heap objects of one initiator-side
// BuildRequest on a six-attribute, γ = 2 spec. What it pays for is the
// cryptography (field elements, big.Int scratch, the hint matrix, sealing);
// attributes carry their canonical form, so no text is normalized per build.
const buildRequestAllocBudget = 130

func TestBuildRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	spec := RequestSpec{
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
	avg := testing.AllocsPerRun(200, func() {
		if _, err := BuildRequest(spec, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > buildRequestAllocBudget {
		t.Errorf("BuildRequest: %v allocs/op, budget %d", avg, buildRequestAllocBudget)
	}
}
