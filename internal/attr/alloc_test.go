package attr

import "testing"

// newNumberAllocBudget is the allocation budget of one attribute whose value
// spells a ten-digit number, as a per-operation identity attribute does
// ("x<digits>"); measured 7.
const newNumberAllocBudget = 9

func TestNewNumberAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := New("h", "x1073741823"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs/op", avg)
	if avg > newNumberAllocBudget {
		t.Errorf("New: %v allocs/op, budget %d", avg, newNumberAllocBudget)
	}
}
