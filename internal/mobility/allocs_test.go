//go:build !race

package mobility

import (
	"testing"

	"telcolens/internal/randx"
)

// TestPlanDaySteadyStateAllocs asserts the generation worker's contract:
// once its Scratch has grown to the largest plan, PlanDay allocates
// nothing. Built out under -race (the detector skews allocation counts);
// `make alloc-check` runs it.
func TestPlanDaySteadyStateAllocs(t *testing.T) {
	w := buildWorld(t)
	r := randx.New(1)
	var scratch Scratch
	plan := func(rounds int) {
		for i := 0; i < rounds; i++ {
			ue := &w.pop.UEs[i%w.pop.Len()]
			w.planner.PlanDay(r, ue, w.pop.Model(ue), i%28, &scratch)
		}
	}
	plan(2 * w.pop.Len()) // warm the scratch past every class's largest day
	if allocs := testing.AllocsPerRun(5, func() { plan(w.pop.Len()) }); allocs != 0 {
		t.Fatalf("PlanDay with a warm Scratch allocated %.1f times per %d UE-days, want 0", allocs, w.pop.Len())
	}
}
