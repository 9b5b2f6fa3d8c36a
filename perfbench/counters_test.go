package main

import (
	"testing"
)

// deterministicCounts are the per-layer counts a fixed seed must repeat
// exactly.
var deterministicCounts = []string{
	"ctmc.steady_solves", "ctmc.transient_solves", "ctmc.uniformization_steps",
	"dtmc.analyses", "hierarchy.assignments", "tracemine.malformed",
}

func TestDeterministicCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three traced runs twice")
	}
	for _, w := range []string{"capacity-plan", "api-cold", "testbed-mine"} {
		var first map[string]metric
		for i := 0; i < 2; i++ {
			code, res := lastLine(t, "-workload", w, "-seed", "4", "-seconds", "1", "-trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("%s: exit %d, %+v", w, code, res)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, name := range deterministicCounts {
				if res.Metrics[name] != first[name] {
					t.Errorf("%s: %s = %v then %v", w, name, first[name].Value, res.Metrics[name].Value)
				}
			}
		}
	}
}

func TestCounterDeltas(t *testing.T) {
	a := counters{memoHits: 5, memoMisses: 2, steps: 10}
	b := counters{memoHits: 9, memoMisses: 3, steps: 17}
	d := b.sub(a)
	if d.memoHits != 4 || d.memoMisses != 1 || d.steps != 7 {
		t.Errorf("delta %+v", d)
	}
	d.add(a)
	if d != b {
		t.Errorf("add(sub) = %+v, want %+v", d, b)
	}
}
