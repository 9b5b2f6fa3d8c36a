package tracemine

import (
	"sort"

	"repro/internal/obs"
)

// Visit is one user visit reconstructed from a span tree — the mining-side
// mirror of telemetry.VisitTrace, carrying only what the estimators need.
type Visit struct {
	Trace    uint64
	Class    string // "" when the visit-level class attr is absent
	Scenario string
	OK       bool
	Cause    string
	// Functions in invocation order; empty Steps when the trace stops at
	// the function level (step tracing disabled at the source).
	Functions []VisitFunction
}

// VisitFunction is one reconstructed function invocation.
type VisitFunction struct {
	Name  string
	OK    bool
	Cause string
	Steps []VisitStep
}

// VisitStep is one executed interaction-diagram step.
type VisitStep struct {
	Name      string
	OK        bool
	Cause     string
	Resources []VisitResource
}

// VisitResource is one service call within a step.
type VisitResource struct {
	Service string
	OK      bool
	Cause   string
}

// FoldStats counts tree-reconstruction anomalies.
type FoldStats struct {
	// Visits is the number of visit trees successfully reconstructed.
	Visits int64 `json:"visits"`
	// NoRoot counts traces dropped for lack of a visit-level root span.
	NoRoot int64 `json:"no_root"`
	// Orphans counts spans that could not be attached to a parent of the
	// expected level (the rest of their trace is still used).
	Orphans int64 `json:"orphans"`
}

// Fold reconstructs visit trees from flat span traces. Children attach to
// parents strictly one level down (visit→function→step→resource), ordered by
// span ID, which matches emission order; spans violating the hierarchy are
// counted as orphans and skipped. Fold never modifies its input: traces taken
// from a live tracer share their span slices with its ring.
func Fold(traces []obs.Trace) ([]Visit, FoldStats) {
	var stats FoldStats
	var f folder
	visits := make([]Visit, 0, len(traces))
	for _, tr := range traces {
		v, orphans, ok := f.fold(tr.Spans)
		stats.Orphans += orphans
		if !ok {
			stats.NoRoot++
			continue
		}
		stats.Visits++
		visits = append(visits, v)
	}
	return visits, stats
}

// folder holds the per-span index slices of one trace's reconstruction,
// reused across the traces of a Fold call. Every slice is indexed by span
// position in ID order.
type folder struct {
	sorted []obs.Span // ID-ordered copy of a trace emitted out of order
	parent []int      // position of the span's parent; -1 if not attached
	kids   []int      // number of attached children
	index  []int      // attached function's or step's index in its parent
}

// fold reconstructs one trace in two passes over its spans: the first
// attaches each span to its parent and counts every parent's children, the
// second fills the visit with every Steps and Resources slice carved, at its
// exact size, from one backing array per level.
func (f *folder) fold(spans []obs.Span) (Visit, int64, bool) {
	if !sortedByID(spans) {
		f.sorted = append(f.sorted[:0], spans...)
		sort.SliceStable(f.sorted, func(i, j int) bool { return f.sorted[i].ID < f.sorted[j].ID })
		spans = f.sorted
	}
	rootIdx := -1
	for i := range spans {
		if spans[i].Level == obs.LevelVisit && spans[i].Parent == 0 {
			rootIdx = i
			break
		}
	}
	if rootIdx < 0 {
		return Visit{}, int64(len(spans)), false
	}
	root := &spans[rootIdx]
	v := Visit{
		Trace:    root.Trace,
		Class:    root.Attrs["class"],
		Scenario: root.Attrs["scenario"],
		OK:       root.OK,
		Cause:    root.Cause,
	}
	if v.Scenario == "" {
		// Older emitters named the root span after the scenario instead of
		// stamping an attr.
		v.Scenario = root.Name
	}

	f.parent = fill(f.parent, len(spans), -1)
	f.kids = fill(f.kids, len(spans), 0)
	f.index = fill(f.index, len(spans), 0)
	var orphans int64
	var nSteps, nResources int
	for i := range spans {
		if i == rootIdx {
			continue
		}
		sp := &spans[i]
		p := -1
		switch sp.Level {
		case obs.LevelFunction:
			if sp.Parent == root.ID {
				p = rootIdx
			}
		case obs.LevelStep:
			p = f.attached(spans, sp.Parent, obs.LevelFunction)
			if p >= 0 {
				nSteps++
			}
		case obs.LevelResource:
			p = f.attached(spans, sp.Parent, obs.LevelStep)
			if p >= 0 {
				nResources++
			}
		} // a second visit-level span in the same trace stays unattached
		if p < 0 {
			orphans++
			continue
		}
		f.parent[i] = p
		f.kids[p]++
	}

	if n := f.kids[rootIdx]; n > 0 {
		v.Functions = make([]VisitFunction, 0, n)
	}
	steps := make([]VisitStep, nSteps)
	resources := make([]VisitResource, nResources)
	for i := range spans {
		p := f.parent[i]
		if p < 0 {
			continue
		}
		sp := &spans[i]
		switch sp.Level {
		case obs.LevelFunction:
			f.index[i] = len(v.Functions)
			v.Functions = append(v.Functions, VisitFunction{
				Name:  sp.Name,
				OK:    sp.OK,
				Cause: sp.Cause,
				Steps: carve(&steps, f.kids[i]),
			})
		case obs.LevelStep:
			fn := &v.Functions[f.index[p]]
			f.index[i] = len(fn.Steps)
			fn.Steps = append(fn.Steps, VisitStep{
				Name:      sp.Name,
				OK:        sp.OK,
				Cause:     sp.Cause,
				Resources: carve(&resources, f.kids[i]),
			})
		case obs.LevelResource:
			st := &v.Functions[f.index[f.parent[p]]].Steps[f.index[p]]
			st.Resources = append(st.Resources, VisitResource{
				Service: sp.Name,
				OK:      sp.OK,
				Cause:   sp.Cause,
			})
		}
	}
	return v, orphans, true
}

// attached returns the position of the most recently attached span of the
// given level carrying id, or -1. Spans not yet visited are unattached, so a
// parent that sorts after its child never matches.
func (f *folder) attached(spans []obs.Span, id int, level obs.Level) int {
	// Binary search for the end of the run of spans carrying id, then walk
	// the run backwards: duplicate IDs resolve to the latest attached span.
	lo, hi := 0, len(spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if spans[m].ID <= id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for p := lo - 1; p >= 0 && spans[p].ID == id; p-- {
		if f.parent[p] >= 0 && spans[p].Level == level {
			return p
		}
	}
	return -1
}

// carve cuts the next n elements off the front of *arena as an empty slice
// with capacity n, so appending to it never reaches a neighbour's elements;
// n = 0 gives nil, as an append-built slice would be.
func carve[T any](arena *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := (*arena)[:0:n]
	*arena = (*arena)[n:]
	return s
}

func sortedByID(spans []obs.Span) bool {
	for i := 1; i < len(spans); i++ {
		if spans[i].ID < spans[i-1].ID {
			return false
		}
	}
	return true
}

// fill returns idx resized to n entries, each set to v.
func fill(idx []int, n, v int) []int {
	if cap(idx) < n {
		idx = make([]int, n)
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = v
	}
	return idx
}
