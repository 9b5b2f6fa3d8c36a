package main

import (
	"repro/internal/availd"
	"repro/internal/ctmc"
	"repro/internal/dtmc"
	"repro/internal/webfarm"
)

// counters is a snapshot of the program's own counters; a run reports the
// difference of two snapshots.
type counters struct {
	memoHits, memoMisses, memoEvicted    int64
	repairHits, repairMisses             int64
	lossHits, lossMisses                 int64
	jobsShed                             int64
	steadySolves, transientSolves, steps int64
	dtmcAnalyses                         int64
}

// readCounters snapshots the process-wide kernel counters and, when given,
// an evaluator's memo, a composer's caches and a job engine's shed count.
func readCounters(ev *availd.Evaluator, comp *webfarm.Composer, jobs *availd.Engine) counters {
	var c counters
	if ev != nil {
		c.memoHits, c.memoMisses, c.memoEvicted, _ = ev.MemoStats()
	}
	if comp != nil {
		c.repairHits, c.repairMisses, c.lossHits, c.lossMisses = comp.CacheStats()
	}
	if jobs != nil {
		c.jobsShed = jobs.Stats().Shed
	}
	k := ctmc.ReadKernelStats()
	c.steadySolves, c.transientSolves, c.steps = k.SteadySolves, k.TransientSolves, k.UniformizationSteps
	c.dtmcAnalyses = dtmc.ReadKernelStats().Analyses
	return c
}

// cacheStats reads the cache counters of composers made for one pass:
// their totals are the pass's deltas.
func cacheStats(comps ...*webfarm.Composer) counters {
	var c counters
	for _, comp := range comps {
		rh, rm, lh, lm := comp.CacheStats()
		c.repairHits += rh
		c.repairMisses += rm
		c.lossHits += lh
		c.lossMisses += lm
	}
	return c
}

// sub returns c − o.
func (c counters) sub(o counters) counters {
	return counters{
		memoHits:        c.memoHits - o.memoHits,
		memoMisses:      c.memoMisses - o.memoMisses,
		memoEvicted:     c.memoEvicted - o.memoEvicted,
		repairHits:      c.repairHits - o.repairHits,
		repairMisses:    c.repairMisses - o.repairMisses,
		lossHits:        c.lossHits - o.lossHits,
		lossMisses:      c.lossMisses - o.lossMisses,
		jobsShed:        c.jobsShed - o.jobsShed,
		steadySolves:    c.steadySolves - o.steadySolves,
		transientSolves: c.transientSolves - o.transientSolves,
		steps:           c.steps - o.steps,
		dtmcAnalyses:    c.dtmcAnalyses - o.dtmcAnalyses,
	}
}

// add accumulates another delta.
func (c *counters) add(o counters) {
	c.memoHits += o.memoHits
	c.memoMisses += o.memoMisses
	c.memoEvicted += o.memoEvicted
	c.repairHits += o.repairHits
	c.repairMisses += o.repairMisses
	c.lossHits += o.lossHits
	c.lossMisses += o.lossMisses
	c.jobsShed += o.jobsShed
	c.steadySolves += o.steadySolves
	c.transientSolves += o.transientSolves
	c.steps += o.steps
	c.dtmcAnalyses += o.dtmcAnalyses
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// report sets the counter-based per-layer metrics from a delta.
func (c counters) report(r *run) {
	r.report("availd.memo_hit_ratio", ratio(c.memoHits, c.memoMisses), "ratio", c.memoHits+c.memoMisses)
	r.report("availd.memo_evicted", float64(c.memoEvicted), "count", 1)
	r.report("availd.jobs_shed", float64(c.jobsShed), "count", 1)
	r.report("webfarm.repair_hit_ratio", ratio(c.repairHits, c.repairMisses), "ratio", c.repairHits+c.repairMisses)
	r.report("webfarm.loss_hit_ratio", ratio(c.lossHits, c.lossMisses), "ratio", c.lossHits+c.lossMisses)
	r.report("ctmc.steady_solves", float64(c.steadySolves), "count", 1)
	r.report("ctmc.transient_solves", float64(c.transientSolves), "count", 1)
	r.report("ctmc.uniformization_steps", float64(c.steps), "count", 1)
	r.report("dtmc.analyses", float64(c.dtmcAnalyses), "count", 1)
}
