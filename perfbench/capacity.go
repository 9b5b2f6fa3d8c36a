package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/availd"
	"repro/internal/hierarchy"
	"repro/internal/travelagency"
	"repro/internal/webfarm"
)

// capacity-plan shape: the controller is configured like loadtest
// -controller (class A, SLO 0.94) over servers 1..capMaxServers.
const (
	capSLO        = 0.94
	capMaxServers = 8
	capServerCost = 8000
	// tracedSets is the number of sets the traced run replays.
	tracedSets = 2
)

// recordingActuator holds the configuration the controller last applied;
// it drives no deployment.
type recordingActuator struct {
	servers, buffer int
}

func (a *recordingActuator) Current() (int, int) { return a.servers, a.buffer }

func (a *recordingActuator) Apply(servers, buffer int) error {
	a.servers, a.buffer = servers, buffer
	return nil
}

// setResult is one capacity-plan set's outputs and timings.
type setResult struct {
	figure11, figure12, table8 []byte
	decisions                  string
	grid                       time.Duration
	ticks                      []time.Duration
}

// capacityEnv holds what every set shares: the signal trace, the serial
// grid references and the first set's outputs to compare later sets with.
type capacityEnv struct {
	plan  []tickPlan
	ref   *gridReference
	first *setResult
}

// signals assembles a tick's window for the controller's current size.
func signals(tp tickPlan, servers int) autoscale.Signals {
	return autoscale.Signals{
		Visits:            tp.visits,
		Failures:          tp.failures,
		WebUpServerVisits: int64(math.Round(tp.upFrac * float64(tp.visits) * float64(servers))),
		WebVisits:         tp.visits,
		Admitted:          tp.admitted,
		Rejected:          tp.rejected,
		ArrivalRate:       tp.arrival,
	}
}

// runSet runs one set: the cold grids on a fresh availd.Evaluator, then the
// controller on a fresh webfarm.Composer through the signal trace.
func runSet(plan []tickPlan, procs int) (*setResult, error) {
	res := &setResult{}
	ev := availd.NewEvaluator(procs, 0)
	start := time.Now()
	var err error
	if res.figure11, err = ev.Figure(11); err != nil {
		return nil, err
	}
	if res.figure12, err = ev.Figure(12); err != nil {
		return nil, err
	}
	if res.table8, err = ev.Table8(); err != nil {
		return nil, err
	}
	res.grid = time.Since(start)

	ctrl, act, err := newController(webfarm.NewComposer())
	if err != nil {
		return nil, err
	}
	var trace strings.Builder
	for _, tp := range plan {
		sig := signals(tp, act.servers)
		t0 := time.Now()
		d, err := ctrl.Tick(sig)
		res.ticks = append(res.ticks, time.Since(t0))
		if err != nil {
			return nil, err
		}
		writeDecision(&trace, d)
	}
	res.decisions = trace.String()
	return res, nil
}

func newController(comp *webfarm.Composer) (*autoscale.Controller, *recordingActuator, error) {
	p := travelagency.DefaultParams()
	act := &recordingActuator{servers: p.WebServers, buffer: p.BufferSize}
	ctrl, err := autoscale.New(autoscale.Config{
		Params:            p,
		Class:             travelagency.ClassA,
		SLO:               capSLO,
		MinServers:        1,
		MaxServers:        capMaxServers,
		ServerCostPerHour: capServerCost,
		Composer:          comp,
	}, act)
	return ctrl, act, err
}

func writeDecision(w *strings.Builder, d autoscale.Decision) {
	fmt.Fprintf(w, "%v %d %d %.17g %.17g %.17g\n", d.Action, d.Servers, d.Buffer, d.Predicted, d.Measured, d.CostPerHour)
}

// checkSet judges a set against the serial references and the first set.
func (env *capacityEnv) checkSet(r *run, s *setResult) {
	r.check(env.ref.checkFigure(11, s.figure11), "figure 11")
	r.check(env.ref.checkFigure(12, s.figure12), "figure 12")
	r.check(env.ref.checkTable8(s.table8), "table 8")
	if env.first == nil {
		return
	}
	r.check(checkSame("figure 11", env.first.figure11, s.figure11), "figure 11")
	r.check(checkSame("figure 12", env.first.figure12, s.figure12), "figure 12")
	r.check(checkSame("table 8", env.first.table8, s.table8), "table 8")
	r.check(checkSame("autoscale decision trace", []byte(env.first.decisions), []byte(s.decisions)), "decisions")
}

// newCapacityEnv builds the signal trace and runs one warm-up set, whose
// outputs later sets must repeat; ref is the oracle's serial reference.
func newCapacityEnv(seed int64, procs int, ref *gridReference) (*capacityEnv, error) {
	env := &capacityEnv{plan: genSignals(seed), ref: ref}
	first, err := runSet(env.plan, procs)
	if err != nil {
		return nil, err
	}
	env.first = first
	return env, nil
}

func measureCapacityPlan(cfg config, r *run) error {
	// The oracle's serial reference is built once, outside the timed set-up.
	ref, err := newGridReference()
	if err != nil {
		return err
	}
	setup := &setupTimer[*capacityEnv]{
		build:   func() (*capacityEnv, error) { return newCapacityEnv(cfg.seed, cfg.procs, ref) },
		closeFn: func(*capacityEnv) {},
	}
	env, err := setup.before()
	if err != nil {
		return err
	}
	saved := env.first
	env.first = nil
	env.checkSet(r, saved)
	env.first = saved

	var ticks, grids, sets series
	r.startRSS()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		s, err := runSet(env.plan, cfg.procs)
		if err != nil {
			r.fail("capacity set: %v", err)
			continue
		}
		now := time.Now()
		sets.addAt(1, now)
		grids.addAt(ms(s.grid), now)
		for _, t := range s.ticks {
			ticks.addAt(ms(t), now)
		}
		env.checkSet(r, s)
	}
	end := time.Now()
	r.stopRSS()
	r.alias("mean_ms", "tick_mean_ms", ticks.mean(), "ms", ticks.count())
	r.addLine("tick_p50_ms", ticks.quantile(0.5), "ms", ticks.count())
	r.alias("p75_ms", "tick_p75_ms", ticks.quantile(0.75), "ms", ticks.count())
	r.addLine("tick_p90_ms", ticks.quantile(0.9), "ms", ticks.count())
	r.alias("ops_per_s", "sets_per_s", sets.rate(start, end), "1/s", sets.count())
	r.alias("aux_ms", "grid_ms", grids.quantile(0.5), "ms", grids.count())
	return setup.after(r)
}

// capacityTracer runs capacity-plan sets with spans (none when rec is nil).
type capacityTracer struct {
	rec *recorder
	// assignments sums 2^(distinct services) over every scenario the sets
	// evaluated; perClass is that sum for one travel-agency model.
	assignments int64
	perClass    map[travelagency.UserClass]int64
	// replay accumulates the counters the replays moved.
	replay counters
}

// set runs one set with spans: Figure(11), Figure(12) and Table8() on a
// fresh availd.Evaluator, each under an availd.grid span, then each
// controller tick under an autoscale.tick span. Replays explain what those
// calls do inside: a figure's Composer.UnavailabilityBatch over its cells
// (on a shadow composer that has seen the same figures before, as the
// evaluator's has), Table 8's two travelagency.EvaluateMany calls, and a
// tick's candidate builds and evaluations. It returns the set's outputs
// and the cache counts of the composers the program used.
func (t *capacityTracer) set(plan []tickPlan, procs int, id int64) (*setResult, counters, error) {
	res := &setResult{}
	root := t.rec.begin("bench.set", 0, id)
	defer root.end()
	ev := availd.NewEvaluator(procs, 0)
	shadow := webfarm.NewComposer()
	var err error
	for _, fig := range []struct {
		n        int
		coverage float64
		body     *[]byte
	}{{11, 1, &res.figure11}, {12, 0.98, &res.figure12}} {
		g := t.rec.begin("availd.grid", root.spanID(), id)
		*fig.body, err = ev.Figure(fig.n)
		g.end()
		if err != nil {
			return nil, counters{}, err
		}
		t.explain(func() {
			cells := figureCells(fig.coverage)
			t.rec.call("webfarm.batch", g.spanID(), id, func() { _, _ = shadow.UnavailabilityBatch(cells, procs) })
		})
	}
	g := t.rec.begin("availd.grid", root.spanID(), id)
	res.table8, err = ev.Table8()
	g.end()
	if err != nil {
		return nil, counters{}, err
	}
	ps := table8Params()
	t.explain(func() {
		for _, class := range classes {
			t.rec.call("travelagency.evaluate_many", g.spanID(), id, func() { _, _ = travelagency.EvaluateMany(ps, class, procs) })
		}
	})
	t.assignments += int64(len(ps)) * (t.perClass[travelagency.ClassA] + t.perClass[travelagency.ClassB])

	comp := webfarm.NewComposer()
	ctrl, act, err := newController(comp)
	if err != nil {
		return nil, counters{}, err
	}
	var trace strings.Builder
	for _, tp := range plan {
		sig := signals(tp, act.servers)
		cur := act.servers
		a := t.rec.begin("autoscale.tick", root.spanID(), id)
		d, err := ctrl.Tick(sig)
		a.end()
		if err != nil {
			return nil, counters{}, err
		}
		t.explain(func() { t.replayTick(comp, sig, cur, a.spanID(), id) })
		writeDecision(&trace, d)
	}
	res.decisions = trace.String()
	return res, cacheStats(ev.Composer(), comp), nil
}

// explain runs fn as a replay and keeps the kernel counters it moved out of
// the program's.
func (t *capacityTracer) explain(fn func()) {
	if t.rec == nil {
		return
	}
	before := readCounters(nil, nil, nil)
	t.rec.replay(fn)
	t.replay.add(readCounters(nil, nil, nil).sub(before))
}

// replayTick times the model solves a tick runs: the current
// configuration's prediction and cost, then each candidate's, each one a
// travelagency build and a hierarchy evaluation on the tick's composer.
// The cache counts the replays add to the composer are kept out of the
// program's with the other replayed counts.
func (t *capacityTracer) replayTick(comp *webfarm.Composer, sig autoscale.Signals, cur int, parent, id int64) {
	before := cacheStats(comp)
	upFrac := float64(sig.WebUpServerVisits) / (float64(sig.WebVisits) * float64(cur))
	if upFrac > 1 {
		upFrac = 1
	}
	servers := []int{cur, cur}
	for s := 1; s <= capMaxServers; s++ {
		servers = append(servers, s, s)
	}
	p := travelagency.DefaultParams()
	for _, s := range servers {
		eff := int(math.Round(float64(s) * upFrac))
		if eff < 1 {
			continue
		}
		q := p
		q.WebServers, q.ArrivalRate = eff, sig.ArrivalRate
		var (
			m   *hierarchy.Model
			err error
		)
		t.rec.call("travelagency.build", parent, id, func() { m, err = travelagency.BuildWith(q, travelagency.ClassA, comp) })
		if err != nil {
			return
		}
		t.rec.call("hierarchy.evaluate", parent, id, func() { _, err = m.Evaluate() })
		t.assignments += t.perClass[travelagency.ClassA]
	}
	t.replay.add(cacheStats(comp).sub(before))
}

// capacityPass runs tracedSets sets with spans when rec is non-nil and
// returns the wall time and the program's counter deltas.
func capacityPass(rec *recorder, r *run, env *capacityEnv, procs int) (time.Duration, *capacityTracer, counters, error) {
	t := &capacityTracer{rec: rec, perClass: make(map[travelagency.UserClass]int64)}
	for _, class := range classes {
		spec, err := travelagency.SpecForClass(travelagency.DefaultParams(), class)
		if err != nil {
			return 0, nil, counters{}, err
		}
		t.perClass[class] = assignments(spec)
	}
	var total counters
	before := readCounters(nil, nil, nil)
	start := time.Now()
	for i := 0; i < tracedSets; i++ {
		s, caches, err := t.set(env.plan, procs, int64(i+1))
		if err != nil {
			return 0, nil, counters{}, err
		}
		env.checkSet(r, s)
		total.add(caches)
	}
	wall := time.Since(start)
	total.add(readCounters(nil, nil, nil).sub(before))
	return wall, t, total.sub(t.replay), nil
}

func traceCapacityPlan(cfg config, r *run) error {
	ref, err := newGridReference()
	if err != nil {
		return err
	}
	env, err := newCapacityEnv(cfg.seed, cfg.procs, ref)
	if err != nil {
		return err
	}
	untraced1, _, _, err := capacityPass(nil, r, env, cfg.procs)
	if err != nil {
		return err
	}
	rec := newRecorder()
	wall, t, delta, err := capacityPass(rec, r, env, cfg.procs)
	if err != nil {
		return err
	}
	untraced2, _, _, err := capacityPass(nil, r, env, cfg.procs)
	if err != nil {
		return err
	}
	delta.report(r)
	r.report("hierarchy.assignments", float64(t.assignments), "count", 1)
	reportOverhead(r, wall-rec.replayed(), untraced1, untraced2)
	return reportLayers(r, rec, wall, cfg)
}
