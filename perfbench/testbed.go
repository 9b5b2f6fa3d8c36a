package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/modelspec"
	"repro/internal/obs"
	"repro/internal/opprofile"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/tracemine"
	"repro/internal/travelagency"
)

// testbed-mine shape.
const (
	// tbBatch is the visits per LoadGen batch; classes alternate per batch.
	tbBatch = 1000
	// tbPollEvery is the visits between GET /modeldrift polls.
	tbPollEvery = 2000
	// tbRing is the span ring's capacity in visit traces.
	tbRing = 6000
	// tbDirectShare is the share of -seconds given to the direct-transport
	// phase; the loopback-HTTP phase gets the rest.
	tbDirectShare = 0.8
	// tbHTTPBatch is the visits per batch of the loopback-HTTP phase.
	tbHTTPBatch = 100
	// tbOfflineRepeats is how often the ring is exported and mined offline
	// during the direct phase; aux_ms reports the median.
	tbOfflineRepeats = 7
	// Traced run: direct visits, loopback-HTTP visits.
	tracedVisits     = 12000
	tracedHTTPVisits = 300
)

// mineEnv is the testbed-mine deployment: a direct and a loopback-HTTP
// cluster, the span ring fed by obs.Bridge, and an obs.Server with the
// tracemine endpoint installed.
type mineEnv struct {
	// flags holds the per-call service edges Diff flagged drift, live and
	// offline, for checkFlags (see checkConsistent).
	mu    sync.Mutex
	flags []tracemine.Edge

	direct, http *testbed.Cluster
	tracer       *obs.Tracer
	bridge       *obs.Bridge
	server       *obs.Server
	base         string
	client       *http.Client
	specs        map[string]*modelspec.Spec
	predicted    map[travelagency.UserClass]float64
}

var classes = []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB}

func newMineEnv(seed int64, procs int) (*mineEnv, error) {
	p := travelagency.DefaultParams()
	e := &mineEnv{
		specs:     make(map[string]*modelspec.Spec),
		predicted: make(map[travelagency.UserClass]float64),
		client:    newClient(1),
	}
	for _, class := range classes {
		spec, err := travelagency.SpecForClass(p, class)
		if err != nil {
			return nil, err
		}
		e.specs[class.String()] = spec
		rep, err := travelagency.Evaluate(p, class)
		if err != nil {
			return nil, err
		}
		e.predicted[class] = rep.UserAvailability
	}
	var err error
	if e.direct, err = testbed.New(p, testbed.Options{Transport: testbed.Direct}); err != nil {
		return nil, err
	}
	if e.http, err = testbed.New(p, testbed.Options{Transport: testbed.HTTP}); err != nil {
		e.direct.Close()
		return nil, err
	}
	reg := obs.NewRegistry()
	e.tracer = obs.NewTracer(tbRing)
	e.bridge = obs.NewBridge(reg, e.tracer, nil)
	e.server = obs.NewServer(reg, e.tracer)
	ep := tracemine.NewEndpoint(e.tracer, e.specs, tracemine.Options{}, tracemine.DiffOptions{Z: checkZ})
	if err := ep.Install(e.server, reg); err != nil {
		e.close()
		return nil, err
	}
	addr, err := e.server.Start("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + addr
	// Warm-up: one batch per class and transport on a visit range the
	// measured stream never reaches, into a collector nothing reads.
	for _, class := range classes {
		for _, c := range []*testbed.Cluster{e.direct, e.http} {
			gen := testbed.LoadGen{Cluster: c, Class: class, Visits: tbHTTPBatch, Workers: procs,
				Seed: seed, Offset: 1 << 50, KeepSteps: true}
			if err := gen.Run(telemetry.NewCollector(1)); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	return e, nil
}

func (e *mineEnv) close() {
	if e.server != nil {
		_ = e.server.Close() // nothing to flush: no flush path is set
	}
	e.client.CloseIdleConnections()
	e.http.Close()
	e.direct.Close()
}

// collectors holds one telemetry collector per class.
type collectors map[travelagency.UserClass]*telemetry.Collector

func newCollectors(onRecord func(telemetry.VisitTrace)) collectors {
	cols := make(collectors)
	for _, class := range classes {
		cols[class] = telemetry.NewCollector(1)
		if onRecord != nil {
			cols[class].SetOnRecord(onRecord)
		}
	}
	return cols
}

// checkClass requires a class's measured availability interval to
// bracket eq. (10).
func (e *mineEnv) checkClass(r *run, class travelagency.UserClass, col *telemetry.Collector, what string) {
	s, err := col.Summary()
	if err == nil && s.Visits == 0 {
		err = errors.New("no visits")
	}
	if err != nil {
		r.fail("%s class %v: %v", what, class, err)
		return
	}
	r.check(checkMeasured(class, s.Successes, s.Visits, e.predicted[class]), what)
}

// checkClasses checks every class of a direct-transport phase.
func (e *mineEnv) checkClasses(r *run, cols collectors) {
	for _, class := range classes {
		e.checkClass(r, class, cols[class], "direct")
	}
}

// pollDrift GETs /modeldrift and checks the verdict.
func (e *mineEnv) pollDrift() (time.Duration, error) {
	start := time.Now()
	status, body, err := call(e.client, "GET", e.base+"/modeldrift", nil)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if status != http.StatusOK {
		return d, fmt.Errorf("/modeldrift: status %d: %.200s", status, body)
	}
	var resp tracemine.DriftResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return d, fmt.Errorf("/modeldrift: %v", err)
	}
	if resp.Report == nil {
		return d, fmt.Errorf("/modeldrift: no report")
	}
	return d, e.consistent("live /modeldrift", resp.Report)
}

// consistent checks a diff with checkConsistent and keeps the service edges
// it flagged for checkFlags.
func (e *mineEnv) consistent(what string, rep *tracemine.Report) error {
	flagged, err := checkConsistent(what, rep)
	e.mu.Lock()
	e.flags = append(e.flags, flagged...)
	e.mu.Unlock()
	return err
}

// checkFlags judges every flagged service edge against the visits of the
// final ring (checkServiceEdge).
func (e *mineEnv) checkFlags(r *run, visits []tracemine.Visit) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, edge := range e.flags {
		r.check(checkServiceEdge(edge, visits), "flagged service edge")
	}
}

// exportRing writes the span ring as JSON lines and counts its spans.
func (e *mineEnv) exportRing() ([]byte, int64, error) {
	var buf bytes.Buffer
	if err := e.tracer.WriteJSONL(&buf); err != nil {
		return nil, 0, err
	}
	var spans int64
	for _, tr := range e.tracer.Traces() {
		spans += int64(len(tr.Spans))
	}
	return buf.Bytes(), spans, nil
}

// mineOffline runs the offline tracemine path on exported JSON lines.
func (e *mineEnv) mineOffline(data []byte) (*tracemine.Discovery, *tracemine.Report, error) {
	d, err := tracemine.MineJSONL(bytes.NewReader(data), tracemine.Options{})
	if err != nil {
		return nil, nil, err
	}
	rep, err := tracemine.Diff(d, e.specs, tracemine.DiffOptions{Z: checkZ})
	return d, rep, err
}

// offlinePass exports the ring (not timed) and mines it offline after a
// garbage collection, returning the mining time in milliseconds, the
// exported span count and the checks' verdict. A second collection keeps
// the pass's garbage from the visits that follow.
func (e *mineEnv) offlinePass() (float64, int64, error) {
	data, spans, err := e.exportRing()
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	d, rep, err := e.mineOffline(data)
	elapsed := ms(time.Since(t0))
	if err == nil {
		err = e.checkOffline(d, rep, spans)
	}
	runtime.GC()
	return elapsed, spans, err
}

// checkOffline judges an offline mining result: every exported span mined
// and a consistent diff.
func (e *mineEnv) checkOffline(d *tracemine.Discovery, rep *tracemine.Report, spans int64) error {
	if err := checkMined(d, spans); err != nil {
		return err
	}
	return e.consistent("offline tracemine", rep)
}

// checkRing judges the final ring's visits: each service's availability per
// visit, and every service edge Diff flagged on the way.
func (e *mineEnv) checkRing(r *run) {
	visits, _ := tracemine.Fold(e.tracer.Traces())
	r.check(checkServices(visits, e.specs[travelagency.ClassA.String()]), "service availability per visit")
	e.checkFlags(r, visits)
}

func measureTestbedMine(cfg config, r *run) error {
	setup := &setupTimer[*mineEnv]{
		build:   func() (*mineEnv, error) { return newMineEnv(cfg.seed, cfg.procs) },
		closeFn: func(e *mineEnv) { e.close() },
	}
	e, err := setup.before()
	if err != nil {
		return err
	}
	defer e.close()

	cols := newCollectors(e.bridge.OnVisit)
	var (
		drift, visits series
		polls         = make(chan struct{}, 1) // one poll in flight at a time
		done          int64
		nextOff       = map[travelagency.UserClass]int64{travelagency.ClassA: 0, travelagency.ClassB: classBOffset}
	)
	r.startRSS()
	start := time.Now()
	directLen := time.Duration(cfg.seconds * tbDirectShare * float64(time.Second))
	// The offline passes are spread over the direct phase, so that a slow
	// phase of the machine moves few of them. They pause the visits, and
	// the pauses are kept off the visit clock, so visits_per_s counts only
	// the time visits ran.
	var (
		paused  time.Duration
		offline []float64
		spans   int64
	)
	clock := func() time.Duration { return time.Since(start) - paused }
	minePaused := func() {
		pauseStart := time.Now()
		polls <- struct{}{} // no poll runs during a pass
		elapsed, n, err := e.offlinePass()
		<-polls
		r.check(err, "offline mining")
		offline, spans = append(offline, elapsed), n
		paused += time.Since(pauseStart)
	}
	for k := 0; clock() < directLen; k++ {
		class := classes[k%2]
		gen := testbed.LoadGen{Cluster: e.direct, Class: class, Visits: tbBatch, Workers: cfg.procs,
			Seed: cfg.seed, Offset: nextOff[class], KeepSteps: true}
		r.check(gen.Run(cols[class]), "direct visit batch")
		nextOff[class] += tbBatch
		visits.addAt(tbBatch, start.Add(clock()))
		done += tbBatch
		if done%tbPollEvery == 0 {
			polls <- struct{}{}
			go func() {
				defer func() { <-polls }()
				d, err := e.pollDrift()
				r.check(err, "modeldrift poll")
				drift.addLatency(d)
			}()
		}
		if len(offline) < tbOfflineRepeats && clock() >= directLen*time.Duration(len(offline)+1)/(tbOfflineRepeats+1) {
			minePaused()
		}
	}
	for len(offline) < tbOfflineRepeats {
		minePaused()
	}
	polls <- struct{}{} // wait for the last poll
	directEnd := start.Add(clock())

	httpCol := telemetry.NewCollector(1)
	var httpVisits int64
	httpStart := time.Now()
	httpDeadline := httpStart.Add(time.Duration(cfg.seconds * (1 - tbDirectShare) * float64(time.Second)))
	for time.Now().Before(httpDeadline) {
		gen := testbed.LoadGen{Cluster: e.http, Class: travelagency.ClassA, Visits: tbHTTPBatch,
			Workers: cfg.procs, Seed: cfg.seed, Offset: httpVisits, KeepSteps: true}
		r.check(gen.Run(httpCol), "http visit batch")
		httpVisits += tbHTTPBatch
	}
	httpElapsed := time.Since(httpStart)
	r.stopRSS()

	e.checkRing(r)
	e.checkClasses(r, cols)
	e.checkClass(r, travelagency.ClassA, httpCol, "http")

	r.alias("mean_ms", "modeldrift_mean_ms", drift.mean(), "ms", drift.count())
	r.addLine("modeldrift_p50_ms", drift.quantile(0.5), "ms", drift.count())
	r.alias("p75_ms", "modeldrift_p75_ms", drift.quantile(0.75), "ms", drift.count())
	r.addLine("modeldrift_p90_ms", drift.quantile(0.9), "ms", drift.count())
	r.alias("ops_per_s", "visits_per_s", visits.rate(start, directEnd), "1/s", done)
	mineMS := median(offline)
	r.alias("aux_ms", "offline mine+diff ms", mineMS, "ms", int64(len(offline)))
	r.addLine("spans_per_s", float64(spans)/(mineMS/1e3), "1/s", spans)
	r.addLine("tracemine per-call service drift flags", float64(len(e.flags)), "count", drift.count()+tbOfflineRepeats)
	r.addLine("http_visits_per_s", float64(httpVisits)/httpElapsed.Seconds(), "1/s", httpVisits)
	return setup.after(r)
}

// runVisits runs visits [offset, offset+n) of class on cluster, recording
// each into col and the bridge, with spans when rec is non-nil.
func runVisits(rec *recorder, cluster *testbed.Cluster, class travelagency.UserClass, seed, offset, n int64,
	col *telemetry.Collector, bridge *obs.Bridge, visitSpan string) error {
	scenarios, err := travelagency.Scenarios(class)
	if err != nil {
		return err
	}
	weights := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		weights[i] = sc.Probability
	}
	sampler, err := opprofile.NewSampler(weights)
	if err != nil {
		return err
	}
	for i := int64(0); i < n; i++ {
		id := offset + i
		root := rec.begin("bench.visit", 0, id)
		var (
			rng *rand.Rand
			sc  hierarchy.UserScenario
		)
		rec.call("testbed.loadgen", root.spanID(), id, func() {
			rng = rand.New(rand.NewSource(mixSeed(seed, id)))
			sc = scenarios[sampler.Sample(rng)]
		})
		var tr telemetry.VisitTrace
		rec.call(visitSpan, root.spanID(), id, func() {
			tr, err = cluster.RunVisit(uint64(id), sc, rng, true)
		})
		if err != nil {
			return err
		}
		tr.Class = class.String()
		rec.call("telemetry.record", root.spanID(), id, func() { col.RecordVisit(tr) })
		if bridge != nil {
			rec.call("obs.on_visit", root.spanID(), id, func() { bridge.OnVisit(tr) })
		}
		root.end()
	}
	return nil
}

// mineLive does what GET /modeldrift does: snapshot the ring, mine, diff.
func mineLive(rec *recorder, e *mineEnv, id int64) (*tracemine.Report, error) {
	root := rec.begin("bench.poll", 0, id)
	defer root.end()
	var traces []obs.Trace
	rec.call("obs.snapshot", root.spanID(), id, func() { traces = e.tracer.Snapshot(0) })
	d := mineTraced(rec, traces, root.spanID(), id)
	var (
		rep *tracemine.Report
		err error
	)
	rec.call("tracemine.diff", root.spanID(), id, func() {
		rep, err = tracemine.Diff(d, e.specs, tracemine.DiffOptions{Z: checkZ})
	})
	return rep, err
}

// mineTraced calls tracemine.Mine under a tracemine.mine span and replays
// the Fold it runs first, so mine's self time is Mine minus Fold.
func mineTraced(rec *recorder, traces []obs.Trace, parent, id int64) *tracemine.Discovery {
	var d *tracemine.Discovery
	a := rec.begin("tracemine.mine", parent, id)
	d = tracemine.Mine(traces, tracemine.Options{})
	a.end()
	rec.replay(func() {
		rec.call("tracemine.fold", a.spanID(), id, func() { tracemine.Fold(traces) })
	})
	return d
}

// minePass runs the traced run's fixed work once: tracedVisits direct
// visits in alternating class batches with a live mining pass every
// tbPollEvery visits, tracedHTTPVisits loopback-HTTP visits, and the offline
// mining of the exported ring. With rec nil it runs untraced. It returns
// the wall time without the set-up and the untimed ring export.
func minePass(rec *recorder, r *run, cfg config) (time.Duration, error) {
	e, err := newMineEnv(cfg.seed, cfg.procs)
	if err != nil {
		return 0, err
	}
	defer e.close()
	cols := newCollectors(nil)
	start := time.Now()
	batches := visitBatches(int(tracedVisits/tbBatch), tbBatch)
	var visits int64
	for k, b := range batches {
		if err := runVisits(rec, e.direct, b.class, cfg.seed, b.offset, b.visits, cols[b.class], e.bridge, "testbed.run_visit"); err != nil {
			return 0, err
		}
		visits += b.visits
		if visits%tbPollEvery == 0 {
			rep, err := mineLive(rec, e, int64(-1-k))
			if err == nil {
				err = e.consistent("live mining", rep)
			}
			r.check(err, "live mining")
		}
	}
	httpCol := telemetry.NewCollector(1)
	if err := runVisits(rec, e.http, travelagency.ClassA, cfg.seed, 0, tracedHTTPVisits,
		httpCol, nil, "testbed.http_run_visit"); err != nil {
		return 0, err
	}
	exportStart := time.Now()
	data, spans, err := e.exportRing()
	if err != nil {
		return 0, err
	}
	export := time.Since(exportStart)
	root := rec.begin("bench.offline", 0, 0)
	var (
		traces []obs.Trace
		rs     tracemine.ReadStats
	)
	rec.call("tracemine.read", root.spanID(), 0, func() { traces, rs, err = tracemine.ReadSpans(bytes.NewReader(data)) })
	if err != nil {
		return 0, err
	}
	d := mineTraced(rec, traces, root.spanID(), 0)
	d.Read = rs
	var rep *tracemine.Report
	rec.call("tracemine.diff", root.spanID(), 0, func() { rep, err = tracemine.Diff(d, e.specs, tracemine.DiffOptions{Z: checkZ}) })
	root.end()
	wall := time.Since(start) - export
	if err == nil {
		err = e.checkOffline(d, rep, spans)
	}
	r.check(err, "offline mining")
	e.checkRing(r)
	e.checkClasses(r, cols)
	e.checkClass(r, travelagency.ClassA, httpCol, "http")
	if rec != nil {
		r.report("tracemine.malformed", float64(rs.Malformed+rs.Duplicates), "count", rs.Lines)
	}
	return wall, nil
}

func traceTestbedMine(cfg config, r *run) error {
	untraced1, err := minePass(nil, r, cfg)
	if err != nil {
		return err
	}
	rec := newRecorder()
	before := readCounters(nil, nil, nil)
	wall, err := minePass(rec, r, cfg)
	if err != nil {
		return err
	}
	delta := readCounters(nil, nil, nil).sub(before)
	untraced2, err := minePass(nil, r, cfg)
	if err != nil {
		return err
	}
	delta.report(r)
	reportOverhead(r, wall-rec.replayed(), untraced1, untraced2)
	return reportLayers(r, rec, wall, cfg)
}
