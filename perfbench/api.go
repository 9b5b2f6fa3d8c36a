package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/availd"
	"repro/internal/modelspec"
	"repro/internal/obs"
)

// apiEnv is one in-process availd deployment on loopback HTTP with the
// corpus scenarios stored.
type apiEnv struct {
	srv    *availd.Server
	reg    *obs.Registry
	lb     *loopbackServer
	client *http.Client
	// warm holds each stored corpus scenario's warm-up evaluation, or the
	// error it failed with.
	warm map[string]warmResult
}

type warmResult struct {
	body []byte
	err  error
}

// newAPIEnv starts availd's routes with workers evaluation workers, behind
// wrap when it is non-nil, and stores ta-a, ta-b and one writer scenario
// per client (procs of them) in its store.
func newAPIEnv(c *corpus, procs, workers int, wrap func(*availd.Server, *obs.Registry, http.Handler) http.Handler) (*apiEnv, error) {
	reg := obs.NewRegistry()
	srv, err := availd.New(availd.Options{Registry: reg, Workers: workers})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(srv, reg, mux)
	}
	lb, err := startLoopback(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	env := &apiEnv{srv: srv, reg: reg, lb: lb, client: newClient(procs)}
	for _, name := range c.names {
		if _, err := srv.Store().Create(name, c.docs[name]); err != nil {
			env.close()
			return nil, err
		}
	}
	for w := 0; w < procs; w++ {
		if _, err := srv.Store().Create(writerName(w), c.docs["ta-a"]); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// warmUp evaluates each stored corpus scenario once in-process, so that the
// base models every what-if on them needs are solved before the measured
// phase.
func (e *apiEnv) warmUp(c *corpus) {
	e.warm = make(map[string]warmResult)
	for _, name := range c.names {
		spec, err := modelspec.Parse(c.docs[name])
		var body []byte
		if err == nil {
			body, err = e.srv.Evaluator().Evaluate(spec, nil)
		}
		e.warm[name] = warmResult{body, err}
	}
}

// checkWarm judges the warm-up evaluations.
func (e *apiEnv) checkWarm(r *run, refs *references, c *corpus) {
	for _, name := range c.names {
		w := e.warm[name]
		err := w.err
		if err == nil {
			req := apiRequest{Kind: kindEvaluate, Want: http.StatusOK, Target: name}
			err = checkResponse(refs, c, req, http.StatusOK, w.body)
		}
		r.check(err, "warm-up "+name)
	}
}

func (e *apiEnv) close() {
	e.client.CloseIdleConnections()
	e.lb.close()
	e.srv.Close()
}

// outcome is one response as the client saw it.
type outcome struct {
	status  int
	body    []byte
	err     error
	latency time.Duration
	done    time.Time
}

// send issues req against env and times it from since.
func (e *apiEnv) send(req apiRequest, since time.Time) outcome {
	status, body, err := call(e.client, req.Method, e.lb.base+req.Path, req.Body)
	done := time.Now()
	return outcome{status: status, body: body, err: err, latency: done.Sub(since), done: done}
}

// checkAll judges n outcomes on procs goroutines.
func checkAll(r *run, n, procs int, judge func(i int) error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r.check(judge(i), "response")
			}
		}()
	}
	wg.Wait()
}

func measureAPICold(cfg config, r *run) error {
	c, err := newCorpus()
	if err != nil {
		return err
	}
	refs := newReferences()
	setup := &setupTimer[*apiEnv]{
		build: func() (*apiEnv, error) {
			env, err := newAPIEnv(c, cfg.procs, cfg.procs, nil)
			if err == nil {
				env.warmUp(c)
			}
			return env, err
		},
		closeFn: func(e *apiEnv) {
			e.checkWarm(r, refs, c)
			e.close()
		},
	}
	env, err := setup.before()
	if err != nil {
		return err
	}
	defer env.close()
	env.checkWarm(r, refs, c)

	// A result keeps the request's stream index, not the request: the
	// oracle regenerates it, so the run holds no more than the responses.
	type coldResult struct {
		index int64
		outcome
		sweep  []byte // completed sweep result
		writer string // PUT: the writer scenario and its update number
		seq    int
	}
	var (
		mu      sync.Mutex
		results []coldResult
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	r.startRSS()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for w := 0; w < cfg.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes := 0
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				req := coldRequest(c, cfg.seed, i)
				res := coldResult{index: i}
				switch req.Kind {
				case kindSweep:
					res.outcome, res.sweep = env.sweep(req)
				case kindPut:
					res.writer, res.seq = writerName(w), writes
					res.outcome = env.send(withWriter(req, res.writer, res.seq), time.Now())
					if res.err == nil && res.status == http.StatusOK {
						writes++
					}
				default:
					res.outcome = env.send(req, time.Now())
				}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	r.stopRSS()

	var evalLat, sweepLat, writeLat, evals series
	checkAll(r, len(results), cfg.procs, func(i int) error {
		res := results[i]
		req := coldRequest(c, cfg.seed, res.index)
		if res.err != nil {
			return res.err
		}
		if req.Kind == kindPut {
			writeLat.addAt(ms(res.latency), res.done)
			return checkResponse(refs, c, withWriter(req, res.writer, res.seq), res.status, res.body)
		}
		if req.Kind == kindSweep {
			if err := checkSweep(c.docs[req.Target], *req.Sweep, res.sweep); err != nil {
				return err
			}
			sweepLat.addAt(ms(res.latency), res.done)
			evals.addAt(float64(req.Sweep.Points), res.done)
			return nil
		}
		if err := checkResponse(refs, c, req, res.status, res.body); err != nil {
			return err
		}
		if req.Kind == kindInvalid {
			return nil
		}
		evalLat.addAt(ms(res.latency), res.done)
		evals.addAt(1, res.done)
		return nil
	})
	r.alias("mean_ms", "miss_mean_ms", evalLat.mean(), "ms", evalLat.count())
	r.addLine("miss_p50_ms", evalLat.quantile(0.5), "ms", evalLat.count())
	r.alias("p75_ms", "miss_p75_ms", evalLat.quantile(0.75), "ms", evalLat.count())
	r.addLine("miss_p90_ms", evalLat.quantile(0.9), "ms", evalLat.count())
	r.alias("ops_per_s", "evals_per_s", evals.rate(start, end), "1/s", evals.count())
	r.alias("aux_ms", "sweep_job_p50_ms", sweepLat.quantile(0.5), "ms", sweepLat.count())
	r.addLine("write_p50_ms", writeLat.quantile(0.5), "ms", writeLat.count())
	hits, misses, evicted, _ := env.srv.Evaluator().MemoStats()
	r.addLine("availd memo hit ratio", ratio(hits, misses), "ratio", hits+misses)
	r.addLine("availd memo evicted", float64(evicted), "count", 1)
	r.addLine("availd jobs shed", float64(env.srv.Jobs().Stats().Shed), "count", 1)
	return setup.after(r)
}

// sweepPoll is the client's polling interval for a sweep job.
const sweepPoll = 2 * time.Millisecond

// sweep submits a sweep job and polls it until it finishes; the latency
// runs from submission to the poll that sees it done.
func (e *apiEnv) sweep(req apiRequest) (outcome, []byte) {
	start := time.Now()
	o := e.send(req, start)
	if o.err != nil || o.status != req.Want {
		if o.err == nil {
			o.err = fmt.Errorf("sweep submit: status %d: %.200s", o.status, o.body)
		}
		return o, nil
	}
	var job availd.Job
	if err := json.Unmarshal(o.body, &job); err != nil {
		o.err = fmt.Errorf("sweep submit: %v", err)
		return o, nil
	}
	for {
		time.Sleep(sweepPoll)
		status, body, err := call(e.client, "GET", e.lb.base+"/api/v1/sweep/"+job.ID, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("sweep poll: status %d: %.200s", status, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &job)
		}
		if err != nil {
			return outcome{status: status, err: err, latency: time.Since(start)}, nil
		}
		switch job.State {
		case availd.JobDone:
			done := time.Now()
			return outcome{status: status, latency: done.Sub(start), done: done}, job.Result
		case availd.JobFailed, availd.JobCancelled:
			return outcome{status: status, err: fmt.Errorf("sweep job %s: %s", job.State, job.Error),
				latency: time.Since(start)}, nil
		}
	}
}
