package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/availd"
	"repro/internal/modelspec"
	"repro/internal/travelagency"
)

// This file holds the seeded input generators. Everything the program
// receives is built here from the -seed argument: request bodies, specs,
// sweep grids, visit batches and the controller's signal trace. The same
// seed gives byte-identical inputs.

// mixSeed derives an independent stream seed from a run seed and an index
// (splitmix64), so stream i does not depend on how many draws stream i-1
// made.
func mixSeed(seed int64, i int64) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// reqKind classifies one API request of a stream.
type reqKind int

const (
	kindEvaluate reqKind = iota
	kindPut
	kindInvalid
	kindSweep
)

// apiRequest is one generated API call plus what the oracle needs to judge
// its response.
type apiRequest struct {
	Kind   reqKind
	Method string
	Path   string
	Body   []byte
	// Want is the expected HTTP status.
	Want int

	// Evaluate and sweep: the stored scenario (Target) or inline document
	// (Doc) the body names, and the overrides. A PUT carries its document
	// in Doc.
	Target    string
	Doc       []byte
	Overrides map[string]float64
	// Seq numbers PUTs per target from 0; the PUT presents version Seq+1.
	Seq   int
	Sweep *availd.SweepRequest
}

// corpus holds the fixed documents the API workload starts from: the
// travel-agency class A and B specs at the paper's default parameters,
// stored as scenarios ta-a and ta-b.
type corpus struct {
	names    []string          // stored scenario names
	docs     map[string][]byte // canonical document per stored scenario
	services []string          // service names of the travel-agency specs
	invalid  []apiRequest      // deliberately invalid calls
}

func newCorpus() (*corpus, error) {
	c := &corpus{names: []string{"ta-a", "ta-b"}, docs: make(map[string][]byte)}
	p := travelagency.DefaultParams()
	for i, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		spec, err := travelagency.SpecForClass(p, class)
		if err != nil {
			return nil, err
		}
		doc, err := spec.Canonical()
		if err != nil {
			return nil, err
		}
		c.docs[c.names[i]] = doc
		if i == 0 {
			for _, svc := range spec.Services {
				c.services = append(c.services, svc.Name)
			}
		}
	}
	c.invalid = invalidRequests(c)
	return c, nil
}

// withAvailability returns doc with one service's availability replaced.
func withAvailability(doc []byte, service string, avail float64) ([]byte, error) {
	spec, err := modelspec.Parse(doc)
	if err != nil {
		return nil, err
	}
	for i := range spec.Services {
		if spec.Services[i].Name == service {
			a := avail
			spec.Services[i] = modelspec.ServiceSpec{Name: service, Availability: &a}
			return spec.Canonical()
		}
	}
	return nil, fmt.Errorf("no service %q", service)
}

// overridesKey renders overrides in sorted order, for request keys.
func overridesKey(o map[string]float64) string {
	names := make([]string, 0, len(o))
	for n := range o {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(o[n], 'g', -1, 64))
		b.WriteByte(';')
	}
	return b.String()
}

func evalBody(target string, doc []byte, overrides map[string]float64) []byte {
	req := availd.EvalRequest{Scenario: target, Overrides: overrides}
	if target == "" {
		req.Spec = doc
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // only plain maps and raw JSON: marshalling cannot fail
	}
	return body
}

// withWriter addresses a generated PUT to a writer scenario at the version
// the writer's seq-th update must present.
func withWriter(req apiRequest, writer string, seq int) apiRequest {
	body, err := json.Marshal(map[string]any{"version": seq + 1, "spec": json.RawMessage(req.Doc)})
	if err != nil {
		panic(err) // a plain map with a valid document: marshalling cannot fail
	}
	req.Target, req.Seq = writer, seq
	req.Path = "/api/v1/scenarios/" + writer
	req.Body = body
	return req
}

// invalidRequests are deliberately invalid calls and the status availd must
// answer each with.
func invalidRequests(c *corpus) []apiRequest {
	doc := c.docs[c.names[0]]
	svc := c.services[0]
	mk := func(method, path, body string, want int) apiRequest {
		return apiRequest{Kind: kindInvalid, Method: method, Path: path, Body: []byte(body), Want: want}
	}
	return []apiRequest{
		mk("POST", "/api/v1/evaluate", `{"scenario":`, 400),
		mk("POST", "/api/v1/evaluate", `{"scenario":"ta-a","bogus":1}`, 400),
		mk("POST", "/api/v1/evaluate", `{"scenario":"no-such-scenario"}`, 404),
		mk("POST", "/api/v1/evaluate", `{"scenario":"ta-a","overrides":{"NoSuchService":0.5}}`, 422),
		mk("POST", "/api/v1/evaluate", fmt.Sprintf(`{"scenario":"ta-a","overrides":{%q:1.5}}`, svc), 422),
		mk("POST", "/api/v1/evaluate", fmt.Sprintf(`{"scenario":"ta-a","spec":%s}`, doc), 422),
		mk("POST", "/api/v1/evaluate", `{"spec":{"services":[],"functions":[]}}`, 422),
		mk("GET", "/api/v1/scenarios/no-such-scenario", "", 404),
		mk("PUT", "/api/v1/scenarios/ta-a", `{"version":0,"spec":{"services":[]}}`, 422),
	}
}

// Shares of the api-cold request mix.
const (
	coldSweepShare   = 1.0 / 50
	coldPutShare     = 0.01
	coldInvalidShare = 0.01
	coldStoredShare  = 0.5 // of the evaluates: fresh overrides on ta-a/ta-b
	coldMinServices  = 8
	coldMaxServices  = 14
	coldMinPoints    = 16
	coldMaxPoints    = 32
)

// writerName is the stored scenario client w rewrites with its PUTs; no
// evaluate reads it.
func writerName(w int) string { return fmt.Sprintf("ta-w%d", w) }

// coldRequest generates request i of the api-cold stream. Each index draws
// from its own seeded source, so the stream is the same whichever client
// takes which index. Every evaluate carries values never sent before. An
// invalid call is one of corpus.invalid, with its expected status. A PUT
// carries the document (Doc) with one availability set to a fresh
// value; the client sending it names its own writer scenario and version
// (withWriter).
func coldRequest(c *corpus, seed int64, i int64) apiRequest {
	rng := rand.New(rand.NewSource(mixSeed(seed, i)))
	name := c.names[rng.Intn(len(c.names))]
	switch u := rng.Float64(); {
	case u < coldSweepShare:
		from := 0.85 + 0.1*rng.Float64()
		sw := availd.SweepRequest{
			Scenario: name,
			Service:  c.services[rng.Intn(len(c.services))],
			From:     from,
			To:       from + 0.01 + 0.04*rng.Float64(),
			Points:   coldMinPoints + rng.Intn(coldMaxPoints-coldMinPoints+1),
		}
		body, err := json.Marshal(sw)
		if err != nil {
			panic(err) // plain struct: marshalling cannot fail
		}
		return apiRequest{Kind: kindSweep, Method: "POST", Path: "/api/v1/sweep", Body: body,
			Want: 202, Target: name, Sweep: &sw}
	case u < coldSweepShare+coldPutShare:
		doc, err := withAvailability(c.docs["ta-a"], c.services[rng.Intn(len(c.services))], 0.9+0.0999*rng.Float64())
		if err != nil {
			panic(err) // the corpus document always parses; a failure is a bug here
		}
		return apiRequest{Kind: kindPut, Method: "PUT", Want: 200, Doc: doc}
	case u < coldSweepShare+coldPutShare+coldInvalidShare:
		return c.invalid[rng.Intn(len(c.invalid))]
	case u < coldSweepShare+coldPutShare+coldInvalidShare+(1-coldSweepShare-coldPutShare-coldInvalidShare)*coldStoredShare:
		overrides := make(map[string]float64)
		for n := 1 + rng.Intn(3); len(overrides) < n; {
			overrides[c.services[rng.Intn(len(c.services))]] = 0.9 + 0.0999*rng.Float64()
		}
		return apiRequest{Kind: kindEvaluate, Method: "POST", Path: "/api/v1/evaluate",
			Body: evalBody(name, nil, overrides), Want: 200, Target: name, Overrides: overrides}
	default:
		n := coldMinServices + rng.Intn(coldMaxServices-coldMinServices+1)
		doc := synthSpec(rng, n, i)
		return apiRequest{Kind: kindEvaluate, Method: "POST", Path: "/api/v1/evaluate",
			Body: evalBody("", doc, nil), Want: 200, Doc: doc}
	}
}

// synthSpec generates a modelspec document with n services: a few shared by
// several functions, the rest private to one function, some of them replica
// groups. The first scenario invokes every function, so its evaluation
// enumerates all n services.
func synthSpec(rng *rand.Rand, n int, id int64) []byte {
	spec := modelspec.Spec{Name: fmt.Sprintf("synth-%d", id)}
	shared := 2 + rng.Intn(2)
	for i := 0; i < n; i++ {
		svc := modelspec.ServiceSpec{Name: fmt.Sprintf("s%d", i)}
		if i >= shared && rng.Intn(4) == 0 {
			svc.Group = &modelspec.GroupSpec{Count: 2 + rng.Intn(2), Availability: 0.8 + 0.19*rng.Float64()}
		} else {
			a := 0.95 + 0.0499*rng.Float64()
			svc.Availability = &a
		}
		spec.Services = append(spec.Services, svc)
	}
	nfn := 3 + rng.Intn(3)
	private := make([][]string, nfn)
	for i := shared; i < n; i++ {
		f := (i - shared) % nfn
		private[f] = append(private[f], spec.Services[i].Name)
	}
	var fnNames []string
	for f := 0; f < nfn; f++ {
		fn := modelspec.FunctionSpec{Name: fmt.Sprintf("f%d", f)}
		fnNames = append(fnNames, fn.Name)
		// Function f uses shared service 0 and, for odd f, shared 1; its
		// private services are split over up to three steps.
		uses := []string{spec.Services[0].Name}
		if f%2 == 1 || shared > 2 && f%3 == 2 {
			uses = append(uses, spec.Services[1+f%(shared-1)].Name)
		}
		nsteps := 1 + rng.Intn(3)
		steps := make([][]string, nsteps)
		steps[0] = append(steps[0], uses...)
		for j, svc := range private[f] {
			steps[j%nsteps] = append(steps[j%nsteps], svc)
		}
		prev := "Begin"
		for j, svcs := range steps {
			name := fmt.Sprintf("st%d", j)
			fn.Steps = append(fn.Steps, modelspec.StepSpec{Name: name, Services: svcs})
			if j == 0 {
				fn.Transitions = append(fn.Transitions, modelspec.TransitionSpec{From: prev, To: name, Probability: 1})
			} else {
				q := 0.6 + 0.35*rng.Float64()
				fn.Transitions = append(fn.Transitions,
					modelspec.TransitionSpec{From: prev, To: name, Probability: q},
					modelspec.TransitionSpec{From: prev, To: "End", Probability: 1 - q})
			}
			prev = name
		}
		fn.Transitions = append(fn.Transitions, modelspec.TransitionSpec{From: prev, To: "End", Probability: 1})
		spec.Functions = append(spec.Functions, fn)
	}
	nsc := 2 + rng.Intn(3)
	weights := make([]float64, nsc)
	var total float64
	for i := range weights {
		weights[i] = 0.1 + rng.Float64()
		total += weights[i]
	}
	for i := 0; i < nsc; i++ {
		fns := fnNames
		if i > 0 {
			k := 1 + rng.Intn(len(fnNames)-1)
			fns = append([]string(nil), fnNames[:k]...)
		}
		spec.Scenarios = append(spec.Scenarios, modelspec.ScenarioSpec{
			Name: fmt.Sprintf("sc%d", i), Functions: fns, Probability: weights[i] / total})
	}
	doc, err := spec.Canonical()
	if err != nil {
		panic(err) // the generator only builds valid specs; a failure is a bug here
	}
	return doc
}

// visitBatch is one LoadGen batch of the testbed-mine workload.
type visitBatch struct {
	class  travelagency.UserClass
	offset int64
	visits int64
}

// classBOffset starts class B's visit indices far above class A's, so the
// two classes' trace IDs never collide.
const classBOffset = 1 << 40

// visitBatches returns the first n batches: classes alternate A, B, A, ...
// and each class's offsets advance contiguously, so each class's visits are
// exactly one contiguous LoadGen run of its stream.
func visitBatches(n int, size int64) []visitBatch {
	out := make([]visitBatch, n)
	for k := range out {
		class, base := travelagency.ClassA, int64(0)
		if k%2 == 1 {
			class, base = travelagency.ClassB, classBOffset
		}
		out[k] = visitBatch{class: class, offset: base + int64(k/2)*size, visits: size}
	}
	return out
}

// tickPlan is one controller observation window before it meets the
// controller's current web-farm size.
type tickPlan struct {
	phase    string
	arrival  float64
	upFrac   float64
	visits   int64
	failures int64
	admitted int64
	rejected int64
}

// Controller trace shape: four phases of ticksPerPhase windows.
const (
	ticksPerPhase = 6
	visitsPerTick = 400
)

// genSignals builds the capacity-plan signal trace: nominal load, a load
// ramp, a zone outage that halves the up web servers under the ramp, and
// recovery. Failure and rejection counts are binomial draws around each
// phase's rate.
func genSignals(seed int64) []tickPlan {
	rng := rand.New(rand.NewSource(seed))
	phases := []struct {
		name              string
		arrival, up       float64
		failRate, rejRate float64
	}{
		{"nominal", 100, 1, 0.025, 0.001},
		{"ramp", 450, 1, 0.05, 0.03},
		{"outage", 450, 0.5, 0.12, 0.1},
		{"recovery", 100, 1, 0.025, 0.001},
	}
	binomial := func(n int64, p float64) int64 {
		var k int64
		for i := int64(0); i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	var out []tickPlan
	for _, ph := range phases {
		for t := 0; t < ticksPerPhase; t++ {
			pages := int64(5 * visitsPerTick)
			rejected := binomial(pages, ph.rejRate)
			out = append(out, tickPlan{
				phase:    ph.name,
				arrival:  ph.arrival,
				upFrac:   ph.up * (0.97 + 0.03*rng.Float64()),
				visits:   visitsPerTick,
				failures: binomial(visitsPerTick, ph.failRate),
				admitted: pages - rejected,
				rejected: rejected,
			})
		}
	}
	return out
}
