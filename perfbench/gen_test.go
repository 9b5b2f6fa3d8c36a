package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/modelspec"
)

// streamBytes concatenates everything a stream sends.
func streamBytes(reqs []apiRequest) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.WriteString(r.Method + " " + r.Path + "\n")
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func coldStream(t *testing.T, seed int64, n int) []apiRequest {
	t.Helper()
	c, err := newCorpus()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]apiRequest, n)
	for i := range out {
		out[i] = coldRequest(c, seed, int64(i))
	}
	return out
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	if !bytes.Equal(streamBytes(coldStream(t, 7, 300)), streamBytes(coldStream(t, 7, 300))) {
		t.Error("api-cold stream differs between two generations at one seed")
	}
	if !reflect.DeepEqual(genSignals(7), genSignals(7)) {
		t.Error("signal trace differs between two generations at one seed")
	}
}

func TestDifferentSeedGivesDifferentInputs(t *testing.T) {
	if bytes.Equal(streamBytes(coldStream(t, 7, 300)), streamBytes(coldStream(t, 8, 300))) {
		t.Error("api-cold stream does not depend on the seed")
	}
	if reflect.DeepEqual(genSignals(7), genSignals(8)) {
		t.Error("signal trace does not depend on the seed")
	}
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s share %.4f, want %.4f ± %.4f", what, got, want, tol)
	}
}

func TestColdMixShares(t *testing.T) {
	reqs := coldStream(t, 3, 6000)
	var sweeps, puts, invalid, stored, synthetic float64
	for _, r := range reqs {
		switch {
		case r.Kind == kindInvalid:
			invalid++
			if r.Want < 400 || r.Want > 499 {
				t.Errorf("invalid %s %s expects status %d", r.Method, r.Path, r.Want)
			}
		case r.Kind == kindPut:
			puts++
			var body scenarioBody
			if err := json.Unmarshal(withWriter(r, writerName(1), 3).Body, &body); err != nil || body.Version != 4 {
				t.Errorf("PUT body version %d (%v), want 4", body.Version, err)
			} else if _, err := modelspec.Parse(body.Spec); err != nil {
				t.Errorf("PUT spec: %v", err)
			}
		case r.Kind == kindSweep:
			sweeps++
			if r.Sweep.Points < coldMinPoints || r.Sweep.Points > coldMaxPoints {
				t.Errorf("sweep with %d points", r.Sweep.Points)
			}
		case r.Target != "":
			stored++
			if len(r.Overrides) < 1 || len(r.Overrides) > 3 {
				t.Errorf("stored evaluate with %d overrides", len(r.Overrides))
			}
		default:
			synthetic++
		}
	}
	n := float64(len(reqs))
	within(t, "sweep", sweeps/n, coldSweepShare, 0.005)
	within(t, "put", puts/n, coldPutShare, 0.004)
	within(t, "invalid", invalid/n, coldInvalidShare, 0.004)
	evaluates := n - sweeps - puts - invalid
	within(t, "stored evaluate", stored/evaluates, coldStoredShare, 0.03)
	within(t, "synthetic evaluate", synthetic/evaluates, 1-coldStoredShare, 0.03)
}

func TestSynthSpecShape(t *testing.T) {
	groups := 0
	for _, r := range coldStream(t, 5, 400) {
		if r.Kind != kindEvaluate || r.Target != "" {
			continue
		}
		spec, err := modelspec.Parse(r.Doc)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(spec.Services); n < coldMinServices || n > coldMaxServices {
			t.Errorf("%s has %d services", spec.Name, n)
		}
		users := make(map[string]int)
		for _, fn := range spec.Functions {
			seen := make(map[string]bool)
			for _, st := range fn.Steps {
				for _, s := range st.Services {
					if !seen[s] {
						seen[s] = true
						users[s]++
					}
				}
			}
		}
		shared, private := 0, 0
		for _, svc := range spec.Services {
			switch users[svc.Name] {
			case 0:
				t.Errorf("%s: service %s unused", spec.Name, svc.Name)
			case 1:
				private++
			default:
				shared++
			}
			if svc.Group != nil {
				groups++
			}
		}
		if shared == 0 || private == 0 {
			t.Errorf("%s: %d shared and %d private services", spec.Name, shared, private)
		}
		// The first scenario invokes every function: its evaluation
		// enumerates every service.
		if got, want := assignments(spec), int64(1)<<len(spec.Services); got < want {
			t.Errorf("%s: %d assignments, want at least %d", spec.Name, got, want)
		}
		if _, _, err := evaluateDoc(r.Doc, nil); err != nil {
			t.Errorf("%s does not evaluate: %v", spec.Name, err)
		}
	}
	if groups == 0 {
		t.Error("no synthetic spec has a replica group")
	}
}

func TestSignalTracePhases(t *testing.T) {
	plan := genSignals(11)
	if len(plan) != 4*ticksPerPhase {
		t.Fatalf("%d ticks", len(plan))
	}
	for i, want := range []string{"nominal", "ramp", "outage", "recovery"} {
		for _, tp := range plan[i*ticksPerPhase : (i+1)*ticksPerPhase] {
			if tp.phase != want || tp.failures < 0 || tp.failures > tp.visits || tp.upFrac <= 0 || tp.upFrac > 1 {
				t.Errorf("tick %+v in phase %s", tp, want)
			}
		}
	}
}

func TestVisitBatchesAreContiguousPerClass(t *testing.T) {
	next := make(map[int64]int64)
	for k, b := range visitBatches(10, 500) {
		base := int64(0)
		if k%2 == 1 {
			base = classBOffset
		}
		if b.offset != base+next[base] {
			t.Errorf("batch %d at offset %d, want %d", k, b.offset, base+next[base])
		}
		next[base] += b.visits
	}
}
