package tracemine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// cloneTraces deep-copies traces, attrs maps included.
func cloneTraces(in []obs.Trace) []obs.Trace {
	out := make([]obs.Trace, len(in))
	for i, tr := range in {
		spans := make([]obs.Span, len(tr.Spans))
		for j, sp := range tr.Spans {
			if sp.Attrs != nil {
				attrs := make(map[string]string, len(sp.Attrs))
				for k, v := range sp.Attrs {
					attrs[k] = v
				}
				sp.Attrs = attrs
			}
			spans[j] = sp
		}
		out[i] = obs.Trace{Spans: spans}
	}
	return out
}

// shuffleSpans permutes the spans within every trace.
func shuffleSpans(in []obs.Trace, rng *rand.Rand) []obs.Trace {
	out := cloneTraces(in)
	for _, tr := range out {
		rng.Shuffle(len(tr.Spans), func(i, j int) { tr.Spans[i], tr.Spans[j] = tr.Spans[j], tr.Spans[i] })
	}
	return out
}

// sparseIDs remaps every span ID and non-zero parent link to 7·id+3,
// keeping the tree intact while breaking any assumption that IDs are dense.
func sparseIDs(in []obs.Trace) []obs.Trace {
	out := cloneTraces(in)
	for _, tr := range out {
		for j := range tr.Spans {
			sp := &tr.Spans[j]
			sp.ID = 7*sp.ID + 3
			if sp.Parent != 0 {
				sp.Parent = 7*sp.Parent + 3
			}
		}
	}
	return out
}

// foldCorpus is a seeded testbed run plus traces damaged the ways a lossy
// span export damages them, so orphan and no-root accounting is exercised.
func foldCorpus(t *testing.T) []obs.Trace {
	traces := cloneTraces(runTestbed(t, 300, 3))
	// A trace whose first function span was lost: its steps and resources
	// become orphans.
	lost := cloneTraces(traces[:1])[0]
	for j, sp := range lost.Spans {
		if sp.Level == obs.LevelFunction {
			lost.Spans = append(lost.Spans[:j], lost.Spans[j+1:]...)
			break
		}
	}
	// A trace with a second visit-level root and a resource pointing at a
	// function instead of a step.
	extra := cloneTraces(traces[1:2])[0]
	n := len(extra.Spans)
	extra.Spans = append(extra.Spans,
		obs.Span{Trace: extra.Spans[0].Trace, ID: n + 1, Level: obs.LevelVisit, Name: "again"},
		obs.Span{Trace: extra.Spans[0].Trace, ID: n + 2, Parent: 2, Level: obs.LevelResource, Name: "WS"})
	// A trace with no visit root at all.
	rootless := obs.Trace{Spans: []obs.Span{{Trace: 999999, ID: 1, Level: obs.LevelFunction, Name: "Home"}}}
	return append(traces, lost, extra, rootless)
}

// TestFoldProperty checks that Fold depends only on the span tree, not on
// emission order or ID density: the same traces folded in emission order,
// shuffled, with sparse IDs, and both, give identical visits and stats. Fold
// must also leave its input exactly as it found it.
func TestFoldProperty(t *testing.T) {
	corpus := foldCorpus(t)
	want, wantStats := Fold(cloneTraces(corpus))
	if wantStats.Visits != int64(len(corpus)-1) || wantStats.NoRoot != 1 || wantStats.Orphans == 0 {
		t.Fatalf("corpus stats = %+v: expected every damage class to register", wantStats)
	}
	rng := rand.New(rand.NewSource(11))
	for name, in := range map[string][]obs.Trace{
		"emission":        corpus,
		"shuffled":        shuffleSpans(corpus, rng),
		"sparse":          sparseIDs(corpus),
		"sparse+shuffled": shuffleSpans(sparseIDs(corpus), rng),
	} {
		before := cloneTraces(in)
		got, stats := Fold(in)
		if stats != wantStats {
			t.Errorf("%s: stats %+v, want %+v", name, stats, wantStats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: folded visits differ from emission order", name)
		}
		if !reflect.DeepEqual(in, before) {
			t.Errorf("%s: Fold modified its input", name)
		}
	}
}

// TestFoldConcurrentWithRecord folds live tracer snapshots from several
// goroutines while another keeps recording into the same ring, with traces
// stored out of ID order so Fold has to reorder them. Under -race, any write
// Fold made to the ring's spans would be reported.
func TestFoldConcurrentWithRecord(t *testing.T) {
	corpus := shuffleSpans(foldCorpus(t), rand.New(rand.NewSource(5)))
	tracer := obs.NewTracer(len(corpus) / 2)
	for _, tr := range corpus[:len(corpus)/2] {
		tracer.Record(tr)
	}
	snapshot := tracer.Traces()
	before := cloneTraces(snapshot)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tr := range corpus[len(corpus)/2:] {
			tracer.Record(tr)
		}
	}()
	results := make([][]Visit, 3)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], _ = Fold(snapshot)
			Fold(tracer.Traces())
		}(g)
	}
	wg.Wait()

	if !reflect.DeepEqual(snapshot, before) {
		t.Fatal("Fold modified spans shared with the tracer ring")
	}
	want, _ := Fold(before)
	for g, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("goroutine %d folded a different result", g)
		}
	}
}
