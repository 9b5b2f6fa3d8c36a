package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/travelagency"
)

var updateGolden = flag.Bool("update", false, "rewrite the exposition golden file")

// TestBridgeExpositionGolden feeds one fixed-seed KeepSteps testbed batch per
// user class through a Bridge and compares the registry's /metrics rendering
// byte for byte against a committed golden, so a change to how the bridge
// resolves or caches its series cannot add, drop, rename or reorder one.
func TestBridgeExpositionGolden(t *testing.T) {
	cluster, err := testbed.New(travelagency.DefaultParams(), testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	reg := obs.NewRegistry()
	bridge := obs.NewBridge(reg, obs.NewTracer(16), nil)
	for i, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		col := telemetry.NewCollector(400)
		g := testbed.LoadGen{
			Cluster: cluster, Class: class,
			Visits: 400, Workers: 1, Seed: int64(i + 1), KeepSteps: true,
		}
		if err := g.Run(col); err != nil {
			t.Fatal(err)
		}
		// Feed in ID order: histogram sums are order-sensitive floats.
		visits := col.Traces()
		sort.Slice(visits, func(a, b int) bool { return visits[a].ID < visits[b].ID })
		for _, v := range visits {
			bridge.OnVisit(v)
		}
	}
	var got bytes.Buffer
	if err := reg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ta_visit_failures_total{", "ta_visit_resource_down_total{", "ta_function_failures_total{"} {
		if !bytes.Contains(got.Bytes(), []byte(want)) {
			t.Fatalf("batch exercised no %s series; the golden would not cover failure registration", want)
		}
	}
	path := filepath.Join("testdata", "bridge_exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from %s (rerun with -update only if the change is intended):\n%s", path, got.String())
	}
}
