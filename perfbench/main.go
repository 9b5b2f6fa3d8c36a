// Command perfbench measures what callers of this repository's surfaces wait
// for, under three seeded workloads:
//
//	api-cold       closed-loop clients over an in-process availd, every evaluate new
//	testbed-mine   testbed visits feeding obs spans, live /modeldrift, offline tracemine
//	capacity-plan  cold Figure 11/12 + Table 8 grids and an autoscale controller trace
//
// Usage:
//
//	perfbench -workload api-cold -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it measures the end-to-end metrics with tracing off; with
// -trace 1 it replays a fixed prefix of the same seeded inputs, calling each
// layer's public functions itself with a span around every call, and prints
// per-layer self times and counts. Every output is checked by an oracle; a
// failed check counts in "failed" and makes the command exit 1. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Human-readable lines before it name every metric with its unit and sample
// count. README.md maps each metric to the workload and layer it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	// procs bounds every client, connection and worker pool (nproc).
	procs int
	// spansDir receives the traced run's spans as JSON lines.
	spansDir string
}

// workloads maps each workload name to its untraced and traced runners.
var workloads = map[string]struct {
	measure func(cfg config, r *run) error
	trace   func(cfg config, r *run) error
}{
	"api-cold":      {measureAPICold, traceAPICold},
	"testbed-mine":  {measureTestbedMine, traceTestbedMine},
	"capacity-plan": {measureCapacityPlan, traceCapacityPlan},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives byte-identical inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement length in seconds")
	fs.IntVar(&trace, "trace", 0, "0 measures end-to-end metrics, 1 runs the traced per-layer replay")
	fs.StringVar(&cfg.spansDir, "spans-dir", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintf(stderr, "perfbench: need -seconds > 0 and -trace 0|1\n")
		return 2
	}
	cfg.procs = runtime.NumCPU()

	r := newRun()
	runner := w.measure
	if trace == 1 {
		runner = w.trace
	}
	if err := runner(cfg, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	r.addLine("fail_share", r.failShare(), "ratio", r.attempted.Load())
	r.addLine("peak_rss_mb (whole run)", statusMB("VmHWM"), "MB", 1)
	declared, zeroFill := endToEnd, false
	if trace == 1 {
		declared, zeroFill = perLayer, true
	}
	return r.print(stdout, stderr, declared, zeroFill)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// statusMB reads a kB field of /proc/self/status (VmRSS, VmHWM) in MB.
func statusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, field+":") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, field+":"), "%g", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssEvery is the resident-memory sampling interval.
const rssEvery = 20 * time.Millisecond

// startRSS samples the resident set size every rssEvery until stopRSS,
// which reports the median sample as rss_mb. The median of a measured phase
// is steadier than the peak, which moves with where garbage collections
// happen to fall.
func (r *run) startRSS() {
	r.rssStop, r.rssDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(r.rssDone)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			r.rssSamples = append(r.rssSamples, statusMB("VmRSS"))
			select {
			case <-r.rssStop:
				return
			case <-tick.C:
			}
		}
	}()
}

func (r *run) stopRSS() {
	close(r.rssStop)
	<-r.rssDone
	r.report("rss_mb", median(r.rssSamples), "MB", int64(len(r.rssSamples)))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human report, then the JSON line carrying exactly the
// declared metrics, and returns the exit code: 1 when any oracle failed. A
// declared metric the run did not set is 0 when zeroFill (a layer the
// workload does not call), and a failure otherwise.
func (r *run) print(stdout, stderr io.Writer, declared []metricSpec, zeroFill bool) int {
	out := make(map[string]metric, len(declared))
	for _, m := range declared {
		v, ok := r.metrics[m.name]
		switch {
		case ok && (math.IsNaN(v.Value) || math.IsInf(v.Value, 0)):
			r.fail("metric %s has no value (%v)", m.name, v.Value)
			out[m.name] = metric{Value: 0, Unit: m.unit}
		case ok:
			out[m.name] = metric{Value: v.Value, Unit: m.unit}
		case zeroFill:
			out[m.name] = metric{Value: 0, Unit: m.unit}
		default:
			r.fail("metric %s was not measured", m.name)
		}
	}
	for _, l := range r.lines {
		fmt.Fprintf(stdout, "%-34s %14.6g %-6s n=%d\n", l.name, l.value, l.unit, l.samples)
	}
	for _, msg := range r.failureMessages() {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}
	res := result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   out,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1
	}
	return 0
}
