// Command perfbench is the repository's end-to-end benchmark: it builds a
// whole simulated stack (engine, workload, scheduler, monitor/TSDB,
// controller and, where present, the federation) from the public
// constructors, warms it up, measures a window of simulated time in host
// time, checks the simulated outputs, and prints one JSON result line.
//
//	perfbench --workload batch-100k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, measured against an untraced
// run of the same window. See README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from process
// start.
var processStart = time.Now()

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string // build and trace output, inside the checkout
	// child makes this process one untraced sample for a parent run.
	child bool
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// window is one process's measured span in simulated minutes, fixed so a
	// seed always simulates the same span and its digest repeats exactly.
	window int
	// windowSeconds is the window's wall time on a 2-CPU x86-64 host; a run
	// measures round(--seconds / windowSeconds) processes, from 3 to 9.
	windowSeconds float64
	// setup builds the stack from the seed and warms it up; traced stacks
	// carry a tracer.
	setup func(seed uint64, traced bool, rep *report) (system, error)
}

// The controllers' default Et estimator trains one hour-of-day bin at a
// time, so on the first simulated day every hour starts with a half-hour on
// the default Et, in which every DC plans on every epoch and a federated
// tick costs about ten times what it costs in the trained half.
// fed-4x10k, whose controllers federate builds with that estimator, starts
// its window on the hour and measures 90 epochs, two thirds of them in
// default-Et halves, so the median tick always falls in the planning mode
// instead of jumping between the two from seed to seed.
var workloads = []workloadDef{
	{name: "batch-100k", window: 20, windowSeconds: 7.5, setup: setupBatch},
	{name: "service-100k", window: 240, windowSeconds: 4.8, setup: setupService},
	{name: "fed-4x10k", window: 90, windowSeconds: 8, setup: setupFed},
}

// processes is how many processes an untraced run measures.
func (w workloadDef) processes(seconds int) int {
	return min(9, max(3, int(math.Round(float64(seconds)/w.windowSeconds))))
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: batch-100k, service-100k or fed-4x10k")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run; sets how many processes measure the window")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		outDir  = flag.String("out", ".bench_build", "directory for traces, profiles and digests")
		child   = flag.Bool("child", false, "internal: measure one sample for a parent run")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, child: *child}
	rep, err := runWorkload(*w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if rep == nil {
		return 0 // a child has printed its result
	}
	want := endToEndMetrics
	if o.trace {
		want = perLayerMetrics
	}
	if err := rep.complete(want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("workload %s seed %d window %d sim-min trace %v\n", w.name, o.seed, w.window, o.trace)
	for _, s := range stamp() {
		fmt.Println(s)
	}
	line, err := rep.print(os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by untraced runs, perLayerMetrics by traced
// runs; BENCHMARK.json lists the same names.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ns_per_server_simmin", "ns"},
	{"allocs_per_server_simmin", "count"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"tick_p50_ms", "ms"},
	{"tick_p95_ms", "ms"},
	{"sim.events", "count"},
	{"sim.pending_peak", "count"},
	{"sim.self_ns_per_event", "ns"},
	{"sim.self_s", "s"},
	{"workload.jobs_generated", "count"},
	{"scheduler.submit_calls", "count"},
	{"scheduler.submit_ns", "ns"},
	{"scheduler.submit_s", "s"},
	{"scheduler.first_try_ratio", "ratio"},
	{"scheduler.queue_len_peak", "count"},
	{"scheduler.overflowed", "count"},
	{"scheduler.freeze_calls", "count"},
	{"scheduler.unfreeze_calls", "count"},
	{"scheduler.freeze_api_ns", "ns"},
	{"scheduler.freeze_api_s", "s"},
	{"monitor.sweeps", "count"},
	{"monitor.sweep_ns_per_server", "ns"},
	{"monitor.sweep_self_s", "s"},
	{"tsdb.appends", "count"},
	{"tsdb.append_ns", "ns"},
	{"tsdb.append_errors", "count"},
	{"tsdb.append_s", "s"},
	{"core.ticks", "count"},
	{"core.tick_ns_per_server", "ns"},
	{"core.tick_self_s", "s"},
	{"core.controlled_frac", "ratio"},
	{"core.freeze_ops", "count"},
	{"core.unfreeze_ops", "count"},
	{"core.api_errors", "count"},
	{"federate.epochs", "count"},
	{"federate.advance_s", "s"},
	{"federate.tick_s", "s"},
	{"federate.shard_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"cpu.sim_frac", "ratio"},
	{"cpu.workload_frac", "ratio"},
	{"cpu.scheduler_frac", "ratio"},
	{"cpu.cluster_frac", "ratio"},
	{"cpu.monitor_frac", "ratio"},
	{"cpu.tsdb_frac", "ratio"},
	{"cpu.core_frac", "ratio"},
	{"cpu.federate_frac", "ratio"},
	{"cpu.runner_frac", "ratio"},
	{"cpu.stats_frac", "ratio"},
	{"cpu.gc_frac", "ratio"},
	{"cpu.other_frac", "ratio"},
	{"trace.window_s", "s"},
	{"trace.accounted_frac", "ratio"},
	{"trace.residual_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// report collects one run's metrics, notes and correctness outcome.
type report struct {
	values   map[string]float64
	notes    []string
	problems []string
	// attempted counts jobs submitted plus freeze/unfreeze calls in the
	// window; failed counts rejected and killed jobs, freeze-API errors,
	// shard batch errors and failed checks.
	attempted, failed int64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check; the run reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

// complete keeps exactly the wanted metrics and checks each is present and
// finite.
func (r *report) complete(want []metricDef) error {
	kept := make(map[string]float64, len(want))
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		kept[m.name] = v
	}
	r.values = kept
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and returns the JSON result line.
func (r *report) print(f *os.File) (string, error) {
	defs := endToEndMetrics
	if _, ok := r.values[perLayerMetrics[0].name]; ok {
		defs = perLayerMetrics
	}
	res := jsonResult{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, m := range defs {
		v := r.values[m.name]
		fmt.Fprintf(f, "  %-28s %16.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(f, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(f, "attempted %d failed %d failed_frac %.6g\n", r.attempted, r.failed,
		float64(r.failed)/math.Max(1, float64(r.attempted)))
	b, err := json.Marshal(res)
	return string(b), err
}
