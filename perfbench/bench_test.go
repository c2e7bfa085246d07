package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// The harness-driven sweep and tick must simulate exactly what
// Monitor.Start and Controller.Start do.
func TestHarnessDriveMatchesStart(t *testing.T) {
	for name, sh := range map[string]dcShape{"batch": batchShape, "service": serviceShape} {
		rep := newReport()
		checkDrive(rep, sh, 7)
		if len(rep.problems) > 0 {
			t.Errorf("%s: %v", name, rep.problems)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, reported []metricDef) {
		units := map[string]string{}
		for _, m := range reported {
			units[m.name] = m.unit
		}
		if len(listed) != len(reported) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(reported))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] listed, program reports unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

func TestTickPercentilesKeepTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, pct int }{{20, 50}, {25, 60}, {120, 91}, {200, 95}, {600, 95}} {
		ticks := make([]float64, c.n)
		for i := range ticks {
			ticks[i] = float64(c.n - i)
		}
		p50, tail, pct := tickPercentiles(ticks)
		if pct != c.pct {
			t.Errorf("n=%d: percentile %d, want %d", c.n, pct, c.pct)
		}
		if beyond := c.n - int(tail); beyond < 10 {
			t.Errorf("n=%d: p%d=%v leaves %d samples beyond", c.n, pct, tail, beyond)
		}
		if want := float64(rank(c.n, 50)); p50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, p50, want)
		}
	}
}

// Self time subtracts same-lane children only; top sums parentless lane-0
// spans.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(2)
	tr.lanes[0].spans = []span{
		{start: 0, end: 100, parent: -1, kind: kindRunUntil},
		{start: 10, end: 40, parent: 0, kind: kindSweep},
		{start: 20, end: 30, parent: 1, kind: kindAppend},
		{start: 50, end: 60, parent: 0, kind: kindSubmit},
		{start: 100, end: 150, parent: -1, kind: kindRunUntil},
	}
	tr.lanes[1].spans = []span{{start: 15, end: 35, parent: 0, kind: kindAppend}}
	stats, top, n := tr.summary()
	if top != 150 || n != 6 {
		t.Fatalf("top %d spans %d, want 150 and 6", top, n)
	}
	if got := stats[kindRunUntil].self; got != 100-30-10+50 {
		t.Errorf("RunUntil self %d", got)
	}
	if got := stats[kindSweep].self; got != 20 {
		t.Errorf("Sweep self %d", got)
	}
	if got := stats[kindAppend]; got.count != 2 || got.total != 30 {
		t.Errorf("Append %+v", got)
	}
}

var sink float64

func TestCPUSharesReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	end := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no profile samples")
	}
	sum := 0.0
	for _, m := range cpuModules {
		sum += shares[m]
	}
	if math.Abs(sum-1) > 1e-9 || shares["other"] < 0.5 {
		t.Errorf("shares %v sum to %v; the harness loop should be other", shares, sum)
	}
}
