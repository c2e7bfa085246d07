package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
)

// counters are the cumulative simulated counters a window is measured
// between, summed over every data center of the system.
type counters struct {
	sched     scheduler.Stats
	generated int64
	steps     uint64
	writeErrs int64
	ctl       core.DomainStats
}

func (c *counters) addSched(st scheduler.Stats) {
	c.sched.Submitted += st.Submitted
	c.sched.Placed += st.Placed
	c.sched.Completed += st.Completed
	c.sched.Queued += st.Queued
	c.sched.Overflowed += st.Overflowed
	c.sched.Killed += st.Killed
	c.sched.Rejected += st.Rejected
}

func (c *counters) addDomains(ctl *core.Controller, n int) {
	for i := 0; i < n; i++ {
		d := ctl.Stats(i)
		c.ctl.Ticks += d.Ticks
		c.ctl.ControlledTicks += d.ControlledTicks
		c.ctl.FreezeOps += d.FreezeOps
		c.ctl.UnfreezeOps += d.UnfreezeOps
		c.ctl.APIErrors += d.APIErrors
	}
}

// window is one measured span.
type window struct {
	minutes int
	wall    time.Duration
	// minuteWall and minuteAllocs hold each simulated minute's wall time
	// and heap allocations.
	minuteWall   []time.Duration
	minuteAllocs []uint64
	ticks        []time.Duration
	mallocs      uint64
	gcCycles     uint32
	gcPause      time.Duration
	heapPeak     uint64
	pendingPeak  int
	queuePeak    int
	stealFrac    float64 // host CPU steal during the window
	before       counters
	after        counters
}

// account adds the window's operations to the run's attempted/failed
// totals: jobs submitted and freeze/unfreeze calls are attempted; jobs
// rejected or killed and freeze-API errors failed.
func (w *window) account(rep *report) {
	b, a := w.before, w.after
	rep.attempted += (a.sched.Submitted - b.sched.Submitted) +
		(a.ctl.FreezeOps + a.ctl.UnfreezeOps + a.ctl.APIErrors) -
		(b.ctl.FreezeOps + b.ctl.UnfreezeOps + b.ctl.APIErrors)
	rep.failed += (a.sched.Rejected - b.sched.Rejected) + (a.sched.Killed - b.sched.Killed) +
		(a.ctl.APIErrors - b.ctl.APIErrors)
	if rep.attempted == 0 {
		// An idle window measured nothing; the failed check is the attempt.
		rep.attempted = 1
		rep.fail("the window submitted no job and made no freeze call")
	}
}

// meter samples the window after every simulated minute: that minute's
// wall time and heap allocations, and the live-heap high-water mark. It
// reads runtime/metrics, which does not stop the world, and restarts the
// minute's clock after reading so its own cost stays out of the samples.
type meter struct {
	w      *window
	s      []metrics.Sample
	start  time.Time
	last   time.Time
	allocs uint64
	ms     runtime.MemStats
	cpu0   hostCPU
}

func startMeter(w *window) *meter {
	m := &meter{w: w, s: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}}
	runtime.ReadMemStats(&m.ms)
	m.cpu0 = readHostCPU()
	m.allocs = m.read()
	m.start = time.Now()
	m.last = m.start
	return m
}

// read returns the heap objects allocated so far and updates the heap peak.
func (m *meter) read() uint64 {
	metrics.Read(m.s)
	if m.s[0].Value.Kind() == metrics.KindUint64 {
		m.w.heapPeak = max(m.w.heapPeak, m.s[0].Value.Uint64())
	}
	return m.s[1].Value.Uint64() + m.s[2].Value.Uint64()
}

func (m *meter) minute() {
	now := time.Now()
	m.w.minuteWall = append(m.w.minuteWall, now.Sub(m.last))
	a := m.read()
	m.w.minuteAllocs = append(m.w.minuteAllocs, a-m.allocs)
	m.allocs = a
	m.last = time.Now()
}

// stop closes the window: its total wall time and the collector's work.
func (m *meter) stop() {
	m.w.wall = time.Since(m.start)
	ms0 := m.ms
	runtime.ReadMemStats(&m.ms)
	m.w.mallocs = m.ms.Mallocs - ms0.Mallocs
	m.w.gcCycles = m.ms.NumGC - ms0.NumGC
	m.w.gcPause = time.Duration(m.ms.PauseTotalNs - ms0.PauseTotalNs)
	if c := readHostCPU(); c.total > m.cpu0.total {
		m.w.stealFrac = float64(c.steal-m.cpu0.steal) / float64(c.total-m.cpu0.total)
	}
}

// hostCPU is the machine-wide CPU time split from /proc/stat, in ticks.
type hostCPU struct{ total, steal uint64 }

// readHostCPU reads it; steal is time the hypervisor ran something else
// while a virtual CPU wanted to run, which stretches wall-clock windows.
func readHostCPU() hostCPU {
	var c hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			break
		}
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			c.total += v
		}
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// setTiming sets the end-to-end metrics from the run's samples: medians
// over the processes, and tick percentiles over every process's ticks.
func setTiming(rep *report, all []sample) {
	pick := func(f func(sample) float64) []float64 {
		v := make([]float64, len(all))
		for i, s := range all {
			v[i] = f(s)
		}
		return v
	}
	var ticks []float64
	for _, s := range all {
		ticks = append(ticks, s.TicksMS...)
	}
	p50, tail, pct := tickPercentiles(ticks)
	setups := pick(func(s sample) float64 { return s.SetupS })
	ns := pick(func(s sample) float64 { return s.NsPerServerMin })
	allocs := pick(func(s sample) float64 { return s.AllocsPerServerMin })
	rss := pick(func(s sample) float64 { return s.PeakRSSMB })
	rep.set("setup_s", median(setups))
	rep.set("ns_per_server_simmin", median(ns))
	rep.set("allocs_per_server_simmin", median(allocs))
	rep.set("peak_rss_mb", median(rss))
	rep.note("medians over %d processes; per process: setup_s %s; ns_per_server_simmin %s; allocs_per_server_simmin %s; peak_rss_mb %s",
		len(all), formatFloats(setups), formatFloats(ns), formatFloats(allocs), formatFloats(rss))
	rep.note("per process, window wall s %s, window-mean ns %s, window-mean allocs %s, host CPU steal %s",
		formatFloats(pick(func(s sample) float64 { return s.WindowS })),
		formatFloats(pick(func(s sample) float64 { return s.MeanNs })),
		formatFloats(pick(func(s sample) float64 { return s.MeanAllocs })),
		formatFloats(pick(func(s sample) float64 { return s.StealFrac })))
	rep.note("ticks: p50 %.4g ms and p%d %.4g ms over %d ticks (the traced run reports them as tick_p50_ms and tick_p95_ms)",
		p50, pct, tail, len(ticks))
}

// setTicks sets tick_p50_ms and tick_p95_ms from an untraced window's ticks.
func setTicks(rep *report, ticks []float64) {
	p50, tail, pct := tickPercentiles(ticks)
	rep.set("tick_p50_ms", p50)
	rep.set("tick_p95_ms", tail)
	if pct < 95 {
		rep.note("tick_p95_ms reports p%d: %d ticks leave ten samples beyond no higher percentile", pct, len(ticks))
	} else {
		rep.note("tick_p95_ms is p95 of %d ticks", len(ticks))
	}
}

// tickPercentiles returns the median tick and the highest percentile, at
// most p95, that leaves at least ten samples above it.
func tickPercentiles(ticks []float64) (p50, tail float64, pct int) {
	if len(ticks) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), ticks...)
	sort.Float64s(s)
	n := len(s)
	pct = 95
	for pct > 50 && n-rank(n, pct) < 10 {
		pct--
	}
	return s[rank(n, 50)-1], s[rank(n, pct)-1], pct
}

// rank is the nearest-rank position (1-based) of percentile p among n.
func rank(n, p int) int {
	return max(1, (p*n+99)/100)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func formatFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

// setCounts sets the per-layer metrics read from simulated counters.
func setCounts(rep *report, win *window) {
	b, a := win.before, win.after
	rep.set("sim.events", float64(a.steps-b.steps))
	rep.set("sim.pending_peak", float64(win.pendingPeak))
	rep.set("workload.jobs_generated", float64(a.generated-b.generated))
	submitted := float64(a.sched.Submitted - b.sched.Submitted)
	rep.set("scheduler.first_try_ratio", (submitted-float64(a.sched.Queued-b.sched.Queued))/submitted)
	rep.set("scheduler.queue_len_peak", float64(win.queuePeak))
	rep.set("scheduler.overflowed", float64(a.sched.Overflowed-b.sched.Overflowed))
	rep.set("tsdb.append_errors", float64(a.writeErrs-b.writeErrs))
	ticks := float64(a.ctl.Ticks - b.ctl.Ticks)
	rep.set("core.controlled_frac", float64(a.ctl.ControlledTicks-b.ctl.ControlledTicks)/max(1, ticks))
	rep.set("core.freeze_ops", float64(a.ctl.FreezeOps-b.ctl.FreezeOps))
	rep.set("core.unfreeze_ops", float64(a.ctl.UnfreezeOps-b.ctl.UnfreezeOps))
	rep.set("core.api_errors", float64(a.ctl.APIErrors-b.ctl.APIErrors))
	rep.set("runtime.gc_cycles", float64(win.gcCycles))
	rep.set("runtime.gc_pause_s", win.gcPause.Seconds())
	rep.set("runtime.heap_peak_mb", float64(win.heapPeak)/(1<<20))
}

// setCPU sets cpu.<module>_frac from the traced window's CPU profile and
// keeps the profile for go tool pprof.
func setCPU(rep *report, prof []byte, o options, name string) error {
	shares, samples, err := cpuShares(prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, m := range cpuModules {
		rep.set("cpu."+m+"_frac", shares[m])
	}
	rep.note("cpu.* from %d profile samples", samples)
	path := filepath.Join(o.outDir, "trace", name+".cpu.pprof")
	err = os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = os.WriteFile(path, prof, 0o644)
	}
	if err != nil {
		rep.note("cpu profile not kept: %v", err)
	}
	return nil
}
