package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// system is one built and warmed-up stack under test.
type system interface {
	// measure runs the window of the given simulated minutes, recording
	// spans when the system was built with a tracer and tracing is on.
	measure(minutes int, rep *report) (*window, error)
	// digest hashes the deterministic simulated statistics.
	digest() string
	servers() int
	// check runs the workload's correctness checks.
	check(rep *report, seed uint64)
	// tracer is nil on an untraced system.
	tracer() *tracer
	// layers sets the per-layer metrics of a traced window.
	layers(rep *report, win *window)
}

// sample is one process's measurement of the workload, as a child reports
// it to the parent run.
type sample struct {
	SetupS     float64 `json:"setup_s"`
	WarmDigest string  `json:"warm_digest"`
	Digest     string  `json:"digest"`
	WindowS    float64 `json:"window_s"`
	// NsPerServerMin and AllocsPerServerMin are medians over the window's
	// simulated minutes; MeanNs and MeanAllocs are the window means.
	NsPerServerMin     float64   `json:"ns_per_server_simmin"`
	AllocsPerServerMin float64   `json:"allocs_per_server_simmin"`
	MeanNs             float64   `json:"mean_ns"`
	MeanAllocs         float64   `json:"mean_allocs"`
	PeakRSSMB          float64   `json:"peak_rss_mb"`
	StealFrac          float64   `json:"steal_frac"`
	TicksMS            []float64 `json:"ticks_ms"`
}

func runWorkload(w workloadDef, o options) (*report, error) {
	rep := newReport()
	switch {
	case o.child:
		return nil, runAsChild(w, o)
	case o.trace:
		return rep, traced(w, o, rep)
	}
	sys, err := w.setup(o.seed, false, rep)
	if err != nil {
		return nil, err
	}
	setup := time.Since(processStart).Seconds()
	warm := sys.digest()
	win, err := sys.measure(w.window, rep)
	if err != nil {
		return nil, err
	}
	win.account(rep)
	finish(rep, w, o, sys)
	all := []sample{takeSample(sys, win, setup, warm)}
	sys = nil
	debug.FreeOSMemory()
	// The run measures the same window in several processes in turn: itself,
	// then child processes that each build, warm up and measure. The
	// end-to-end metrics are medians over them, which keeps a burst of host
	// contention in one process from moving the result.
	for k := 1; k < w.processes(o.seconds); k++ {
		s, err := runChild(w, o)
		if err != nil {
			return nil, err
		}
		if s.WarmDigest != all[0].WarmDigest || s.Digest != all[0].Digest {
			rep.fail("process %d reached digests %s/%s (warm-up/window), the first process %s/%s",
				k, s.WarmDigest, s.Digest, all[0].WarmDigest, all[0].Digest)
		}
		all = append(all, s)
	}
	setTiming(rep, all)
	return rep, nil
}

// takeSample summarizes one process's set-up and window.
func takeSample(sys system, win *window, setup float64, warm string) sample {
	servers := float64(sys.servers())
	serverMin := servers * float64(win.minutes)
	s := sample{SetupS: setup, WarmDigest: warm, Digest: sys.digest(), WindowS: win.wall.Seconds(),
		MeanNs: float64(win.wall.Nanoseconds()) / serverMin, MeanAllocs: float64(win.mallocs) / serverMin,
		PeakRSSMB: peakRSSMB(), StealFrac: win.stealFrac}
	ns := make([]float64, len(win.minuteWall))
	for i, d := range win.minuteWall {
		ns[i] = float64(d.Nanoseconds()) / servers
	}
	allocs := make([]float64, len(win.minuteAllocs))
	for i, a := range win.minuteAllocs {
		allocs[i] = float64(a) / servers
	}
	s.NsPerServerMin, s.AllocsPerServerMin = median(ns), median(allocs)
	for _, t := range win.ticks {
		s.TicksMS = append(s.TicksMS, float64(t.Nanoseconds())/1e6)
	}
	return s
}

// traced measures the window on a traced stack with a CPU profile, after a
// child process measured the same window untraced: the reference for the
// tracing overhead and the source of the tick percentiles, which tracing
// would stretch.
func traced(w workloadDef, o options, rep *report) error {
	ref, err := runChild(w, o)
	if err != nil {
		return err
	}
	sys, err := w.setup(o.seed, true, rep)
	if err != nil {
		return err
	}
	tr := sys.tracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tr.on = true
	win, err := sys.measure(w.window, rep)
	tr.on = false
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if d := sys.digest(); d != ref.Digest {
		rep.fail("traced window ended with digest %s, untraced with %s", d, ref.Digest)
	}
	win.account(rep)
	sys.layers(rep, win)
	setTicks(rep, ref.TicksMS)
	if err := setCPU(rep, prof.Bytes(), o, w.name); err != nil {
		return err
	}
	setTrace(rep, tr, o, w.name, win.wall, time.Duration(ref.WindowS*1e9))
	finish(rep, w, o, sys)
	return nil
}

// runAsChild is the child-process side of runChild.
func runAsChild(w workloadDef, o options) error {
	rep := newReport()
	sys, err := w.setup(o.seed, false, rep)
	if err != nil {
		return err
	}
	setup := time.Since(processStart).Seconds()
	warm := sys.digest()
	win, err := sys.measure(w.window, rep)
	if err != nil {
		return err
	}
	if len(rep.problems) > 0 {
		return fmt.Errorf("child: %s", strings.Join(rep.problems, "; "))
	}
	b, err := json.Marshal(takeSample(sys, win, setup, warm))
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runChild runs this program again as a child that builds, warms up and
// measures the untraced window in a fresh process, waits for it, and
// returns its sample.
func runChild(w workloadDef, o options) (sample, error) {
	var res sample
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10),
		"--out", o.outDir, "--child")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("child: %w", err)
	}
	return res, nil
}

// finish runs the end-of-run correctness checks shared by both modes.
func finish(rep *report, w workloadDef, o options, sys system) {
	sys.check(rep, o.seed)
	d := sys.digest()
	rep.note("digest %s (simulated statistics at the window's end)", d)
	checkDigestRepeats(rep, o, w.name, w.window, d)
}

// setTrace sets the trace.* metrics and writes the spans out.
func setTrace(rep *report, tr *tracer, o options, name string, traced, untraced time.Duration) {
	_, top, nspans := tr.summary()
	wall := traced.Seconds()
	rep.set("trace.window_s", wall)
	rep.set("trace.accounted_frac", secs(top)/wall)
	rep.set("trace.residual_s", wall-secs(top))
	rep.set("trace.overhead_frac", wall/untraced.Seconds()-1)
	rep.set("trace.spans", float64(nspans))
	rep.note("tracing overhead: traced window %.3f s, untraced %.3f s", wall, untraced.Seconds())
	path := filepath.Join(o.outDir, "trace", name+".spans")
	if err := tr.write(path); err != nil {
		rep.note("spans not written: %v", err)
		return
	}
	rep.note("spans written to %s", path)
}
