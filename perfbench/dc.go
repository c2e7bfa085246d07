package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// batchShape is batch-100k: 250 × 400-server rows under one default product
// at 0.70 of rated power, row budgets at rated/1.25, serial controller plan.
// The product keeps its diurnal variation and AR(1) wobble but not its
// surges: a surge starts with probability 0.004 per simulated minute, so one
// landed in the 50 simulated minutes of about one seed in five, and the jobs
// it added raised that seed's peak resident set by 15-30%, which spread
// peak_rss_mb over ten seeds past its bound.
var batchShape = dcShape{
	rows:       250,
	batchFrac:  0.70,
	budgetFrac: 0.8,
	noSurges:   true,
}

// serviceShape is service-100k: the same fleet with 8 of 16 containers per
// server pinned as service load, a light batch stream, row budgets at each
// row's expected draw, a ramped 20% demand-response dip on every fourth row
// from the window on, and a parallel controller plan. Its controller uses
// the EWMA Et estimator: the default hourly one spends the first half of
// every hour of the first simulated day on its default Et, pinned at the
// freeze cap with no swaps, so the tick's cost would alternate every
// half-hour; under EWMA the controller swaps steadily on every tick after
// warm-up.
var serviceShape = dcShape{
	rows:              250,
	batchPerServerMin: 0.02,
	pinContainers:     8,
	pinCPU:            9.5,
	pinSpread:         0.25,
	dipEvery:          4,
	dipFrac:           0.20,
	dipRamp:           0.02,
	parallel:          -1,
	etMode:            core.EtEWMA,
}

func setupBatch(seed uint64, traced bool, _ *report) (system, error) {
	return setupDC(batchShape, seed, traced)
}

func setupService(seed uint64, traced bool, _ *report) (system, error) {
	return setupDC(serviceShape, seed, traced)
}

// setupDC builds a stack and runs it to the end of warm-up.
func setupDC(sh dcShape, seed uint64, traced bool) (*dcStack, error) {
	var tr *tracer
	if traced {
		tr = newTracer(1)
	}
	s, err := buildDC(sh, seed, tr, driveHarness)
	if err != nil {
		return nil, err
	}
	if err := s.eng.RunUntil(sim.Time(dcWarmup)); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *dcStack) servers() int    { return len(s.c.Servers) }
func (s *dcStack) tracer() *tracer { return s.tr }

func (s *dcStack) counters() counters {
	c := counters{generated: s.gen.Generated(), steps: s.eng.Steps(), writeErrs: s.mon.WriteErrors()}
	c.addSched(s.sched.Stats())
	c.addDomains(s.ctl, s.domains)
	return c
}

// measure runs the window one simulated minute per RunUntil call.
func (s *dcStack) measure(minutes int, _ *report) (*window, error) {
	w := &window{minutes: minutes, before: s.counters()}
	s.ticks = s.ticks[:0]
	s.recordTicks = true
	t0 := s.eng.Now()
	mt := startMeter(w)
	for m := 1; m <= minutes; m++ {
		if err := s.runUntil(t0.Add(sim.Duration(m) * sim.Minute)); err != nil {
			return nil, err
		}
		w.pendingPeak = max(w.pendingPeak, s.eng.Pending())
		w.queuePeak = max(w.queuePeak, s.sched.QueueLen())
		mt.minute()
	}
	mt.stop()
	s.recordTicks = false
	w.ticks = append([]time.Duration(nil), s.ticks...)
	w.after = s.counters()
	if s.tr != nil {
		w.queuePeak = max(w.queuePeak, s.tr.queuePeak)
	}
	return w, nil
}

func (s *dcStack) check(rep *report, seed uint64) {
	checkConservation(rep, "dc", s.c, s.sched, s.ctl, s.gen.Generated())
	checkDrive(rep, s.shape, seed)
}

// checkDrive checks that the harness-driven sweep and tick simulate exactly
// what Monitor.Start and Controller.Start do, on a two-row copy of the
// workload run through its warm-up and 30 minutes beyond it.
func checkDrive(rep *report, sh dcShape, seed uint64) {
	small := sh
	small.rows = 2
	end := sim.Time(dcWarmup + 30*sim.Minute)
	var digests [2]string
	for i, dr := range []drive{driveStart, driveHarness} {
		s, err := buildDC(small, seed, nil, dr)
		if err == nil {
			err = s.eng.RunUntil(end)
		}
		if err != nil {
			rep.fail("drive check: %v", err)
			return
		}
		digests[i] = s.digest()
	}
	if digests[0] != digests[1] {
		rep.fail("drive check: Start-driven digest %s, harness-driven %s", digests[0], digests[1])
	}
}

// layers sets the per-layer metrics of a traced single-DC window. Every
// layer boundary is timed, so the self times plus the residual add up to
// the window.
func (s *dcStack) layers(rep *report, win *window) {
	setCounts(rep, win)
	stats, top, _ := s.tr.summary()
	servers := float64(s.servers())
	b, a := win.before, win.after
	run, sub, sw, ap, tk := stats[kindRunUntil], stats[kindSubmit], stats[kindSweep], stats[kindAppend], stats[kindStep]
	fz, ufz := stats[kindFreeze], stats[kindUnfreeze]
	rep.set("sim.self_s", secs(run.self))
	rep.set("sim.self_ns_per_event", float64(run.self)/float64(a.steps-b.steps))
	rep.set("scheduler.submit_calls", float64(sub.count))
	rep.set("scheduler.submit_ns", perCall(sub.total, sub.count))
	rep.set("scheduler.submit_s", secs(sub.total))
	rep.set("scheduler.freeze_calls", float64(fz.count))
	rep.set("scheduler.unfreeze_calls", float64(ufz.count))
	rep.set("scheduler.freeze_api_ns", perCall(fz.total+ufz.total, fz.count+ufz.count))
	rep.set("scheduler.freeze_api_s", secs(fz.total+ufz.total))
	rep.set("monitor.sweeps", float64(sw.count))
	rep.set("monitor.sweep_ns_per_server", float64(sw.self)/(float64(sw.count)*servers))
	rep.set("monitor.sweep_self_s", secs(sw.self))
	rep.set("tsdb.appends", float64(ap.count))
	rep.set("tsdb.append_ns", perCall(ap.total, ap.count))
	rep.set("tsdb.append_s", secs(ap.total))
	rep.set("core.ticks", float64(tk.count))
	rep.set("core.tick_ns_per_server", float64(tk.total)/(float64(tk.count)*servers))
	rep.set("core.tick_self_s", secs(tk.self))
	for _, n := range []string{"federate.epochs", "federate.advance_s", "federate.tick_s", "federate.shard_s"} {
		rep.set(n, 0)
	}
	rep.note("federate.* are 0: this workload has no federation")
	wall := win.wall.Seconds()
	rep.note("window %.3f s = sim.self %.3f + submit %.3f + sweep.self %.3f + append %.3f + tick.self %.3f + freeze_api %.3f + residual %.3f",
		wall, secs(run.self), secs(sub.total), secs(sw.self), secs(ap.total), secs(tk.self),
		secs(fz.total+ufz.total), wall-secs(top))
	if submitted := a.sched.Submitted - b.sched.Submitted; sub.count != submitted {
		rep.fail("traced %d Submit calls, the scheduler counted %d submissions", sub.count, submitted)
	}
}
