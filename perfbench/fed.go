package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"

	"repro/internal/federate"
)

// fedWarmupEpochs is fed-4x10k's warm-up in one-minute epochs: the window
// starts on the hour (see workloads).
const fedWarmupEpochs = 60

// fedSystem is fed-4x10k: the follow-the-sun family of four 25-row DCs
// (40k servers, two containers per server pinned through scheduler.Batch at
// build), with nproc shard workers and the default cadence and WAN delay.
type fedSystem struct {
	f      *federate.Federation
	tr     *tracer
	sweeps int64 // monitor sweeps in the last window
}

// setupFed builds the federation and advances it through warm-up. A traced
// system times each shard's TSDB writes on its own tracer lane.
func setupFed(seed uint64, traced bool, rep *report) (system, error) {
	dcs, err := federate.Family("follow-the-sun", 4, 25)
	if err != nil {
		return nil, err
	}
	f, err := federate.New(federate.Config{Seed: seed, DCs: dcs, Workers: runtime.NumCPU(), Retention: retention})
	if err != nil {
		return nil, err
	}
	s := &fedSystem{f: f}
	if traced {
		s.tr = newTracer(1 + len(f.DCs))
		for i, dc := range f.DCs {
			dc.Mon.SetStore(&timedStore{db: dc.DB, tr: s.tr, lane: i + 1})
		}
	}
	errs, err := f.Advance(fedWarmupEpochs)
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		rep.fail("warm-up: DC %d batch op %d: %v", e.DC, e.Index, e.Err)
	}
	return s, nil
}

func (s *fedSystem) servers() int    { return s.f.Servers() }
func (s *fedSystem) tracer() *tracer { return s.tr }

// digest hashes Federation.Fingerprint: every DC's per-epoch telemetry and
// final allocations.
func (s *fedSystem) digest() string {
	h := sha256.Sum256([]byte(s.f.Fingerprint()))
	return hex.EncodeToString(h[:])[:16]
}

func (s *fedSystem) counters() counters {
	var c counters
	for _, dc := range s.f.DCs {
		c.addSched(dc.Sched.Stats())
		c.addDomains(dc.Ctl, dc.Spec.Rows)
		c.generated += dc.Gen.Generated()
		c.steps += dc.Eng.Steps()
		c.writeErrs += dc.Mon.WriteErrors()
	}
	return c
}

func (s *fedSystem) totalSweeps() int64 {
	n := int64(0)
	for _, dc := range s.f.DCs {
		n += dc.Mon.Sweeps()
	}
	return n
}

// measure advances the window one epoch per Advance(1) call, reading the
// federated tick through ResetTickStats/TickStats around each call. When
// tracing, each Advance is a lane-0 span with its tick as a child, and the
// shard lanes take the Advance span as their ambient parent.
func (s *fedSystem) measure(epochs int, rep *report) (*window, error) {
	f, tr := s.f, s.tr
	w := &window{minutes: epochs, before: s.counters()}
	sweeps0 := s.totalSweeps()
	mt := startMeter(w)
	for e := 0; e < epochs; e++ {
		var sp int32 = -1
		if tr != nil && tr.on {
			next := int32(len(tr.lanes[0].spans))
			for _, ln := range tr.lanes[1:] {
				ln.ambient = next
			}
			sp = tr.begin(0, kindAdvance)
		}
		f.ResetTickStats()
		errs, err := f.Advance(1)
		if sp >= 0 {
			tr.end(0, sp)
		}
		if err != nil {
			return nil, err
		}
		_, tick, _ := f.TickStats()
		if sp >= 0 {
			// The tick's position inside Advance is not observable; record it
			// at the span's end, where only telemetry and reallocation follow.
			end := tr.lanes[0].spans[sp].end
			tr.add(0, kindFedTick, sp, end-int64(tick), end)
		}
		w.ticks = append(w.ticks, tick)
		for _, se := range errs {
			rep.fail("DC %d batch op %d: %v", se.DC, se.Index, se.Err)
		}
		pending, queue := 0, 0
		for _, dc := range f.DCs {
			pending += dc.Eng.Pending()
			queue += dc.Sched.QueueLen()
		}
		w.pendingPeak = max(w.pendingPeak, pending)
		w.queuePeak = max(w.queuePeak, queue)
		mt.minute()
	}
	mt.stop()
	w.after = s.counters()
	s.sweeps = s.totalSweeps() - sweeps0
	return w, nil
}

func (s *fedSystem) check(rep *report, _ uint64) {
	for _, dc := range s.f.DCs {
		checkConservation(rep, dc.Name, dc.Cluster, dc.Sched, dc.Ctl, dc.Gen.Generated())
	}
}

// layers sets the per-layer metrics of a traced federated window. The
// engines, generators, schedulers and monitors run on federate's shard
// workers behind Advance, so only Advance, the federated tick and each
// shard's Store.Append are timed; the other layers are reported as counts
// and their time is split by the CPU profile.
func (s *fedSystem) layers(rep *report, win *window) {
	setCounts(rep, win)
	stats, top, _ := s.tr.summary()
	b, a := win.before, win.after
	tick, adv, ap := stats[kindFedTick], stats[kindAdvance], stats[kindAppend]
	rep.set("scheduler.submit_calls", float64(a.sched.Submitted-b.sched.Submitted))
	rep.set("scheduler.freeze_calls", float64(a.ctl.FreezeOps-b.ctl.FreezeOps))
	rep.set("scheduler.unfreeze_calls", float64(a.ctl.UnfreezeOps-b.ctl.UnfreezeOps))
	rep.set("monitor.sweeps", float64(s.sweeps))
	for _, n := range []string{"sim.self_ns_per_event", "sim.self_s", "scheduler.submit_ns", "scheduler.submit_s",
		"scheduler.freeze_api_ns", "scheduler.freeze_api_s", "monitor.sweep_ns_per_server", "monitor.sweep_self_s"} {
		rep.set(n, 0)
	}
	rep.note("sim, scheduler and monitor times are 0: those calls run inside federate's shard workers; see cpu.*")
	rep.set("tsdb.appends", float64(ap.count))
	rep.set("tsdb.append_ns", perCall(ap.total, ap.count))
	rep.set("tsdb.append_s", secs(ap.total))
	rep.set("core.ticks", float64(tick.count))
	rep.set("core.tick_ns_per_server", float64(tick.total)/(float64(tick.count)*float64(s.servers())))
	rep.set("core.tick_self_s", secs(tick.total))
	rep.note("core.tick_self_s is the whole federated tick: freeze calls run inside it on shard workers")
	rep.set("federate.epochs", float64(adv.count))
	rep.set("federate.advance_s", secs(adv.total))
	rep.set("federate.tick_s", secs(tick.total))
	rep.set("federate.shard_s", secs(adv.total-tick.total))
	wall := win.wall.Seconds()
	rep.note("window %.3f s = shard phases %.3f + federated tick %.3f + residual %.3f; shard lanes spent %.3f s in Store.Append",
		wall, secs(adv.self), secs(tick.total), wall-secs(top), secs(ap.total))
}
