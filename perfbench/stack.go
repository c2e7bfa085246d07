package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// dcShape describes one single-data-center workload: fleet, load, budgets
// and controller settings. Every input the stack sees is derived from the
// shape and the run's seed.
type dcShape struct {
	rows int
	// batchFrac steers the batch stream to this fraction of rated power;
	// batchPerServerMin, when positive, sets the stream directly in jobs per
	// server per minute instead.
	batchFrac         float64
	batchPerServerMin float64
	// pinContainers are reserved on every server at build; pinCPU is their
	// mean total CPU demand per server, drawn per server in
	// [1-pinSpread, 1+pinSpread]×pinCPU from the seed.
	pinContainers int
	pinCPU        float64
	pinSpread     float64
	// budgetFrac is the row budget as a fraction of rated row power; 0 sets
	// it to the row's expected draw, so rows hover at their budget.
	budgetFrac float64
	// dipEvery > 0 puts every dipEvery-th row under a demand-response dip of
	// dipFrac starting at the window, ramped at dipRamp of base per tick.
	dipEvery int
	dipFrac  float64
	dipRamp  float64
	// parallel is core.Config.Parallel (0 = serial plan, -1 = nproc) and
	// etMode its Et estimator family.
	parallel int
	etMode   core.EtMode
	// noSurges turns off the product's random load surges.
	noSurges bool
}

// Every workload keeps 64 points per TSDB series; the single-DC ones build
// 400-server rows, as federate.Family does, and warm up for 30 simulated
// minutes before their window.
const (
	retention  = 64
	rowServers = 400
	dcWarmup   = 30 * sim.Minute
)

func (sh dcShape) spec() cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.ServersPerRack = 20
	spec.RacksPerRow = rowServers / spec.ServersPerRack
	spec.Rows = sh.rows
	return spec
}

// drive selects who schedules the periodic sweep and control tick.
type drive int

const (
	// driveHarness registers the benchmark's own eng.Every events, in the
	// order Monitor.Start and Controller.Start would, so both calls are
	// timed from outside.
	driveHarness drive = iota
	// driveStart uses Monitor.Start and Controller.Start themselves; it
	// exists to check that driveHarness simulates identically.
	driveStart
)

// dcStack is one assembled single-DC stack.
type dcStack struct {
	shape   dcShape
	eng     *sim.Engine
	c       *cluster.Cluster
	sched   *scheduler.Scheduler
	db      *tsdb.DB
	mon     *monitor.Monitor
	gen     *workload.Generator
	ctl     *core.Controller
	domains int

	tr *tracer // nil when untraced

	// recordTicks makes the harness tick keep each Step's wall time.
	recordTicks bool
	ticks       []time.Duration
}

// buildDC assembles the stack from the public constructors, pins the
// service load and starts the periodic components at time zero.
func buildDC(sh dcShape, seed uint64, tr *tracer, dr drive) (*dcStack, error) {
	spec := sh.spec()
	s := &dcStack{shape: sh, tr: tr, eng: sim.NewEngine()}
	var err error
	if s.c, err = cluster.New(spec, seed); err != nil {
		return nil, err
	}
	s.sched = scheduler.New(s.eng, s.c, seed, nil)
	s.db = tsdb.New(retention)
	if s.mon, err = monitor.New(s.eng, s.c, s.db, monitor.DefaultConfig()); err != nil {
		return nil, err
	}
	if tr != nil {
		s.mon.SetStore(&timedStore{db: s.db, tr: tr, lane: 0})
	}

	pins, pinMean := pinLoads(sh, seed, len(s.c.Servers))
	perServer := sh.batchPerServerMin
	if perServer <= 0 {
		perServer = workload.RateForPowerFraction(sh.batchFrac, spec.IdlePowerW, spec.RatedPowerW,
			spec.Containers, truncatedMeanMinutes(), 1.0)
	}
	prod := workload.DefaultProduct("shared", perServer*float64(spec.TotalServers()))
	if sh.noSurges {
		prod.SurgeProb = 0
	}
	var sink workload.Sink = s.sched.Submit
	if tr != nil {
		sink = tr.submitSink(s.sched)
	}
	if s.gen, err = workload.NewGenerator(s.eng, seed, []workload.Product{prod},
		workload.DefaultDurations(), sink); err != nil {
		return nil, err
	}

	budget := sh.budgetFrac * spec.RowRatedPowerW()
	if sh.budgetFrac == 0 {
		// The row's expected draw: pinned plus batch CPU by Little's law.
		util := (pinMean + perServer*truncatedMeanMinutes()) / float64(spec.Containers)
		budget = float64(spec.ServersPerRow()) * (spec.IdlePowerW + (spec.RatedPowerW-spec.IdlePowerW)*util)
	}
	var dip *core.BudgetSchedule
	if sh.dipEvery > 0 {
		dip = &core.BudgetSchedule{
			Steps:    []core.BudgetStep{{At: sim.Time(dcWarmup), BudgetW: (1 - sh.dipFrac) * budget}},
			RampFrac: sh.dipRamp,
		}
	}
	domains := make([]core.Domain, spec.Rows)
	for r := range domains {
		ids := make([]cluster.ServerID, 0, spec.ServersPerRow())
		for _, sv := range s.c.Row(r) {
			ids = append(ids, sv.ID)
		}
		domains[r] = core.Domain{Name: monitor.SeriesRow(r), Servers: ids, BudgetW: budget, Kr: experiment.DefaultKr}
		if dip != nil && r%sh.dipEvery == 0 {
			domains[r].Schedule = dip
		}
	}
	s.domains = len(domains)
	ccfg := core.DefaultConfig()
	ccfg.EtWindow = 60
	ccfg.EtMode = sh.etMode
	ccfg.Parallel = sh.parallel
	if sh.parallel < 0 {
		ccfg.Parallel = runtime.NumCPU()
	}
	var api core.FreezeAPI = s.sched
	if tr != nil {
		api = &tracedFreezeAPI{api: s.sched, tr: tr}
	}
	if s.ctl, err = core.New(s.eng, s.mon, api, ccfg, domains); err != nil {
		return nil, err
	}

	for i, cpu := range pins {
		if err := s.sched.Reserve(cluster.ServerID(i), sh.pinContainers, cpu); err != nil {
			return nil, fmt.Errorf("pin server %d: %w", i, err)
		}
	}

	switch dr {
	case driveStart:
		s.mon.Start()
		s.gen.Start()
		s.ctl.Start()
	case driveHarness:
		now := s.eng.Now()
		s.eng.Every(now, monitor.DefaultConfig().Interval, "power-monitor", s.sweep)
		s.gen.Start()
		s.eng.Every(now, ccfg.Interval, "ampere-controller", s.step)
	}
	return s, nil
}

// pinLoads draws each server's pinned service CPU from the seed and returns
// them with their mean (nil when the shape pins nothing).
func pinLoads(sh dcShape, seed uint64, n int) ([]float64, float64) {
	if sh.pinContainers == 0 {
		return nil, 0
	}
	rng := sim.SubRNG(seed, "perfbench-pins")
	pins := make([]float64, n)
	sum := 0.0
	for i := range pins {
		pins[i] = sh.pinCPU * (1 + sh.pinSpread*(2*rng.Float64()-1))
		sum += pins[i]
	}
	return pins, sum / float64(n)
}

// sweep is the harness-driven monitor event.
func (s *dcStack) sweep(now sim.Time) {
	if s.tr != nil && s.tr.on {
		sp := s.tr.begin(0, kindSweep)
		s.mon.Sweep(now)
		s.tr.end(0, sp)
		return
	}
	s.mon.Sweep(now)
}

// step is the harness-driven control tick.
func (s *dcStack) step(now sim.Time) {
	var sp int32 = -1
	if s.tr != nil && s.tr.on {
		sp = s.tr.begin(0, kindStep)
	}
	start := time.Now()
	s.ctl.Step(now)
	d := time.Since(start)
	if sp >= 0 {
		s.tr.end(0, sp)
	}
	if s.recordTicks {
		s.ticks = append(s.ticks, d)
	}
}

// runUntil advances the engine, as one RunUntil span when tracing.
func (s *dcStack) runUntil(t sim.Time) error {
	if s.tr != nil && s.tr.on {
		sp := s.tr.begin(0, kindRunUntil)
		err := s.eng.RunUntil(t)
		s.tr.end(0, sp)
		return err
	}
	return s.eng.RunUntil(t)
}

// tracedFreezeAPI times the controller's freeze/unfreeze calls into the
// scheduler.
type tracedFreezeAPI struct {
	api core.FreezeAPI
	tr  *tracer
}

func (a *tracedFreezeAPI) Freeze(id cluster.ServerID) error {
	if !a.tr.on {
		return a.api.Freeze(id)
	}
	sp := a.tr.begin(0, kindFreeze)
	err := a.api.Freeze(id)
	a.tr.end(0, sp)
	return err
}

func (a *tracedFreezeAPI) Unfreeze(id cluster.ServerID) error {
	if !a.tr.on {
		return a.api.Unfreeze(id)
	}
	sp := a.tr.begin(0, kindUnfreeze)
	err := a.api.Unfreeze(id)
	a.tr.end(0, sp)
	return err
}

// timedStore times the monitor's TSDB writes on one tracer lane.
type timedStore struct {
	db   *tsdb.DB
	tr   *tracer
	lane int
}

func (t *timedStore) Append(name string, at sim.Time, v float64) error {
	if !t.tr.on {
		return t.db.Append(name, at, v)
	}
	sp := t.tr.begin(t.lane, kindAppend)
	err := t.db.Append(name, at, v)
	t.tr.end(t.lane, sp)
	return err
}

// truncatedMeanMinutes is the default job-duration distribution's mean after
// truncation, by fixed-seed Monte Carlo — the calibration the repository's
// scale experiments use to turn a power target into an arrival rate.
var truncatedMeanMinutes = sync.OnceValue(func() float64 {
	r := sim.NewRNG(0x7ca11b)
	const n = 200000
	dd := workload.DefaultDurations()
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += dd.Sample(r).Minutes()
	}
	return sum / n
})
