package experiment

import (
	"fmt"
	"io"

	"repro/internal/breaker"
	"repro/internal/capping"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// The paper enforces a constant PM; a grid-coordinated deployment does not
// get that luxury. A demand-response event curtails one utility feeder by a
// double-digit percentage with minutes of notice, and the breakers on the
// affected rows then protect the *curtailed* envelope — ride the dip wrong
// and the relays open, which is precisely the catastrophic outcome Ampere
// exists to prevent (§2.1). This experiment drives a full-scale fleet
// through an unannounced 20 % dip on a feeder carrying CurtailedFrac of the
// rows, under two postures:
//
//   - cliff: the controller retargets PM to the curtailed value in one tick,
//     and the breakers follow instantly. The affected rows are still drawing
//     near the old budget, the overload integrates on the thermal curve, and
//     the relays trip before job drain can catch up.
//   - ramp: the domain schedule's RampFrac spreads the same dip over
//     RampMinutes ticks. The UPS bridges the gap between the grid envelope
//     and the ramped enforcement (reported as UPS-covered violation
//     samples), the breakers follow the ramp, and the thermal accumulator
//     never nears its trip threshold.
//
// Both regimes face the identical splitmix64-scheduled storm; the only
// difference is the ramp. The headline comparison is breaker trips (cliff
// > 0, ramp = 0) and post-settle sustained violations (both 0 — the
// controller converges under the curtailed envelope either way).
//
// Freezing sheds a row's power only by moving placements *out* of the row —
// the §4.1.2 displacement mechanism — so the storm must leave somewhere for
// the load to go: the scheduler reroutes arrivals from the frozen curtailed
// rows onto the unaffected feeders' rows. The dip must also fit inside the
// controllable dynamic range above the 0.60 calibrated idle fraction: at
// MaxFreezeRatio 0.5 a fully-drained row floors at 0.5×rated + 0.5×idle =
// 0.80 of rated, so the row budget here is the feed's rating itself (a 20 %
// dip of an RO=0.25 oversubscribed budget would land at 0.64 of rated,
// below that floor, and no controller could ride it).

// gridMargin is the §3.2 operator safety margin: the controller enforces PM
// slightly below the grid envelope so boundary-riding control jitter does
// not register as violations against the real limit. Tracker budgets and
// breaker limits use the unscaled envelope.
const gridMargin = 0.985

// GridstormConfig shapes the grid-event resilience run.
type GridstormConfig struct {
	Seed       uint64
	Rows       int
	RowServers int
	// TargetFrac is the steady workload intensity as a fraction of rated
	// power.
	TargetFrac float64
	// BudgetFrac sets the row budget as a fraction of the feed's rating —
	// the §3.2 operator margin below the physical PDU limit. It keeps the
	// fleet's occupancy low enough that the absorber rows have real spare
	// capacity when the storm displaces load onto them.
	BudgetFrac float64
	// CurtailedFrac is the fraction of rows on the curtailed feeder
	// (rounded to at least one row).
	CurtailedFrac float64
	// Kr is the control-effect gradient (0 = core's DefaultKr).
	Kr float64
	// Warmup lets the fleet reach steady state before anything is measured.
	Warmup sim.Duration
	// DipAfter is how long after warmup the curtailment lands.
	DipAfter sim.Duration
	// DipDepth is the curtailment fraction (0.2 = a 20 % dip); DipLen is how
	// long the grid holds the curtailed envelope.
	DipDepth float64
	DipLen   sim.Duration
	// RampMinutes spreads the dip over that many control ticks in the ramp
	// regime (the cliff regime always applies it in one).
	RampMinutes int
	// SettleMinutes after the ramp window completes, violations are counted
	// as sustained — the "zero sustained violations" criterion.
	SettleMinutes int
	// Tail keeps the run going after the grid restores, long enough to
	// measure recovery.
	Tail sim.Duration
	// TripOverloadSeconds parameterizes the breaker trip curve (see
	// breaker.Config); the default 1.5 models a relay protecting an
	// already-curtailed feed with little thermal slack.
	TripOverloadSeconds float64
	// ServiceUsers > 0 pins a user-facing service on the curtailed rows:
	// ServicePerRow instances per curtailed row (ServiceContainers reserved
	// containers each) serving ServiceUsers simulated users at
	// ServiceRPSPerUser. A 5-second safety-net capper rides the curtailed
	// rows, its budget following the controller's effective budget — so the
	// storm's tail-latency cost (capped intervals stretch request service
	// times) becomes measurable, KPI'd, and rankable in the tournament.
	// 0 leaves the grid experiment service-free (the published regimes).
	ServiceUsers      int
	ServicePerRow     int
	ServiceContainers int
	ServiceRPSPerUser float64
	// Parallel fans the two regimes across workers; CtlParallel fans each
	// controller's plan phase. Neither changes output (DESIGN.md §7).
	Parallel    int
	CtlParallel int
}

// DefaultGridstorm is the full-scale configuration: 100k servers, a 20 %
// dip held for an hour on a feeder carrying 62 of the 250 rows. The ramp
// spans 30 of the dip's 60 minutes: with a linear ramp the drain window —
// from control onset (ramped p_eff crossing the freeze threshold) to the
// breaker budget landing on the curtailed envelope — scales with the ramp
// length, and 30 minutes keeps the draw below the envelope at landing even
// when the workload's global demand noise drifts a few percent upward
// during the transition (a drift all curtailed rows see simultaneously;
// at 20 minutes the two worst-placed rows still accumulated trip heat).
func DefaultGridstorm() GridstormConfig {
	return GridstormConfig{
		Seed:                2026,
		Rows:                250,
		RowServers:          400,
		TargetFrac:          0.76,
		BudgetFrac:          0.90,
		CurtailedFrac:       0.25,
		Warmup:              30 * sim.Minute,
		DipAfter:            15 * sim.Minute,
		DipDepth:            0.20,
		DipLen:              60 * sim.Minute,
		RampMinutes:         30,
		SettleMinutes:       8,
		Tail:                45 * sim.Minute,
		TripOverloadSeconds: 1.5,
	}
}

// QuickGridstorm shrinks the fleet and spans for tests and -quick runs; the
// shorter 30-minute dip takes a proportionally shorter 10-minute ramp.
func QuickGridstorm() GridstormConfig {
	cfg := DefaultGridstorm()
	cfg.Rows, cfg.RowServers = 4, 80
	cfg.Warmup, cfg.DipAfter = 20*sim.Minute, 10*sim.Minute
	cfg.DipLen, cfg.Tail = 30*sim.Minute, 25*sim.Minute
	cfg.RampMinutes = 10
	return cfg
}

// GridstormRun is one regime's outcome. Every field is deterministic at a
// fixed seed and independent of Parallel/CtlParallel.
type GridstormRun struct {
	Regime        string
	Rows          int
	CurtailedRows int
	Servers       int
	// Trips counts rows whose breaker opened; TrippedRows lists them in
	// trip order (the ride-through property: ramp ⊆ cliff, ramp empty).
	Trips       int
	TrippedRows []int
	// BudgetChanges counts effective-budget movements announced by the
	// controller across all domains (2×CurtailedRows for a cliff
	// dip+restore, about 2×RampMinutes×CurtailedRows for a ramped one).
	BudgetChanges int
	// RampViolations counts over-envelope samples inside the dip-onset ramp
	// + settle window, summed over rows — the UPS-covered transition.
	// SustainedViolations counts them from settle until restore (the pass
	// criterion: 0). TailViolations counts them after restore.
	RampViolations      int
	SustainedViolations int
	TailViolations      int
	// PMaxDip is the peak row power as a fraction of the (curtailed)
	// envelope over the dip.
	PMaxDip float64
	// FrozenPeak is the maximum total frozen servers; FrozenServerMinutes
	// integrates the frozen count over the dip and tail — the capacity cost
	// of riding the event.
	FrozenPeak          int
	FrozenServerMinutes int64
	// RecoveryMinutes is the time from grid restore until no server remains
	// frozen (-1 if the run ends first).
	RecoveryMinutes float64
	// Dips and CurtailedMinutes echo the injector's storm accounting.
	Dips             int64
	CurtailedMinutes int64
}

// RunGridstorm faces the cliff and ramp regimes against the identical storm.
func RunGridstorm(cfg GridstormConfig) ([]GridstormRun, error) {
	if cfg.Rows < 2 || cfg.RowServers < 20 {
		return nil, fmt.Errorf("experiment: gridstorm needs ≥2 rows of ≥20 servers (load must displace somewhere)")
	}
	if cfg.DipDepth <= 0 || cfg.DipDepth >= 1 {
		return nil, fmt.Errorf("experiment: gridstorm dip depth %v outside (0,1)", cfg.DipDepth)
	}
	if cfg.CurtailedFrac <= 0 || cfg.CurtailedFrac >= 1 {
		return nil, fmt.Errorf("experiment: gridstorm curtailed fraction %v outside (0,1)", cfg.CurtailedFrac)
	}
	if cfg.BudgetFrac <= 0 || cfg.BudgetFrac > 1 {
		return nil, fmt.Errorf("experiment: gridstorm budget fraction %v outside (0,1]", cfg.BudgetFrac)
	}
	if cfg.RampMinutes < 1 {
		return nil, fmt.Errorf("experiment: gridstorm ramp minutes %d must be ≥1", cfg.RampMinutes)
	}
	runs, err := runUnits(cfg.Parallel, []string{"cliff", "ramp"}, func(i int) (GridstormRun, error) {
		return runGridstormOnce(cfg, i == 1)
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// gridstormStack is one regime's fully constructed and started simulation:
// setupGridstorm builds it, runGridstormOnce drives it to the end and scores
// it, and GridstormBuilder (whatif.go) wraps it as a whatif.Instance.
type gridstormStack struct {
	cfg       GridstormConfig
	regime    string
	curtailed int
	rowBudget float64

	rig      *stack.Stack
	tracker  *Tracker
	ctl      *core.Controller
	breakers []*breaker.Breaker
	inj      *chaos.Injector
	svc      *service.Service // nil unless cfg.ServiceUsers > 0
	capper   *capping.Capper  // safety net on the curtailed rows, ditto

	dipT, restoreT, endT sim.Time

	trippedRows   []int // rows whose breaker opened, in trip order
	budgetChanges int   // effective-budget movements across all domains
}

// setupGridstorm constructs and starts one regime's stack against the
// deterministic storm. When journal is non-nil the controller and scheduler
// are journal-instrumented (decision events per domain per tick) — the
// what-if path; instrumentation never changes decisions.
func setupGridstorm(cfg GridstormConfig, ramped bool, journal *obs.Journal) (*gridstormStack, error) {
	st := &gridstormStack{cfg: cfg, regime: "cliff"}
	if ramped {
		st.regime = "ramp"
	}
	st.curtailed = int(float64(cfg.Rows)*cfg.CurtailedFrac + 0.5)
	if st.curtailed < 1 {
		st.curtailed = 1
	}
	if st.curtailed >= cfg.Rows {
		st.curtailed = cfg.Rows - 1
	}
	curtailed := st.curtailed

	spec, err := stack.RowSpec(cfg.Rows, cfg.RowServers)
	if err != nil {
		return nil, err
	}
	prod := workload.DefaultProduct("grid", stack.PerServerRate(spec, cfg.TargetFrac)*float64(spec.TotalServers()))
	// A grid event is the variable under test; hold the demand side steady.
	prod.DiurnalAmplitude = 0
	prod.SurgeProb = 0

	rig, err := stack.New(stack.Config{Seed: cfg.Seed, Cluster: spec, Products: []workload.Product{prod}})
	if err != nil {
		return nil, err
	}
	st.rig = rig
	// The row budget sits BudgetFrac below the feed's rating (see the
	// package comment on why a curtailment experiment cannot also
	// oversubscribe the budget).
	rowBudget := spec.RowRatedPowerW() * cfg.BudgetFrac
	st.rowBudget = rowBudget

	groups := make([]Group, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		groups[r] = Group{Name: fmt.Sprintf("row%d", r), IDs: rig.Cluster.RowIDs(r), BudgetW: rowBudget}
	}
	tracker, err := NewTracker(rig, groups)
	if err != nil {
		return nil, err
	}
	st.tracker = tracker

	if cfg.ServiceUsers > 0 {
		if cfg.ServicePerRow < 1 || cfg.ServicePerRow > cfg.RowServers {
			return nil, fmt.Errorf("experiment: gridstorm %d service instances on a %d-server row",
				cfg.ServicePerRow, cfg.RowServers)
		}
		if !(cfg.ServiceRPSPerUser > 0) {
			return nil, fmt.Errorf("experiment: gridstorm service rate %v per user invalid", cfg.ServiceRPSPerUser)
		}
		stride := cfg.RowServers / cfg.ServicePerRow
		var hosts []*cluster.Server
		for r := 0; r < curtailed; r++ {
			row := rig.Cluster.Row(r)
			for i := 0; i < cfg.ServicePerRow; i++ {
				sv := row[i*stride]
				if err := rig.Sched.Reserve(sv.ID, cfg.ServiceContainers, float64(cfg.ServiceContainers)); err != nil {
					return nil, err
				}
				hosts = append(hosts, sv)
			}
		}
		svc, err := service.New(rig.Eng, cfg.Seed, service.Config{
			Classes: service.DefaultClasses(cfg.ServiceUsers, cfg.ServiceRPSPerUser),
			Ops:     scaledOpsBy(40),
			Window:  10 * sim.Second,
		}, hosts)
		if err != nil {
			return nil, err
		}
		st.svc = svc
		// Traffic starts once the fleet is warm, so KPIs cover the storm.
		rig.Eng.At(sim.Time(cfg.Warmup), "gridstorm-svc-start", func(sim.Time) { svc.Start() })
		capDomains := make([]capping.Domain, curtailed)
		for r := 0; r < curtailed; r++ {
			capDomains[r] = capping.Domain{
				Name:    fmt.Sprintf("row/%d", r),
				Servers: rig.Cluster.Row(r),
				BudgetW: rowBudget,
			}
		}
		st.capper, err = capping.New(rig.Eng, capping.Config{Interval: 5 * sim.Second}, capDomains)
		if err != nil {
			return nil, err
		}
	}

	// One controller, one domain per row, enforcing the margined envelope.
	// The ramp regime's schedule has no steps: it is purely the per-tick
	// ramp limit applied to the SetBudget overrides the storm driver issues.
	var sched *core.BudgetSchedule
	if ramped {
		sched = &core.BudgetSchedule{RampFrac: cfg.DipDepth / float64(cfg.RampMinutes)}
	}
	domains := make([]core.Domain, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		domains[r] = core.Domain{
			Name: groups[r].Name, Servers: groups[r].IDs,
			BudgetW: rowBudget * gridMargin, Kr: cfg.Kr,
			Et: core.ConstantEt(0.03), Schedule: sched,
		}
	}
	ccfg := core.DefaultConfig()
	ccfg.Parallel = cfg.CtlParallel
	ctl, err := core.New(rig.Eng, rig.Mon, rig.Sched, ccfg, domains)
	if err != nil {
		return nil, err
	}
	st.ctl = ctl
	if journal != nil {
		rig.Sched.Instrument(nil, journal)
		ctl.Instrument(nil, journal)
	}
	tracker.AddProbe("frozen", func() float64 {
		total := 0
		for r := 0; r < cfg.Rows; r++ {
			total += ctl.FrozenCount(r)
		}
		return float64(total)
	})

	// Observational breakers on the raw row feeds: a trip is recorded, not
	// acted on, so both regimes keep running and stay comparable after one.
	bcfg := breaker.Config{
		BudgetW:             rowBudget,
		Interval:            5 * sim.Second,
		TripOverloadSeconds: cfg.TripOverloadSeconds,
	}
	breakers := make([]*breaker.Breaker, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		b, err := breaker.New(rig.Eng, bcfg, rig.Cluster.Row(r))
		if err != nil {
			return nil, err
		}
		r := r
		b.OnTrip(func(sim.Time) { st.trippedRows = append(st.trippedRows, r) })
		breakers[r] = b
	}
	st.breakers = breakers
	// The relay protects what the feed actually enforces: during a ramped
	// ride-through the UPS bridges the envelope gap, so the protected limit
	// follows the controller's effective budget (unscaled by the margin).
	ctl.OnBudgetChange(func(bc core.BudgetChange) {
		st.budgetChanges++
		if err := breakers[bc.Domain].SetBudget(bc.NewW / gridMargin); err != nil {
			panic(err) // NewW is controller-validated; this cannot fail
		}
		// The safety-net capper (when the service rides along) protects the
		// same moving envelope the relay does.
		if st.capper != nil && bc.Domain < st.curtailed {
			if err := st.capper.SetBudget(bc.Domain, bc.NewW/gridMargin); err != nil {
				panic(err)
			}
		}
	})

	// The storm: one unannounced dip of DipDepth landing DipAfter past
	// warmup, held for DipLen, on the feeder carrying the first curtailed
	// rows. Rate 1 over a one-minute window makes the onset deterministic
	// while still flowing through the splitmix64 decision path shared with
	// every other chaos fault.
	dipT := sim.Time(cfg.Warmup + cfg.DipAfter)
	st.dipT = dipT
	st.restoreT = dipT.Add(cfg.DipLen)
	st.endT = st.restoreT.Add(cfg.Tail)
	plan := chaos.Plan{Seed: cfg.Seed + 17, Faults: []chaos.Fault{{
		Kind: chaos.BudgetDip, From: dipT, To: dipT.Add(sim.Minute),
		Rate: 1, Depth: cfg.DipDepth, Dwell: cfg.DipLen,
	}}}
	inj, err := chaos.New(rig.Eng, plan)
	if err != nil {
		return nil, err
	}
	st.inj = inj

	// Start order at each minute boundary: monitor sweep (fresh samples and
	// tracker budgets recorded), then the storm driver (envelope moves),
	// then breaker evaluations, then the control tick.
	rig.Start()
	inj.DriveBudget(0, sim.Minute, func(now sim.Time, mult float64) {
		for r := 0; r < curtailed; r++ {
			env := mult * rowBudget
			tracker.SetGroupBudget(r, env)
			if err := ctl.SetBudget(r, env*gridMargin); err != nil {
				panic(err) // depth is validated to (0,1); this cannot fail
			}
		}
	})
	for _, b := range breakers {
		b.Start()
	}
	if st.capper != nil {
		st.capper.Start()
	}
	ctl.Start()
	return st, nil
}

func runGridstormOnce(cfg GridstormConfig, ramped bool) (GridstormRun, error) {
	st, err := setupGridstorm(cfg, ramped, nil)
	if err != nil {
		return GridstormRun{}, err
	}
	out := GridstormRun{Regime: st.regime, Rows: cfg.Rows, CurtailedRows: st.curtailed,
		Servers: cfg.Rows * cfg.RowServers}
	if err := st.rig.Run(st.endT); err != nil {
		return out, err
	}
	st.analyze(&out)
	return out, nil
}

// analyze scores a completed run into out.
func (st *gridstormStack) analyze(out *GridstormRun) {
	cfg, tracker := st.cfg, st.tracker
	dipT, restoreT := st.dipT, st.restoreT
	out.TrippedRows = st.trippedRows
	out.BudgetChanges = st.budgetChanges

	// Windows, in sample indices. The envelope the tracker judged against
	// moved with the storm, so violations here are against the curtailed
	// grid limit, not the nameplate one.
	rampWin := sim.Duration(cfg.RampMinutes) * sim.Minute
	settleWin := sim.Duration(cfg.SettleMinutes) * sim.Minute
	dipIdx := tracker.IndexAt(dipT)
	sustainIdx := tracker.IndexAt(dipT.Add(rampWin + settleWin))
	restoreIdx := tracker.IndexAt(restoreT)
	for r := 0; r < cfg.Rows; r++ {
		out.RampViolations += tracker.ViolationsBetween(r, dipIdx, sustainIdx-1)
		out.SustainedViolations += tracker.ViolationsBetween(r, sustainIdx, restoreIdx-1)
		out.TailViolations += tracker.ViolationsBetween(r, restoreIdx, -1)
		for _, v := range tracker.NormPowerSeries(r, dipIdx)[:restoreIdx-dipIdx] {
			if v > out.PMaxDip {
				out.PMaxDip = v
			}
		}
	}
	frozen := tracker.ProbeSeries(0, dipIdx)
	for _, v := range frozen {
		if int(v) > out.FrozenPeak {
			out.FrozenPeak = int(v)
		}
		out.FrozenServerMinutes += int64(v)
	}
	out.RecoveryMinutes = -1
	times := tracker.Times()
	for i := restoreIdx; i < tracker.Samples(); i++ {
		if tracker.ProbeSeries(0, i)[0] == 0 {
			out.RecoveryMinutes = times[i].Sub(restoreT).Minutes()
			break
		}
	}
	out.Trips = len(out.TrippedRows)
	ist := st.inj.Stats()
	out.Dips = ist.BudgetDips
	out.CurtailedMinutes = ist.CurtailedIntervals
}

// FormatGridstorm renders the regime comparison; all columns are
// deterministic (no wall-clock).
func FormatGridstorm(w io.Writer, cfg GridstormConfig, runs []GridstormRun) {
	cr := 0
	if len(runs) > 0 {
		cr = runs[0].CurtailedRows
	}
	fmt.Fprintf(w, "Grid-event resilience: %.0f%% budget dip for %d min on %d of %d rows (%d servers)\n",
		cfg.DipDepth*100, int64(cfg.DipLen/sim.Minute), cr, cfg.Rows, cfg.Rows*cfg.RowServers)
	fmt.Fprintf(w, "  (ramp regime spreads the dip over %d min; violations are against the curtailed grid envelope)\n",
		cfg.RampMinutes)
	fmt.Fprintf(w, "  %-6s %6s %8s %10s %10s %10s %8s %8s %12s %10s\n",
		"regime", "trips", "budgetΔ", "viol-ramp", "viol-sust", "viol-tail",
		"pmax", "frz-pk", "frz-srv-min", "recov-min")
	for _, r := range runs {
		fmt.Fprintf(w, "  %-6s %6d %8d %10d %10d %10d %8.4f %8d %12d %10.1f\n",
			r.Regime, r.Trips, r.BudgetChanges, r.RampViolations, r.SustainedViolations,
			r.TailViolations, r.PMaxDip, r.FrozenPeak, r.FrozenServerMinutes, r.RecoveryMinutes)
	}
	fmt.Fprintf(w, "  (ride-through invariant: ramp trips = 0 and sustained violations = 0)\n")
}
