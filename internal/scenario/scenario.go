// Package scenario builds complete simulation deployments from a
// declarative, JSON-serializable description: topology, workload,
// protection mechanisms (Ampere / DVFS capping / PDU breakers), placement
// policy and duration. cmd/ampere-sim is a thin flag/JSON wrapper around it;
// tests and notebooks can construct Specs directly.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/breaker"
	"repro/internal/capping"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Product describes one workload component.
type Product struct {
	Name string `json:"name"`
	// JobsPerMinute is the mean arrival rate; when zero, TargetFrac drives
	// a calibrated rate instead.
	JobsPerMinute float64 `json:"jobs_per_minute,omitempty"`
	// TargetFrac calibrates the rate to a steady power fraction of rated
	// across the product's rows.
	TargetFrac float64   `json:"target_frac,omitempty"`
	PeakHour   float64   `json:"peak_hour,omitempty"`
	Amplitude  float64   `json:"amplitude,omitempty"`
	RowWeights []float64 `json:"row_weights,omitempty"`
}

// Spec is a complete scenario description.
type Spec struct {
	Seed       uint64 `json:"seed"`
	Rows       int    `json:"rows"`
	RowServers int    `json:"row_servers"`
	// WarmupHours precede the measured window (default 2).
	WarmupHours int `json:"warmup_hours,omitempty"`
	Hours       int `json:"hours"`

	// Workload: either explicit products, or a single calibrated product
	// via TargetFrac (+Amplitude).
	Products   []Product `json:"products,omitempty"`
	TargetFrac float64   `json:"target_frac,omitempty"`
	Amplitude  float64   `json:"amplitude,omitempty"`

	// RO scales each row's enforced budget to rated/(1+RO).
	RO float64 `json:"ro"`

	// BudgetSchedule makes the enforced budget time-varying — piecewise-
	// constant PM(t) with optional ramp-rate limiting (requires Ampere).
	BudgetSchedule *BudgetSchedule `json:"budget_schedule,omitempty"`
	// DemandResponse lists grid curtailment events layered multiplicatively
	// on the scheduled budget (requires Ampere).
	DemandResponse []DemandResponse `json:"demand_response,omitempty"`

	// ControlPolicy configures the Ampere controller's strategy axes —
	// selection, Et estimator family, solver horizon, release path (see
	// policy.go). Requires Ampere. The top-level "policy" key is the
	// scheduler placement policy; this block is the power-control policy.
	ControlPolicy *PolicySpec `json:"control_policy,omitempty"`

	// Protections.
	Ampere  bool    `json:"ampere"`
	Capping bool    `json:"capping"`
	Breaker bool    `json:"breaker"`
	Kr      float64 `json:"kr,omitempty"`
	// RepairMinutes is the outage length after a breaker trip before the
	// row is powered back on (default 30).
	RepairMinutes int `json:"repair_minutes,omitempty"`

	// Scheduling.
	Policy     string `json:"policy,omitempty"`      // random-fit|least-loaded|best-fit|round-robin
	RowChooser string `json:"row_chooser,omitempty"` // proportional|balance-rows|concentrate-rows
}

// Load parses a JSON spec, rejecting unknown fields (typos in config files
// should fail loudly).
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Decode stops at the end of the first JSON value; anything after it is
	// a malformed config, not padding.
	if tok, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec (%v, %v)", tok, err)
	}
	return &s, nil
}

// Validate reports specification errors.
func (s *Spec) Validate() error {
	switch {
	case s.Rows <= 0:
		return fmt.Errorf("scenario: rows %d must be positive", s.Rows)
	case s.RowServers <= 0 || s.RowServers%stack.ServersPerRack != 0:
		return fmt.Errorf("scenario: row_servers %d must be a positive multiple of %d", s.RowServers, stack.ServersPerRack)
	case s.Hours <= 0:
		return fmt.Errorf("scenario: hours %d must be positive", s.Hours)
	case s.RO < 0:
		return fmt.Errorf("scenario: negative ro %v", s.RO)
	case len(s.Products) == 0 && (s.TargetFrac <= 0 || s.TargetFrac > 1):
		return fmt.Errorf("scenario: need products or target_frac in (0,1], got %v", s.TargetFrac)
	case s.Kr < 0:
		return fmt.Errorf("scenario: negative kr %v", s.Kr)
	}
	for i, p := range s.Products {
		if p.JobsPerMinute <= 0 && (p.TargetFrac <= 0 || p.TargetFrac > 1) {
			return fmt.Errorf("scenario: product %d (%s) needs jobs_per_minute or target_frac", i, p.Name)
		}
		if p.RowWeights != nil && len(p.RowWeights) != s.Rows {
			return fmt.Errorf("scenario: product %d (%s) has %d row weights for %d rows",
				i, p.Name, len(p.RowWeights), s.Rows)
		}
	}
	if _, err := pickPolicy(s.Policy); err != nil {
		return err
	}
	if _, err := pickRowChooser(s.RowChooser); err != nil {
		return err
	}
	if s.ControlPolicy != nil {
		if !s.Ampere {
			return fmt.Errorf("scenario: control_policy requires ampere")
		}
		if err := s.ControlPolicy.Validate(); err != nil {
			return err
		}
	}
	return s.validateBudget()
}

func pickPolicy(name string) (scheduler.Policy, error) {
	switch name {
	case "", "random-fit":
		return scheduler.RandomFit{}, nil
	case "least-loaded":
		return scheduler.LeastLoaded{}, nil
	case "best-fit":
		return scheduler.BestFit{}, nil
	case "round-robin":
		return &scheduler.RoundRobin{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown policy %q", name)
	}
}

func pickRowChooser(name string) (scheduler.RowChooser, error) {
	switch name {
	case "", "proportional":
		return nil, nil
	case "balance-rows":
		return scheduler.BalanceRows{}, nil
	case "concentrate-rows":
		return scheduler.ConcentrateRows{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown row_chooser %q", name)
	}
}

// Built is an assembled, not-yet-run scenario.
type Built struct {
	Spec       *Spec
	Rig        *stack.Stack
	Tracker    *experiment.Tracker
	Controller *core.Controller
	Capper     *capping.Capper
	Breakers   []*breaker.Breaker
	BudgetW    float64 // per row
	// Trips counts breaker trips across the run (rows repair and can trip
	// again).
	Trips int
	// BudgetChanges counts effective-budget movements applied by the
	// controller across all rows (schedule steps, ramp ticks, events).
	BudgetChanges int
	warmup        sim.Duration
}

// Build assembles every component of the spec.
func (s *Spec) Build() (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	spec, err := stack.RowSpec(s.Rows, s.RowServers)
	if err != nil {
		return nil, err
	}

	meanDur := workload.DefaultDurations().Mean() * 0.95
	var products []workload.Product
	var weights [][]float64
	specs := s.Products
	if len(specs) == 0 {
		specs = []Product{{Name: "mixed", TargetFrac: s.TargetFrac, Amplitude: s.Amplitude}}
	}
	for _, ps := range specs {
		rate := ps.JobsPerMinute
		if rate <= 0 {
			rows := s.Rows
			if ps.RowWeights != nil {
				rows = 0
				for _, w := range ps.RowWeights {
					if w > 0 {
						rows++
					}
				}
			}
			perServer := workload.RateForPowerFraction(ps.TargetFrac, spec.IdlePowerW,
				spec.RatedPowerW, spec.Containers, meanDur, 1.0)
			rate = perServer * float64(rows*s.RowServers)
		}
		p := workload.DefaultProduct(ps.Name, rate)
		if ps.Amplitude > 0 {
			p.DiurnalAmplitude = ps.Amplitude
		}
		if ps.PeakHour > 0 {
			p.PeakHour = ps.PeakHour
		}
		products = append(products, p)
		weights = append(weights, ps.RowWeights)
	}

	policy, err := pickPolicy(s.Policy)
	if err != nil {
		return nil, err
	}
	rig, err := stack.New(stack.Config{
		Seed:           s.Seed,
		Cluster:        spec,
		Products:       products,
		ProductWeights: weights,
		Policy:         policy,
	})
	if err != nil {
		return nil, err
	}
	chooser, err := pickRowChooser(s.RowChooser)
	if err != nil {
		return nil, err
	}
	if chooser != nil {
		rig.Sched.SetRowChooser(chooser)
	}

	budget := spec.RowRatedPowerW() / (1 + s.RO)
	groups := make([]experiment.Group, s.Rows)
	for r := 0; r < s.Rows; r++ {
		groups[r] = experiment.Group{Name: fmt.Sprintf("row/%d", r), IDs: rig.Cluster.RowIDs(r), BudgetW: budget}
	}
	tracker, err := experiment.NewTracker(rig, groups)
	if err != nil {
		return nil, err
	}

	b := &Built{Spec: s, Rig: rig, Tracker: tracker, BudgetW: budget}
	b.warmup = 2 * sim.Hour
	if s.WarmupHours > 0 {
		b.warmup = sim.Duration(s.WarmupHours) * sim.Hour
	}

	if s.Ampere {
		domains := make([]core.Domain, s.Rows)
		for r := 0; r < s.Rows; r++ {
			domains[r] = core.Domain{
				Name: fmt.Sprintf("row/%d", r), Servers: groups[r].IDs, BudgetW: budget, Kr: s.Kr,
				Schedule: s.compileBudgetSchedule(r, budget, b.warmup),
			}
		}
		ccfg := core.DefaultConfig()
		if err := s.ControlPolicy.apply(&ccfg); err != nil {
			return nil, err
		}
		b.Controller, err = core.New(rig.Eng, rig.Mon, rig.Sched, ccfg, domains)
		if err != nil {
			return nil, err
		}
	}
	if s.Capping {
		budgets := make([]float64, s.Rows)
		for r := range budgets {
			budgets[r] = budget
		}
		b.Capper, err = capping.New(rig.Eng, capping.DefaultConfig(),
			capping.RowDomains(rig.Cluster, budgets))
		if err != nil {
			return nil, err
		}
	}
	if s.Breaker {
		repair := 30 * sim.Minute
		if s.RepairMinutes > 0 {
			repair = sim.Duration(s.RepairMinutes) * sim.Minute
		}
		for r := 0; r < s.Rows; r++ {
			row := rig.Cluster.Row(r)
			brk, err := breaker.New(rig.Eng, breaker.DefaultConfig(budget), row)
			if err != nil {
				return nil, err
			}
			ids := groups[r].IDs
			theBrk := brk
			brk.OnTrip(func(sim.Time) {
				b.Trips++
				for _, id := range ids {
					_ = rig.Sched.FailServer(id)
				}
				rig.Eng.After(repair, "row-repair", func(sim.Time) {
					for _, id := range ids {
						_ = rig.Sched.RepairServer(id)
					}
					theBrk.Reset()
				})
			})
			b.Breakers = append(b.Breakers, brk)
		}
	}
	if b.Controller != nil {
		// A moving budget must move the whole protection/measurement stack
		// with it: the tracker judges violations against the budget in force,
		// and the relay on a curtailed feed trips against the reduced limit.
		b.Controller.OnBudgetChange(func(bc core.BudgetChange) {
			b.BudgetChanges++
			tracker.SetGroupBudget(bc.Domain, bc.NewW)
			if bc.Domain < len(b.Breakers) {
				_ = b.Breakers[bc.Domain].SetBudget(bc.NewW)
			}
		})
	}
	return b, nil
}

// Run starts everything in deterministic order and advances through warmup
// plus the measured hours.
func (b *Built) Run() error {
	b.Rig.Start()
	if b.Controller != nil {
		b.Controller.Start()
	}
	if b.Capper != nil {
		b.Capper.Start()
	}
	for _, brk := range b.Breakers {
		brk.Start()
	}
	end := sim.Time(b.warmup) + sim.Time(b.Spec.Hours)*sim.Time(sim.Hour)
	return b.Rig.Run(end)
}

// Report writes the scenario summary.
func (b *Built) Report(w io.Writer) {
	s := b.Spec
	fmt.Fprintf(w, "scenario: %d×%d servers, %dh, rO %.2f, ampere=%v capping=%v breaker=%v\n",
		s.Rows, s.RowServers, s.Hours, s.RO, s.Ampere, s.Capping, s.Breaker)
	fmt.Fprintf(w, "row budget: %.0f W (rated %.0f W)\n\n", b.BudgetW, b.Rig.Cluster.Spec.RowRatedPowerW())
	from := b.Tracker.IndexAt(sim.Time(b.warmup))
	for r := 0; r < s.Rows; r++ {
		var sum stats.Summary
		for _, v := range b.Tracker.NormPowerSeries(r, from) {
			sum.Add(v)
		}
		fmt.Fprintf(w, "row %d: P mean/max %.3f/%.3f  violations %d/%d  throughput %d\n",
			r, sum.Mean(), sum.Max(), b.Tracker.Violations(r, from), sum.N(),
			b.Tracker.PlacedBetween(r, from, -1))
		if b.Controller != nil {
			st := b.Controller.Stats(r)
			fmt.Fprintf(w, "       ampere: u mean/max %.3f/%.3f freezes %d errors %d\n",
				st.UMean(), st.UMax, st.FreezeOps, st.APIErrors)
		}
		if b.Capper != nil {
			st := b.Capper.Stats(r)
			frac := 0.0
			if st.ServerSamples > 0 {
				frac = float64(st.CappedServerSamples) / float64(st.ServerSamples)
			}
			fmt.Fprintf(w, "       capping: %.1f%% server-intervals capped\n", frac*100)
		}
		if b.Breakers != nil {
			if tripped, at := b.Breakers[r].Tripped(); tripped {
				fmt.Fprintf(w, "       BREAKER OPEN since %v\n", at)
			}
		}
	}
	if b.BudgetChanges > 0 {
		fmt.Fprintf(w, "\nbudget changes applied: %d\n", b.BudgetChanges)
	}
	if b.Trips > 0 {
		fmt.Fprintf(w, "\nbreaker trips: %d\n", b.Trips)
	}
	st := b.Rig.Sched.Stats()
	fmt.Fprintf(w, "\nscheduler: submitted %d placed %d completed %d queued %d killed %d (queue %d)\n",
		st.Submitted, st.Placed, st.Completed, st.Queued, st.Killed, b.Rig.Sched.QueueLen())
	if st.Queued > 0 {
		fmt.Fprintf(w, "queue wait p50/p99: %v / %v over %d waits\n",
			b.Rig.Sched.QueueWaitQuantile(0.5), b.Rig.Sched.QueueWaitQuantile(0.99),
			b.Rig.Sched.QueueWaits())
	}
}
