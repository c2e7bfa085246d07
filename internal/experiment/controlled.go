package experiment

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stack"
	"repro/internal/workload"
)

// ControlledConfig describes a §4.1.2 controlled experiment: one experiment
// row whose servers are parity-split into experiment and control groups,
// plus "rest of data center" rows that absorb displaced jobs — in the
// paper's production deployment the row is a small slice of a
// datacenter-wide scheduling pool, so jobs driven away from frozen servers
// scatter outside the row rather than contaminating the sibling group.
type ControlledConfig struct {
	Seed uint64
	// RowServers is the experiment row size (the paper's row has 400+).
	RowServers int
	// RestRows is the number of identical rest-of-DC rows (default 2).
	RestRows int
	// TargetPowerFrac steers the uncontrolled (control group) power to this
	// fraction of rated power: the workload knob ("light" ≈ 0.86, "heavy"
	// ≈ 0.97 of the scaled budget).
	TargetPowerFrac float64
	// RO is the over-provisioning ratio; group budgets are emulated as
	// rated/(1+RO) per Eq. 16.
	RO float64
	// ScaleCtrlBudget also scales the control group's budget (the §4.2
	// setup); otherwise only the experiment group's budget is scaled (the
	// §4.4 setup) and the control group's is its rated power.
	ScaleCtrlBudget bool
	// DiurnalAmplitude overrides the workload's daily swing (default 0.35).
	DiurnalAmplitude float64
	// PeakHour overrides the hour of day at which load peaks (default 14).
	PeakHour float64
	// DiurnalPeriodHours overrides the load sinusoid's period (default 24).
	DiurnalPeriodHours float64
	// MonitorDropRate injects monitor sweep failures (resilience tests).
	MonitorDropRate float64
	// RatedJitter introduces per-server rated/idle power variance
	// (cluster.Spec.RatedJitterFrac).
	RatedJitter float64
}

// Controlled is an assembled controlled experiment.
type Controlled struct {
	Rig     *stack.Stack
	Groups  Groups
	Tracker *Tracker
	// ExpBudgetW and CtrlBudgetW are the (possibly scaled) group budgets.
	ExpBudgetW  float64
	CtrlBudgetW float64
	// GroupRatedW is the unscaled rated power of each group (they are the
	// same size by construction).
	GroupRatedW float64
}

// Indices of the tracked groups.
const (
	GExp  = 0
	GCtrl = 1
)

// NewControlled assembles the rig: experiment row plus rest rows, a single
// uniform product calibrated to TargetPowerFrac, parity groups, and a
// tracker with scaled budgets.
func NewControlled(cfg ControlledConfig) (*Controlled, error) {
	if cfg.RowServers <= 0 || cfg.RowServers%40 != 0 {
		return nil, fmt.Errorf("experiment: RowServers %d must be a positive multiple of 40", cfg.RowServers)
	}
	if cfg.TargetPowerFrac <= 0 || cfg.TargetPowerFrac > 1 {
		return nil, fmt.Errorf("experiment: TargetPowerFrac %v outside (0,1]", cfg.TargetPowerFrac)
	}
	if cfg.RO < 0 {
		return nil, fmt.Errorf("experiment: negative over-provisioning ratio %v", cfg.RO)
	}
	if cfg.RestRows == 0 {
		cfg.RestRows = 2
	}

	spec, err := stack.RowSpec(1+cfg.RestRows, cfg.RowServers)
	if err != nil {
		return nil, err
	}
	spec.RatedJitterFrac = cfg.RatedJitter
	total := stack.PerServerRate(spec, cfg.TargetPowerFrac) * float64(spec.TotalServers())

	product := workload.DefaultProduct("mixed", total)
	// Milder surges than the generator default: the paper's controlled row
	// sees 1-minute power changes within ±2.5 % for 99 % of minutes
	// (Fig 9); violent surges would not be preventable by any controller
	// acting at 1-minute granularity.
	product.SurgeProb = 0.003
	product.SurgeMinMult = 1.2
	product.SurgeMaxMult = 1.8
	product.SurgeMaxMinutes = 6
	// The production rows swing hard over a day (Fig 8 spans ≈ 25 % of
	// peak); the compressed idle-to-rated power band means utilization has
	// to swing much more than power, hence the large default amplitude.
	product.DiurnalAmplitude = 0.35
	if cfg.DiurnalAmplitude > 0 {
		product.DiurnalAmplitude = cfg.DiurnalAmplitude
	}
	if cfg.PeakHour > 0 {
		product.PeakHour = cfg.PeakHour
	}
	if cfg.DiurnalPeriodHours > 0 {
		product.PeriodHours = cfg.DiurnalPeriodHours
	}

	rig, err := stack.New(stack.Config{
		Seed:            cfg.Seed,
		Cluster:         spec,
		Products:        []workload.Product{product},
		MonitorDropRate: cfg.MonitorDropRate,
	})
	if err != nil {
		return nil, err
	}

	groups := SplitByParity(rig.Cluster.Row(0))
	groupRated := float64(len(groups.Exp)) * spec.RatedPowerW
	expBudget := groupRated / (1 + cfg.RO)
	ctrlBudget := groupRated
	if cfg.ScaleCtrlBudget {
		ctrlBudget = groupRated / (1 + cfg.RO)
	}

	tracker, err := NewTracker(rig, []Group{
		{Name: "exp", IDs: groups.Exp, BudgetW: expBudget},
		{Name: "ctrl", IDs: groups.Ctrl, BudgetW: ctrlBudget},
	})
	if err != nil {
		return nil, err
	}
	return &Controlled{
		Rig:         rig,
		Groups:      groups,
		Tracker:     tracker,
		ExpBudgetW:  expBudget,
		CtrlBudgetW: ctrlBudget,
		GroupRatedW: groupRated,
	}, nil
}

// AmpereDomain builds the controller domain for the experiment group.
func (c *Controlled) AmpereDomain(kr float64, et core.EtEstimator) core.Domain {
	return core.Domain{
		Name:    "exp-group",
		Servers: c.Groups.Exp,
		BudgetW: c.ExpBudgetW,
		Kr:      kr,
		Et:      et,
	}
}

// FreezeTop freezes the k hottest experiment-group servers by the monitor's
// latest samples, returning the frozen IDs; used by the Fig 4/Fig 5
// calibration procedures (manual control, no Ampere).
func (c *Controlled) FreezeTop(k int) ([]cluster.ServerID, error) {
	ranked := append([]cluster.ServerID(nil), c.Groups.Exp...)
	power := func(id cluster.ServerID) float64 {
		p, ok := c.Rig.Mon.ServerPower(id)
		if !ok {
			return -1
		}
		return p
	}
	sortIDsByPowerDesc(ranked, power)
	if k > len(ranked) {
		k = len(ranked)
	}
	frozen := make([]cluster.ServerID, 0, k)
	for _, id := range ranked[:k] {
		if err := c.Rig.Sched.Freeze(id); err != nil {
			return frozen, err
		}
		frozen = append(frozen, id)
	}
	return frozen, nil
}

// UnfreezeAll releases the given servers.
func (c *Controlled) UnfreezeAll(ids []cluster.ServerID) error {
	for _, id := range ids {
		if err := c.Rig.Sched.Unfreeze(id); err != nil {
			return err
		}
	}
	return nil
}

func sortIDsByPowerDesc(ids []cluster.ServerID, power func(cluster.ServerID) float64) {
	sort.Slice(ids, func(i, j int) bool {
		pa, pb := power(ids[i]), power(ids[j])
		if pa != pb {
			return pa > pb
		}
		return ids[i] < ids[j]
	})
}
