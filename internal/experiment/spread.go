package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The paper's future work (§6): "scheduling the jobs to different rows so
// that there can be a larger variance in power utilization across different
// rows, leading to more unused power to cultivate. Note that even with the
// improvement, we can still use the simple interface of Ampere." This
// experiment quantifies the claim by running the same workload under three
// row-selection policies and measuring how much row-level power headroom
// each leaves for over-provisioning.

// SpreadConfig shapes the comparison.
type SpreadConfig struct {
	Seed       uint64
	Rows       int
	RowServers int
	// TargetFrac is the data-center-wide mean power target (fraction of
	// rated); keep well under 1 so concentration has somewhere to pack.
	TargetFrac float64
	Warmup     sim.Duration
	Measure    sim.Duration
	// Parallel fans the chooser variants out on that many workers (0 or 1
	// = serial); each builds its own rig, so results are order-independent.
	Parallel int
}

// DefaultSpread compares on 4 rows of 160 servers over a day.
func DefaultSpread() SpreadConfig {
	return SpreadConfig{Seed: 77, Rows: 4, RowServers: 160, TargetFrac: 0.70,
		Warmup: 2 * sim.Hour, Measure: 24 * sim.Hour}
}

// SpreadOutcome summarizes one policy's run.
type SpreadOutcome struct {
	Policy string
	// CrossRowStd is the time-averaged standard deviation of row power,
	// normalized to row rated power: the variance the future work wants to
	// increase.
	CrossRowStd float64
	// HeadroomFrac is Σ_rows max(0, rated − p99.5(row power)) normalized by
	// total rated power. Measurement insight: this total is nearly
	// invariant across choosers — power is conserved, so shaping placement
	// moves headroom around rather than creating it.
	HeadroomFrac float64
	// IdleRows counts rows whose p99.5 power stays within 10 % of the
	// active span above idle: rows made *reliably* cold. This is where the
	// variance pays off — concentrated unused power comes in whole-row
	// units that can host dense over-provisioning (or be consolidated and
	// slept, as in the PowerNap line of work the paper cites), unlike the
	// same wattage smeared thinly across warm rows.
	IdleRows int
	// Throughput checks the shaping did not cost capacity.
	Throughput int64
}

// RunSpread runs the comparison for the default proportional chooser, the
// balancing chooser, and the concentrating chooser.
func RunSpread(cfg SpreadConfig) ([]SpreadOutcome, error) {
	choosers := []struct {
		name string
		rc   scheduler.RowChooser
	}{
		{"proportional", nil},
		{"balance-rows", scheduler.BalanceRows{}},
		{"concentrate-rows", scheduler.ConcentrateRows{}},
	}
	names := make([]string, len(choosers))
	for i, ch := range choosers {
		names[i] = ch.name
	}
	return runUnits(cfg.Parallel, names, func(i int) (SpreadOutcome, error) {
		ch := choosers[i]
		o, err := runSpreadOnce(cfg, ch.name, ch.rc)
		if err != nil {
			return SpreadOutcome{}, fmt.Errorf("spread %s: %w", ch.name, err)
		}
		return *o, nil
	})
}

func runSpreadOnce(cfg SpreadConfig, name string, rc scheduler.RowChooser) (*SpreadOutcome, error) {
	if cfg.Rows < 2 {
		return nil, fmt.Errorf("experiment: spreading needs ≥2 rows")
	}
	spec, err := stack.RowSpec(cfg.Rows, cfg.RowServers)
	if err != nil {
		return nil, err
	}
	prod := workload.DefaultProduct("shared", stack.PerServerRate(spec, cfg.TargetFrac)*float64(spec.TotalServers()))

	rig, err := stack.New(stack.Config{Seed: cfg.Seed, Cluster: spec, Products: []workload.Product{prod}})
	if err != nil {
		return nil, err
	}
	if rc != nil {
		rig.Sched.SetRowChooser(rc)
	}
	rig.Start()
	if err := rig.Run(sim.Time(cfg.Warmup + cfg.Measure)); err != nil {
		return nil, err
	}

	rowRated := spec.RowRatedPowerW()
	from, to := sim.Time(cfg.Warmup), sim.Time(cfg.Warmup+cfg.Measure)-1
	series := make([][]float64, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		series[r] = rig.DB.Values(monitor.SeriesRow(r), from, to)
	}
	n := len(series[0])
	var stdAcc stats.Summary
	for i := 0; i < n; i++ {
		var s stats.Summary
		for r := 0; r < cfg.Rows; r++ {
			s.Add(series[r][i] / rowRated)
		}
		// Population std across rows at minute i.
		stdAcc.Add(s.StdDev() * math.Sqrt(float64(cfg.Rows-1)/float64(cfg.Rows)))
	}

	headroomW := 0.0
	idleRows := 0
	idleCut := (spec.IdlePowerW + 0.1*(spec.RatedPowerW-spec.IdlePowerW)) * float64(spec.ServersPerRow())
	for r := 0; r < cfg.Rows; r++ {
		p995 := stats.Percentile(series[r], 99.5)
		if h := rowRated - p995; h > 0 {
			headroomW += h
		}
		if p995 <= idleCut {
			idleRows++
		}
	}
	return &SpreadOutcome{
		Policy:       name,
		CrossRowStd:  stdAcc.Mean(),
		HeadroomFrac: headroomW / (rowRated * float64(cfg.Rows)),
		IdleRows:     idleRows,
		Throughput:   rig.Sched.Stats().Completed,
	}, nil
}

// FormatSpread renders the comparison.
func FormatSpread(w io.Writer, rows []SpreadOutcome) {
	fmt.Fprintf(w, "Future work (§6): cross-row power variance shaping\n")
	fmt.Fprintf(w, "  %-18s %14s %12s %12s %12s\n",
		"row chooser", "cross-row std", "headroom", "idle rows", "throughput")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %14.4f %11.1f%% %12d %12d\n",
			r.Policy, r.CrossRowStd, r.HeadroomFrac*100, r.IdleRows, r.Throughput)
	}
	fmt.Fprintf(w, "  (total headroom is conserved; variance localizes it into whole idle rows)\n")
}
