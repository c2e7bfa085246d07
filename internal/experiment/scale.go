package experiment

import (
	"fmt"
	"io"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The paper runs Ampere on a production fleet of "more than one hundred
// thousand servers" (§1) while the reproduction's experiments use one to a
// handful of 400-server rows. This experiment closes that gap on the
// substrate: it replays the same per-server workload intensity at growing
// fleet sizes (weak scaling) and reports per-size invariants — mean
// utilization and per-server placement throughput must stay flat as rows
// are added, or the substrate has an accidental super-linear path.

// ScaleConfig shapes the weak-scaling sweep.
type ScaleConfig struct {
	Seed uint64
	// RowCounts are the fleet sizes, in default 400-server rows.
	RowCounts []int
	// TargetFrac is the per-server workload intensity (fraction of rated
	// power) held constant across sizes — the definition of weak scaling.
	TargetFrac float64
	Warmup     sim.Duration
	Measure    sim.Duration
}

// DefaultScale sweeps one row, 10k and 100k servers.
func DefaultScale() ScaleConfig {
	return ScaleConfig{Seed: 99, RowCounts: []int{1, 25, 250}, TargetFrac: 0.70,
		Warmup: 30 * sim.Minute, Measure: 90 * sim.Minute}
}

// ScaleRow is one fleet size's outcome. All fields except WallSeconds are
// deterministic at a fixed seed; WallSeconds is wall-clock progress data and
// is excluded from FormatScale so experiment stdout stays byte-identical
// (DESIGN.md §7 — wall-clock belongs in progress reporting, never results).
type ScaleRow struct {
	Rows    int
	Servers int
	// Sweeps is the number of monitor samples landed in the measure window.
	Sweeps int
	// Placed / Completed count jobs inside the measure window only.
	Placed    int64
	Completed int64
	// MeanUtil is the measure-window mean data-center power as a fraction
	// of rated.
	MeanUtil float64
	// PlacedPerServer normalizes throughput for the weak-scaling check.
	PlacedPerServer float64
	// WallSeconds is the real time the measure window took to simulate.
	WallSeconds float64
}

// RunScale runs the sweep. Sizes run serially on purpose: each size's
// WallSeconds is only meaningful when the run has the machine to itself, so
// this experiment ignores any -parallel fan-out.
func RunScale(cfg ScaleConfig) ([]ScaleRow, error) {
	if len(cfg.RowCounts) == 0 {
		return nil, fmt.Errorf("experiment: scale sweep needs at least one size")
	}
	out := make([]ScaleRow, 0, len(cfg.RowCounts))
	for _, rows := range cfg.RowCounts {
		row, err := runScaleOnce(cfg, rows)
		if err != nil {
			return nil, fmt.Errorf("scale %d rows: %w", rows, err)
		}
		out = append(out, *row)
	}
	return out, nil
}

func runScaleOnce(cfg ScaleConfig, rows int) (*ScaleRow, error) {
	if rows < 1 {
		return nil, fmt.Errorf("experiment: row count must be ≥1")
	}
	spec, err := stack.RowSpec(rows, 400)
	if err != nil {
		return nil, err
	}
	prod := workload.DefaultProduct("shared", stack.PerServerRate(spec, cfg.TargetFrac)*float64(spec.TotalServers()))

	rig, err := stack.New(stack.Config{Seed: cfg.Seed, Cluster: spec, Products: []workload.Product{prod}})
	if err != nil {
		return nil, err
	}
	rig.Start()
	if err := rig.Run(sim.Time(cfg.Warmup)); err != nil {
		return nil, err
	}
	atWarmup := rig.Sched.Stats()
	wallStart := time.Now()
	if err := rig.Run(sim.Time(cfg.Warmup + cfg.Measure)); err != nil {
		return nil, err
	}
	wall := time.Since(wallStart).Seconds()
	st := rig.Sched.Stats()

	// Mean DC utilization over the measure window, from the per-row series
	// the monitor maintained incrementally.
	from, to := sim.Time(cfg.Warmup), sim.Time(cfg.Warmup+cfg.Measure)-1
	series := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		series[r] = rig.DB.Values(monitor.SeriesRow(r), from, to)
	}
	var util stats.Summary
	ratedDC := spec.RowRatedPowerW() * float64(rows)
	for i := range series[0] {
		dc := 0.0
		for r := 0; r < rows; r++ {
			dc += series[r][i]
		}
		util.Add(dc / ratedDC)
	}

	placed := st.Placed - atWarmup.Placed
	return &ScaleRow{
		Rows:            rows,
		Servers:         spec.TotalServers(),
		Sweeps:          len(series[0]),
		Placed:          placed,
		Completed:       st.Completed - atWarmup.Completed,
		MeanUtil:        util.Mean(),
		PlacedPerServer: float64(placed) / float64(spec.TotalServers()),
		WallSeconds:     wall,
	}, nil
}

// FormatScale renders the deterministic columns only (no wall-clock).
func FormatScale(w io.Writer, rows []ScaleRow) {
	fmt.Fprintf(w, "Weak scaling: constant per-server load, growing fleet\n")
	fmt.Fprintf(w, "  %8s %6s %7s %10s %10s %10s %14s\n",
		"servers", "rows", "sweeps", "placed", "completed", "mean util", "placed/server")
	for _, r := range rows {
		fmt.Fprintf(w, "  %8d %6d %7d %10d %10d %10.4f %14.3f\n",
			r.Servers, r.Rows, r.Sweeps, r.Placed, r.Completed, r.MeanUtil, r.PlacedPerServer)
	}
	fmt.Fprintf(w, "  (weak-scaling invariant: mean util and placed/server stay flat across sizes)\n")
}

// FormatScaleTiming renders the wall-clock half — write it to stderr, never
// into experiment stdout.
func FormatScaleTiming(w io.Writer, rows []ScaleRow, measure sim.Duration) {
	simMinutes := float64(measure) / float64(sim.Minute)
	for _, r := range rows {
		fmt.Fprintf(w, "  [scale %d servers: %.1fs wall for %.0f sim-min, %.3f µs/(server·sim-min)]\n",
			r.Servers, r.WallSeconds, simMinutes,
			r.WallSeconds*1e6/(float64(r.Servers)*simMinutes))
	}
}
