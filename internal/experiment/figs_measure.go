package experiment

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// newMultiRowRig builds a rig with one product per row, each pinned to its
// home row with its own diurnal phase and noise stream — the heterogeneous
// per-row product mix behind the spatial imbalance of Figs 1 and 2.
// targets[r] is row r's steady power as a fraction of rated.
func newMultiRowRig(seed uint64, rows, rowServers int, targets []float64) (*stack.Stack, error) {
	if len(targets) != rows {
		return nil, fmt.Errorf("experiment: %d targets for %d rows", len(targets), rows)
	}
	spec, err := stack.RowSpec(rows, rowServers)
	if err != nil {
		return nil, err
	}
	products := make([]workload.Product, rows)
	weights := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		p := workload.DefaultProduct(fmt.Sprintf("row-%d", r), stack.PerServerRate(spec, targets[r])*float64(rowServers))
		// Distinct phases decorrelate the rows' diurnal components.
		p.PeakHour = float64((r*7)%24) + 0.5
		p.DiurnalAmplitude = 0.08 + 0.04*float64(r%3)
		products[r] = p
		w := make([]float64, rows)
		w[r] = 1
		weights[r] = w
	}
	return stack.New(stack.Config{
		Seed:           seed,
		Cluster:        spec,
		Products:       products,
		ProductWeights: weights,
	})
}

// Fig1Config parameterizes the power-utilization CDF measurement.
type Fig1Config struct {
	Seed       uint64
	Rows       int
	RowServers int
	Warmup     sim.Duration
	Measure    sim.Duration
}

// DefaultFig1 measures 8 rows of 160 servers over two simulated days (the
// paper uses one week on the production fleet).
func DefaultFig1() Fig1Config {
	return Fig1Config{Seed: 1, Rows: 8, RowServers: 160, Warmup: 2 * sim.Hour, Measure: 48 * sim.Hour}
}

// Fig1Result holds the empirical utilization CDFs at the three aggregation
// levels, normalized to provisioned (rated) power.
type Fig1Result struct {
	Rack, Row, DC []stats.CDFPoint
	MeanRack      float64
	MeanRow       float64
	MeanDC        float64
	P99Rack       float64
	P99Row        float64
	P99DC         float64
}

// RunFig1 reproduces Fig 1: the CDF of power utilization at rack, row and
// data-center level. Shape target: higher aggregation levels show tighter
// distributions (statistical multiplexing), so the p99 utilization orders
// rack ≥ row ≥ DC.
func RunFig1(cfg Fig1Config) (*Fig1Result, error) {
	targets := make([]float64, cfg.Rows)
	for r := range targets {
		// Spread the rows from light to hot so the data center shows the
		// paper's wide utilization mix around a ≈0.7 mean.
		targets[r] = 0.62 + 0.16*float64(r)/float64(max(cfg.Rows-1, 1))
	}
	rig, err := newMultiRowRig(cfg.Seed, cfg.Rows, cfg.RowServers, targets)
	if err != nil {
		return nil, err
	}
	rig.Start()
	if err := rig.Run(sim.Time(cfg.Warmup + cfg.Measure)); err != nil {
		return nil, err
	}

	spec := rig.Cluster.Spec
	rackRated := float64(spec.ServersPerRack) * spec.RatedPowerW
	rowRated := spec.RowRatedPowerW()
	dcRated := rowRated * float64(spec.Rows)
	from, to := sim.Time(cfg.Warmup), sim.Time(cfg.Warmup+cfg.Measure)

	var rack, row, dc []float64
	for r := 0; r < spec.Rows; r++ {
		for _, v := range rig.DB.Values(monitor.SeriesRow(r), from, to) {
			row = append(row, v/rowRated)
		}
		for k := 0; k < spec.RacksPerRow; k++ {
			for _, v := range rig.DB.Values(monitor.SeriesRack(r, k), from, to) {
				rack = append(rack, v/rackRated)
			}
		}
	}
	for _, v := range rig.DB.Values(monitor.SeriesDC, from, to) {
		dc = append(dc, v/dcRated)
	}
	res := &Fig1Result{
		Rack: stats.CDF(rack, 200),
		Row:  stats.CDF(row, 200),
		DC:   stats.CDF(dc, 200),
	}
	res.MeanRack, res.MeanRow, res.MeanDC = mean(rack), mean(row), mean(dc)
	res.P99Rack = stats.Percentile(rack, 99)
	res.P99Row = stats.Percentile(row, 99)
	res.P99DC = stats.Percentile(dc, 99)
	return res, nil
}

func mean(xs []float64) float64 {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean()
}

// Fig2Config parameterizes the row-power variation measurement.
type Fig2Config struct {
	Seed       uint64
	Rows       int
	RowServers int
	Warmup     sim.Duration
	// Window is the heatmap span (the paper shows two hours).
	Window sim.Duration
	// CorrSpan is the longer span used for the cross-row correlation claim.
	CorrSpan sim.Duration
}

// DefaultFig2 matches the paper's five rows over two hours.
func DefaultFig2() Fig2Config {
	return Fig2Config{Seed: 2, Rows: 5, RowServers: 160,
		Warmup: 2 * sim.Hour, Window: 2 * sim.Hour, CorrSpan: 24 * sim.Hour}
}

// Fig2Result holds per-row minute-resolution power (normalized to rated) for
// the heatmap window, and the pairwise correlation summary.
type Fig2Result struct {
	// Series[r][m] is row r's normalized power at minute m of the window.
	Series [][]float64
	// Correlations holds the upper-triangle pairwise Pearson coefficients
	// over CorrSpan.
	Correlations []float64
	// FracWeak is the fraction with |r| < 0.33 (the paper reports 80 %
	// of coefficients under 0.33).
	FracWeak float64
}

// RunFig2 reproduces Fig 2: temporal and spatial variation of row power.
func RunFig2(cfg Fig2Config) (*Fig2Result, error) {
	targets := make([]float64, cfg.Rows)
	for r := range targets {
		targets[r] = 0.64 + 0.14*float64(r)/float64(max(cfg.Rows-1, 1))
	}
	rig, err := newMultiRowRig(cfg.Seed, cfg.Rows, cfg.RowServers, targets)
	if err != nil {
		return nil, err
	}
	rig.Start()
	span := cfg.Window
	if cfg.CorrSpan > span {
		span = cfg.CorrSpan
	}
	if err := rig.Run(sim.Time(cfg.Warmup + span)); err != nil {
		return nil, err
	}
	rowRated := rig.Cluster.Spec.RowRatedPowerW()

	res := &Fig2Result{}
	for r := 0; r < cfg.Rows; r++ {
		// Half-open window [Warmup, Warmup+Window): the sample on the end
		// boundary belongs to the next window.
		vals := rig.DB.Values(monitor.SeriesRow(r),
			sim.Time(cfg.Warmup), sim.Time(cfg.Warmup+cfg.Window)-1)
		norm := make([]float64, len(vals))
		for i, v := range vals {
			norm[i] = v / rowRated
		}
		res.Series = append(res.Series, norm)
	}

	// Pairwise correlations of minute deltas over the longer span. The
	// paper correlates the rows' power over time; using first differences
	// removes the shared slow diurnal floor, matching its "weak
	// correlations over time" observation for workload variation.
	long := make([][]float64, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		long[r] = stats.Diffs(rig.DB.Values(monitor.SeriesRow(r),
			sim.Time(cfg.Warmup), sim.Time(cfg.Warmup+cfg.CorrSpan)))
	}
	weak := 0
	for i := 0; i < cfg.Rows; i++ {
		for j := i + 1; j < cfg.Rows; j++ {
			c, err := stats.Pearson(long[i], long[j])
			if err != nil {
				return nil, err
			}
			res.Correlations = append(res.Correlations, c)
			if c < 0.33 && c > -0.33 {
				weak++
			}
		}
	}
	if len(res.Correlations) > 0 {
		res.FracWeak = float64(weak) / float64(len(res.Correlations))
	}
	return res, nil
}

// Fig4Config parameterizes the freeze power-decay measurement.
type Fig4Config struct {
	Seed       uint64
	RowServers int
	// FreezeCount servers with the highest power are frozen (the paper
	// freezes "about 80 servers with relatively high power utilization").
	FreezeCount int
	Warmup      sim.Duration
	Observe     sim.Duration
}

// DefaultFig4 freezes 80 of 400 servers and watches 50 minutes, as in the
// paper.
func DefaultFig4() Fig4Config {
	return Fig4Config{Seed: 4, RowServers: 400, FreezeCount: 80,
		Warmup: 90 * sim.Minute, Observe: 50 * sim.Minute}
}

// Fig4Result is the per-minute mean power of the frozen set, normalized to
// rated power, starting at the freeze instant.
type Fig4Result struct {
	Series []float64
	// MinutesTo90 is the time until the excess power (above the final
	// plateau) decayed by 90 % — the paper's ≈35 minutes to "close to the
	// idle power".
	MinutesTo90 int
	IdleFrac    float64
}

// RunFig4 reproduces Fig 4: power drops over time when servers are frozen.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed:            cfg.Seed,
		RowServers:      cfg.RowServers,
		RestRows:        2,
		TargetPowerFrac: 0.80,
	})
	if err != nil {
		return nil, err
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(cfg.Warmup)); err != nil {
		return nil, err
	}
	frozen, err := ctrl.FreezeTop(cfg.FreezeCount)
	if err != nil {
		return nil, err
	}
	rated := ctrl.Rig.Cluster.Spec.RatedPowerW
	res := &Fig4Result{IdleFrac: ctrl.Rig.Cluster.Spec.IdlePowerW / rated}
	record := func() {
		p, ok := ctrl.Rig.Mon.GroupPower(frozen)
		if !ok {
			return
		}
		res.Series = append(res.Series, p/(float64(len(frozen))*rated))
	}
	record() // minute 0, just after the freeze
	minutes := int(cfg.Observe / sim.Minute)
	for m := 1; m <= minutes; m++ {
		if err := ctrl.Rig.Run(sim.Time(cfg.Warmup) + sim.Time(m)*sim.Time(sim.Minute)); err != nil {
			return nil, err
		}
		record()
	}
	// Decay time: first minute where the excess over the final value has
	// dropped by 90 %.
	start, final := res.Series[0], res.Series[len(res.Series)-1]
	res.MinutesTo90 = minutes
	for m, v := range res.Series {
		if v <= final+(start-final)*0.1 {
			res.MinutesTo90 = m
			break
		}
	}
	return res, nil
}

// Fig7Result is the batch-job duration CDF.
type Fig7Result struct {
	CDF         []stats.CDFPoint
	MeanMinutes float64
	FracWithin2 float64
}

// RunFig7 reproduces Fig 7 from the duration sampler directly.
func RunFig7(seed uint64, samples int) *Fig7Result {
	dd := workload.DefaultDurations()
	r := sim.NewRNG(seed)
	vals := make([]float64, samples)
	within2 := 0
	var sum float64
	for i := range vals {
		m := dd.Sample(r).Minutes()
		vals[i] = m
		sum += m
		if m <= 2 {
			within2++
		}
	}
	return &Fig7Result{
		CDF:         stats.CDF(vals, 200),
		MeanMinutes: sum / float64(samples),
		FracWithin2: float64(within2) / float64(samples),
	}
}

// Fig8Config parameterizes the 24-hour row-power trace.
type Fig8Config struct {
	Seed       uint64
	RowServers int
	Warmup     sim.Duration
}

// DefaultFig8 uses a 400-server row as in the production measurement.
func DefaultFig8() Fig8Config {
	return Fig8Config{Seed: 8, RowServers: 400, Warmup: 2 * sim.Hour}
}

// Fig8Result is the minute-resolution row power over 24 h, normalized to the
// maximum observed value as in the paper.
type Fig8Result struct {
	Series []float64
	// HourlySwing is max(hourly means) − min(hourly means): the large-scale
	// variation the paper highlights.
	HourlySwing float64
}

// RunFig8 reproduces Fig 8.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed:            cfg.Seed,
		RowServers:      cfg.RowServers,
		RestRows:        1,
		TargetPowerFrac: 0.74,
	})
	if err != nil {
		return nil, err
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(cfg.Warmup + 24*sim.Hour)); err != nil {
		return nil, err
	}
	vals := ctrl.Rig.DB.Values(monitor.SeriesRow(0),
		sim.Time(cfg.Warmup), sim.Time(cfg.Warmup+24*sim.Hour)-1)
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	res := &Fig8Result{Series: make([]float64, len(vals))}
	for i, v := range vals {
		res.Series[i] = v / maxV
	}
	// Hourly means.
	loSwing, hiSwing := 2.0, 0.0
	for h := 0; h+60 <= len(res.Series); h += 60 {
		m := mean(res.Series[h : h+60])
		if m < loSwing {
			loSwing = m
		}
		if m > hiSwing {
			hiSwing = m
		}
	}
	res.HourlySwing = hiSwing - loSwing
	return res, nil
}

// Fig9Config parameterizes the power-change CDF measurement.
type Fig9Config struct {
	Seed       uint64
	RowServers int
	Warmup     sim.Duration
	Measure    sim.Duration
}

// DefaultFig9 measures a 400-server uncontrolled group over 24 h.
func DefaultFig9() Fig9Config {
	return Fig9Config{Seed: 9, RowServers: 400, Warmup: 2 * sim.Hour, Measure: 24 * sim.Hour}
}

// Fig9Result holds the CDFs of normalized power changes at the paper's four
// time scales.
type Fig9Result struct {
	// Scales maps window minutes (1, 5, 20, 60) to the CDF of first-order
	// differences of the per-window maximum power, normalized to the
	// provisioned budget.
	Scales map[int][]stats.CDFPoint
	// P99Abs1Min is the 99th percentile of |Δ| at the 1-minute scale (the
	// paper: ≤ ±2.5 % for 99 % of the time).
	P99Abs1Min float64
	// MaxAbs1Min is the largest observed 1-minute change (paper: ≈ 10 %).
	MaxAbs1Min float64
}

// RunFig9 reproduces Fig 9 on the uncontrolled control group.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed:            cfg.Seed,
		RowServers:      cfg.RowServers,
		RestRows:        1,
		TargetPowerFrac: 0.74,
	})
	if err != nil {
		return nil, err
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(cfg.Warmup + cfg.Measure)); err != nil {
		return nil, err
	}
	from := ctrl.Tracker.IndexAt(sim.Time(cfg.Warmup))
	series := ctrl.Tracker.NormPowerSeries(GCtrl, from)

	res := &Fig9Result{Scales: map[int][]stats.CDFPoint{}}
	for _, w := range []int{1, 5, 20, 60} {
		reduced := series
		if w > 1 {
			reduced = stats.WindowMax(series, w)
		}
		res.Scales[w] = stats.CDF(stats.Diffs(reduced), 200)
	}
	d1 := stats.Diffs(series)
	abs := make([]float64, len(d1))
	for i, v := range d1 {
		if v < 0 {
			v = -v
		}
		abs[i] = v
	}
	res.P99Abs1Min = stats.Percentile(abs, 99)
	res.MaxAbs1Min = stats.Percentile(abs, 100)
	return res, nil
}
