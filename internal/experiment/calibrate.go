package experiment

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DefaultKr aliases core.DefaultConfig's calibrated control-effect
// gradient, the one every domain with Kr == 0 gets. The end-to-end
// benchmark (perfbench) names it explicitly.
var DefaultKr = core.DefaultConfig().DefaultKr

// Fig5Config parameterizes the f(u) identification experiment of §3.4.
type Fig5Config struct {
	Seed       uint64
	RowServers int
	// RO sets the over-provisioning emulation during calibration; f(u) is
	// rO-dependent, so calibrate at the ratio you will operate at.
	RO float64
	// TargetPowerFrac steers the load (fraction of rated).
	TargetPowerFrac float64
	Warmup          sim.Duration
	// URatios to sweep; defaults to 0.05 … 0.60 step 0.05.
	URatios []float64
	// Cycles of the full sweep (each u measured Cycles × FreezeMinutes
	// times).
	Cycles int
	// FreezeMinutes and RecoverMinutes shape each pulse: freeze the ratio
	// for FreezeMinutes (one f sample per minute), then release and let the
	// groups re-equalize.
	FreezeMinutes, RecoverMinutes int
}

// DefaultFig5 sweeps twelve ratios for two cycles over ≈ 7 simulated hours.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Seed:            5,
		RowServers:      400,
		RO:              0.25,
		TargetPowerFrac: 0.74,
		Warmup:          90 * sim.Minute,
		Cycles:          2,
		FreezeMinutes:   3,
		RecoverMinutes:  12,
	}
}

// Fig5Band is one plotted u with the quartiles of its f(u) samples.
type Fig5Band struct {
	U             float64
	P25, P50, P75 float64
	N             int
}

// Fig5Result is the measured control-effect curve and its linear fit.
type Fig5Result struct {
	Samples []core.ControlSample
	Bands   []Fig5Band
	Kr      float64
	R2      float64
}

// RunFig5 reproduces Fig 5: the effect of the freezing ratio u on the
// one-minute power change f(u), measured by pulsed controlled experiments —
// freeze the top-power fraction u of the experiment group, record the
// per-minute divergence between the control and experiment groups, release,
// recover, repeat across the sweep. The linear fit of the samples is the
// controller's kr.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	if cfg.Cycles < 1 {
		return nil, fmt.Errorf("experiment: fig5 needs at least one cycle")
	}
	if cfg.FreezeMinutes < 1 || cfg.RecoverMinutes < 1 {
		return nil, fmt.Errorf("experiment: fig5 pulse shape invalid")
	}
	us := cfg.URatios
	if us == nil {
		for u := 0.05; u <= 0.601; u += 0.05 {
			us = append(us, u)
		}
	}
	ctrl, err := NewControlled(ControlledConfig{
		Seed:            cfg.Seed,
		RowServers:      cfg.RowServers,
		RestRows:        2,
		TargetPowerFrac: cfg.TargetPowerFrac,
		RO:              cfg.RO,
		ScaleCtrlBudget: true,
	})
	if err != nil {
		return nil, err
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(cfg.Warmup)); err != nil {
		return nil, err
	}

	budget := ctrl.ExpBudgetW
	nExp := len(ctrl.Groups.Exp)
	res := &Fig5Result{}
	perU := map[float64][]float64{}

	// diffAt returns (PC − PE)/budget at sample index i.
	diffAt := func(i int) float64 {
		return (ctrl.Tracker.PowerSeries(GCtrl, 0)[i] - ctrl.Tracker.PowerSeries(GExp, 0)[i]) / budget
	}

	runMinutes := func(m int) error {
		target := ctrl.Rig.Eng.Now().Add(sim.Duration(m) * sim.Minute)
		return ctrl.Rig.Run(target)
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		for _, u := range us {
			k := int(u * float64(nExp))
			if k == 0 {
				continue
			}
			// Freeze immediately after a monitor sweep so the next samples
			// reflect whole controlled minutes.
			before := ctrl.Tracker.Samples() - 1
			frozen, err := ctrl.FreezeTop(k)
			if err != nil {
				return nil, err
			}
			if err := runMinutes(cfg.FreezeMinutes); err != nil {
				return nil, err
			}
			// One f sample per controlled minute: the growth of the
			// control-minus-experiment gap.
			for i := before + 1; i < ctrl.Tracker.Samples(); i++ {
				f := diffAt(i) - diffAt(i-1)
				s := core.ControlSample{U: float64(len(frozen)) / float64(nExp), FU: f}
				res.Samples = append(res.Samples, s)
				perU[s.U] = append(perU[s.U], f)
			}
			if err := ctrl.UnfreezeAll(frozen); err != nil {
				return nil, err
			}
			if err := runMinutes(cfg.RecoverMinutes); err != nil {
				return nil, err
			}
		}
	}

	keys := make([]float64, 0, len(perU))
	for u := range perU {
		keys = append(keys, u)
	}
	sort.Float64s(keys)
	for _, u := range keys {
		fs := perU[u]
		res.Bands = append(res.Bands, Fig5Band{
			U:   u,
			P25: stats.Percentile(fs, 25),
			P50: stats.Percentile(fs, 50),
			P75: stats.Percentile(fs, 75),
			N:   len(fs),
		})
	}
	fit, err := core.FitKr(res.Samples)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig5 fit failed: %w", err)
	}
	res.Kr = fit.Slope
	res.R2 = fit.R2
	return res, nil
}

// TrainEtFromSeries builds an HourlyEt estimator from a normalized power
// series sampled once per minute starting at start — the paper's offline
// data collection ("we monitor the power of all rows … for a long time").
func TrainEtFromSeries(series []float64, start sim.Time, percentile, def float64) (*core.HourlyEt, error) {
	h, err := core.NewHourlyEt(percentile, def, 20)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(series); i++ {
		at := start.Add(sim.Duration(i-1) * sim.Minute)
		h.Add(at, series[i]-series[i-1])
	}
	return h, nil
}
