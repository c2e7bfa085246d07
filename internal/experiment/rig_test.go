package experiment

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestControlledConfigValidation(t *testing.T) {
	bad := []ControlledConfig{
		{RowServers: 0, TargetPowerFrac: 0.9},
		{RowServers: 50, TargetPowerFrac: 0.9}, // not a multiple of 40
		{RowServers: 80, TargetPowerFrac: 0},   // no target
		{RowServers: 80, TargetPowerFrac: 1.2}, // above rated
		{RowServers: 80, TargetPowerFrac: 0.9, RO: -0.1},
	}
	for i, cfg := range bad {
		cfg.Seed = 1
		if _, err := NewControlled(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestControlledGroupsAreStatisticallyIdentical(t *testing.T) {
	// §4.1.2 verification: with Ampere off, the two parity groups must show
	// near-identical mean power and strongly correlated series. The paper
	// reports a mean difference under 0.46% and correlation 0.946 over five
	// days; we check a faster, looser version.
	ctrl, err := NewControlled(ControlledConfig{
		Seed:            42,
		RowServers:      160,
		RestRows:        1,
		TargetPowerFrac: 0.88,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(30 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	// Discard a one-hour warmup; the remaining 29 h span a full diurnal
	// cycle, which carries the shared signal that correlates the groups.
	from := ctrl.Tracker.IndexAt(sim.Time(sim.Hour))
	pe := ctrl.Tracker.PowerSeries(GExp, from)
	pc := ctrl.Tracker.PowerSeries(GCtrl, from)

	var se, sc stats.Summary
	for i := range pe {
		se.Add(pe[i])
		sc.Add(pc[i])
	}
	diff := math.Abs(se.Mean()-sc.Mean()) / sc.Mean()
	if diff > 0.02 {
		t.Errorf("group mean power differs by %.2f%%, want < 2%%", diff*100)
	}
	r, err := stats.Pearson(pe, pc)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.7 {
		t.Errorf("group power correlation %.3f, want strongly correlated", r)
	}

	// Calibration: the control group should sit near the target fraction of
	// its rated power.
	norm := sc.Mean() / ctrl.GroupRatedW
	if math.Abs(norm-0.88) > 0.04 {
		t.Errorf("control group at %.3f of rated, want ≈0.88", norm)
	}
}

func TestScaledBudgets(t *testing.T) {
	both, err := NewControlled(ControlledConfig{
		Seed: 1, RowServers: 80, RestRows: 1, TargetPowerFrac: 0.9,
		RO: 0.25, ScaleCtrlBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(both.ExpBudgetW-both.GroupRatedW/1.25) > 1e-9 {
		t.Errorf("exp budget %v", both.ExpBudgetW)
	}
	if both.CtrlBudgetW != both.ExpBudgetW {
		t.Error("ScaleCtrlBudget did not scale control budget")
	}
	one, err := NewControlled(ControlledConfig{
		Seed: 1, RowServers: 80, RestRows: 1, TargetPowerFrac: 0.9, RO: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if one.CtrlBudgetW != one.GroupRatedW {
		t.Error("control budget should stay at rated power when not scaled")
	}
}

func TestTrackerThroughputAccounting(t *testing.T) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed: 3, RowServers: 80, RestRows: 1, TargetPowerFrac: 0.85,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(2 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	thruE := ctrl.Tracker.PlacedBetween(GExp, 0, -1)
	thruC := ctrl.Tracker.PlacedBetween(GCtrl, 0, -1)
	if thruE == 0 || thruC == 0 {
		t.Fatal("no throughput recorded")
	}
	ratio := float64(thruE) / float64(thruC)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("uncontrolled throughput ratio %.3f, want ≈1", ratio)
	}
	// Increment series sums to the cumulative total.
	incs := ctrl.Tracker.PlacedSeries(GExp, 0)
	var sum int64
	for _, v := range incs {
		sum += v
	}
	if sum != thruE {
		t.Errorf("increment series sums to %d, cumulative %d", sum, thruE)
	}
}

func TestFreezeTopAndUnfreeze(t *testing.T) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed: 5, RowServers: 80, RestRows: 1, TargetPowerFrac: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(30 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	frozen, err := ctrl.FreezeTop(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(frozen) != 10 {
		t.Fatalf("froze %d", len(frozen))
	}
	// All frozen servers are in the experiment group.
	inExp := map[int64]bool{}
	for _, id := range ctrl.Groups.Exp {
		inExp[int64(id)] = true
	}
	for _, id := range frozen {
		if !inExp[int64(id)] {
			t.Errorf("froze non-exp server %d", id)
		}
		if !ctrl.Rig.Cluster.Server(id).Frozen() {
			t.Errorf("server %d not actually frozen", id)
		}
	}
	if err := ctrl.UnfreezeAll(frozen); err != nil {
		t.Fatal(err)
	}
	for _, id := range frozen {
		if ctrl.Rig.Cluster.Server(id).Frozen() {
			t.Errorf("server %d still frozen", id)
		}
	}
}

func TestTrackerProbe(t *testing.T) {
	rigCfg := ControlledConfig{Seed: 7, RowServers: 80, RestRows: 1, TargetPowerFrac: 0.8}
	ctrl, err := NewControlled(rigCfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	ctrl.Tracker.AddProbe("counter", func() float64 { calls++; return float64(calls) })
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	series := ctrl.Tracker.ProbeSeries(0, 0)
	if len(series) != ctrl.Tracker.Samples() || len(series) == 0 {
		t.Fatalf("probe series length %d, samples %d", len(series), ctrl.Tracker.Samples())
	}
	if series[0] != 1 || series[len(series)-1] != float64(len(series)) {
		t.Errorf("probe series %v", series)
	}
}

func TestTrackerValidation(t *testing.T) {
	rig, err := stack.New(stack.Config{
		Seed:     1,
		Cluster:  quickSpec(),
		Products: []workload.Product{workload.DefaultProduct("a", 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTracker(rig, nil); err == nil {
		t.Error("empty group list accepted")
	}
	if _, err := NewTracker(rig, []Group{{Name: "x"}}); err == nil {
		t.Error("empty group accepted")
	}
}

func quickSpec() cluster.Spec {
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 1, 1, 4
	return sp
}

// TestRowWidthNotWholeRacksRejected: row widths that are not a whole number
// of racks are errors. Truncating them would build narrower rows than the
// config names, and index service hosts past the row's end.
func TestRowWidthNotWholeRacksRejected(t *testing.T) {
	gs := QuickGridstorm()
	gs.RowServers = 90
	if _, err := RunGridstorm(gs); err == nil {
		t.Error("gridstorm accepted 90-server rows")
	}
	fs := QuickFig11Scale()
	fs.RowServers, fs.ServicePerRow = 90, 90
	if _, err := RunFig11Scale(fs); err == nil {
		t.Error("fig11scale accepted 90-server rows")
	}
}
