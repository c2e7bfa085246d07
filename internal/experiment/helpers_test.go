package experiment

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestSplitByParity(t *testing.T) {
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 2, 1, 10
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := SplitByParity(c.Row(0))
	if len(g.Exp) != 5 || len(g.Ctrl) != 5 {
		t.Fatalf("split sizes %d/%d", len(g.Exp), len(g.Ctrl))
	}
	for _, id := range g.Exp {
		if id%2 != 0 {
			t.Errorf("odd id %d in experiment group", id)
		}
	}
	for _, id := range g.Ctrl {
		if id%2 != 1 {
			t.Errorf("even id %d in control group", id)
		}
	}
	// Disjoint and covering.
	seen := map[cluster.ServerID]bool{}
	for _, id := range append(append([]cluster.ServerID{}, g.Exp...), g.Ctrl...) {
		if seen[id] {
			t.Fatalf("id %d in both groups", id)
		}
		seen[id] = true
	}
	if len(seen) != 10 {
		t.Errorf("split covers %d of 10", len(seen))
	}
}

func TestTrackerIndexAt(t *testing.T) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed: 2, RowServers: 40, RestRows: 1, TargetPowerFrac: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	tr := ctrl.Tracker
	if got := tr.IndexAt(0); got != 0 {
		t.Errorf("IndexAt(0) = %d", got)
	}
	if got := tr.IndexAt(sim.Time(5 * sim.Minute)); got != 5 {
		t.Errorf("IndexAt(5m) = %d", got)
	}
	// Between samples: the next sample's index.
	if got := tr.IndexAt(sim.Time(4*sim.Minute + 30*sim.Second)); got != 5 {
		t.Errorf("IndexAt(4m30s) = %d", got)
	}
	// Beyond the end: length.
	if got := tr.IndexAt(sim.Time(sim.Hour)); got != tr.Samples() {
		t.Errorf("IndexAt(1h) = %d, want %d", got, tr.Samples())
	}
	// Times are minute-aligned and increasing.
	times := tr.Times()
	for i := 1; i < len(times); i++ {
		if times[i].Sub(times[i-1]) != sim.Minute {
			t.Fatalf("irregular sample spacing at %d", i)
		}
	}
}

func TestIndexAtEdgeCases(t *testing.T) {
	// Empty tracker: no samples, every query returns 0 == Samples().
	empty := &Tracker{}
	if got := empty.IndexAt(0); got != 0 {
		t.Errorf("empty IndexAt(0) = %d", got)
	}
	if got := empty.IndexAt(sim.Time(sim.Hour)); got != 0 {
		t.Errorf("empty IndexAt(1h) = %d", got)
	}

	// Synthetic sample times starting after t=0: before-first must clamp to
	// index 0, after-last to the length, exact hits to their own index.
	tr := &Tracker{times: []sim.Time{
		sim.Time(10 * sim.Minute), sim.Time(11 * sim.Minute), sim.Time(12 * sim.Minute),
	}}
	if got := tr.IndexAt(0); got != 0 {
		t.Errorf("before-first IndexAt(0) = %d", got)
	}
	if got := tr.IndexAt(sim.Time(10 * sim.Minute)); got != 0 {
		t.Errorf("exact first IndexAt = %d", got)
	}
	if got := tr.IndexAt(sim.Time(10*sim.Minute + 1)); got != 1 {
		t.Errorf("between IndexAt = %d", got)
	}
	if got := tr.IndexAt(sim.Time(12 * sim.Minute)); got != 2 {
		t.Errorf("exact last IndexAt = %d", got)
	}
	if got := tr.IndexAt(sim.Time(12*sim.Minute + 1)); got != 3 {
		t.Errorf("after-last IndexAt = %d, want %d", got, len(tr.times))
	}
}

func TestNormPowerSeriesZeroBudget(t *testing.T) {
	// Regression: a group with no enforced budget (BudgetW 0, like the
	// uncontrolled groups of the §4.4 setup before scaling) must yield a
	// zeroed normalized series, never +Inf/NaN.
	ctrl, err := NewControlled(ControlledConfig{
		Seed: 5, RowServers: 40, RestRows: 1, TargetPowerFrac: 0.75,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Force the no-budget condition before any sample lands: budgets are
	// recorded per sample, so the guard applies to what was in force at
	// sample time.
	tr := ctrl.Tracker
	tr.SetGroupBudget(GExp, 0)
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	norm := tr.NormPowerSeries(GExp, 0)
	if len(norm) != tr.Samples() {
		t.Fatalf("series length %d, want %d", len(norm), tr.Samples())
	}
	for i, v := range norm {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value %v at %d", v, i)
		}
		if v != 0 {
			t.Fatalf("zero-budget normalization %v at %d, want 0", v, i)
		}
	}
	if got := tr.Violations(GExp, 0); got != 0 {
		t.Errorf("zero-budget violations %d, want 0 (consistency with NormPowerSeries)", got)
	}
	// Raw power is untouched by the guard.
	if raw := tr.PowerSeries(GExp, 0); raw[len(raw)-1] <= 0 {
		t.Error("raw power series unexpectedly empty")
	}
}

func TestPlacedBetweenBounds(t *testing.T) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed: 3, RowServers: 40, RestRows: 1, TargetPowerFrac: 0.75,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(30 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	tr := ctrl.Tracker
	total := tr.PlacedBetween(GExp, 0, -1)
	first := tr.PlacedBetween(GExp, 0, 10)
	rest := tr.PlacedBetween(GExp, 11, -1)
	if first+rest != total {
		t.Errorf("window split %d + %d != %d", first, rest, total)
	}
	if got := tr.PlacedBetween(GExp, 0, 1000); got != total {
		t.Errorf("out-of-range to: %d vs %d", got, total)
	}
	// Group accessor round-trips.
	if tr.Group(GExp).Name != "exp" || tr.Group(GCtrl).Name != "ctrl" {
		t.Error("group names wrong")
	}
	// Normalized series uses the group budget.
	norm := tr.NormPowerSeries(GExp, 0)
	raw := tr.PowerSeries(GExp, 0)
	for i := range norm {
		if math.Abs(norm[i]-raw[i]/ctrl.ExpBudgetW) > 1e-12 {
			t.Fatal("normalization inconsistent")
		}
	}
}

// TestTrackerTimeVaryingBudget pins the per-sample budget recording: a
// budget change between samples moves the violation threshold and the
// normalization scale for subsequent samples only.
func TestTrackerTimeVaryingBudget(t *testing.T) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed: 11, RowServers: 40, RestRows: 1, TargetPowerFrac: 0.75,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := ctrl.Tracker
	base := tr.Group(GExp).BudgetW
	if base <= 0 {
		t.Fatalf("controlled setup has no experiment budget")
	}
	ctrl.Rig.Start()
	if err := ctrl.Rig.Run(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	cut := tr.Samples()
	// Curtail to a budget below any plausible group draw: every later
	// sample must violate, and earlier samples must be untouched.
	tr.SetGroupBudget(GExp, 1)
	before := tr.Violations(GExp, 0)
	if err := ctrl.Rig.Run(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	late := tr.Samples() - cut
	if late <= 0 {
		t.Fatalf("no samples after the budget change")
	}
	if got := tr.ViolationsBetween(GExp, cut, -1); got != late {
		t.Fatalf("violations after curtailment = %d, want every sample (%d)", got, late)
	}
	if got := tr.ViolationsBetween(GExp, 0, cut-1); got != before {
		t.Fatalf("pre-curtailment violations changed: %d, want %d", got, before)
	}
	bs := tr.BudgetSeries(GExp, 0)
	if bs[0] != base || bs[len(bs)-1] != 1 {
		t.Fatalf("budget series endpoints %v, %v; want %v, 1", bs[0], bs[len(bs)-1], base)
	}
	norm := tr.NormPowerSeries(GExp, cut)
	for i, v := range norm {
		if v <= 1 {
			t.Fatalf("normalized power %v at %d under 1 W budget, want > 1", v, i)
		}
	}
}
