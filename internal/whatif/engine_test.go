package whatif

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// tinyBuilder is a one-row, 40-server scenario with a controller and no
// breakers; extra, when non-nil, becomes the instance's KPIs hook.
func tinyBuilder(extra func() map[string]float64) Builder {
	return func() (*Instance, error) {
		spec, err := stack.RowSpec(1, 40)
		if err != nil {
			return nil, err
		}
		prod := workload.DefaultProduct("p", stack.PerServerRate(spec, 0.8)*float64(spec.TotalServers()))
		sk, err := stack.New(stack.Config{Seed: 5, Cluster: spec, Products: []workload.Product{prod}})
		if err != nil {
			return nil, err
		}
		journal := obs.NewJournal(1024)
		sk.Start()
		ctl, err := core.New(sk.Eng, sk.Mon, sk.Sched, core.DefaultConfig(), []core.Domain{{
			Name: "row/0", Servers: sk.Cluster.RowIDs(0), BudgetW: spec.RowRatedPowerW() / 1.25,
		}})
		if err != nil {
			return nil, err
		}
		ctl.Instrument(nil, journal)
		ctl.Start()
		return &Instance{
			Stack: sk, Journal: journal, Ctl: ctl,
			End: sim.Time(20 * sim.Minute), Interval: sim.Minute,
			Seed: 5, ConfigTag: "tiny", KPIs: extra,
		}, nil
	}
}

// TestJobKPIsWithoutHook: an instance with nil KPIs still reports the six
// scheduler job counters, taken from its stack.
func TestJobKPIsWithoutHook(t *testing.T) {
	res, err := (&Engine{Build: tinyBuilder(nil)}).Baseline(0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res.KPIs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"jobs_completed", "jobs_killed", "jobs_overflow", "jobs_placed", "jobs_queued", "jobs_submitted"}
	if len(keys) != len(want) {
		t.Fatalf("KPI keys %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("KPI keys %v, want %v", keys, want)
		}
	}
	if res.KPIs["jobs_submitted"] == 0 || res.KPIs["jobs_completed"] == 0 {
		t.Errorf("job KPIs not read from the stack: %v", res.KPIs)
	}
}

// TestExtraKPIsMerge: an instance's own KPIs ride along with the job
// counters.
func TestExtraKPIsMerge(t *testing.T) {
	extra := func() map[string]float64 { return map[string]float64{"service_requests": 7} }
	res, err := (&Engine{Build: tinyBuilder(extra)}).Baseline(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KPIs) != 7 || res.KPIs["service_requests"] != 7 || res.KPIs["jobs_placed"] == 0 {
		t.Errorf("merged KPIs %v", res.KPIs)
	}
}
