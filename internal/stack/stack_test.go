package stack

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRowSpec(t *testing.T) {
	cases := []struct {
		rows, rowServers int
		wantRacks        int // 0 = must be rejected
	}{
		{1, 20, 1},
		{2, 40, 2},
		{250, 400, 20},
		{3, 160, 8},
		{1, 0, 0},
		{1, -20, 0},
		{1, 10, 0},
		{2, 210, 0}, // would silently truncate to 200
		{1, 399, 0},
		{0, 400, 0},
		{-1, 400, 0},
	}
	for _, c := range cases {
		spec, err := RowSpec(c.rows, c.rowServers)
		if c.wantRacks == 0 {
			if err == nil {
				t.Errorf("RowSpec(%d, %d) accepted", c.rows, c.rowServers)
			}
			continue
		}
		if err != nil {
			t.Errorf("RowSpec(%d, %d): %v", c.rows, c.rowServers, err)
			continue
		}
		if spec.Rows != c.rows || spec.RacksPerRow != c.wantRacks || spec.ServersPerRack != ServersPerRack {
			t.Errorf("RowSpec(%d, %d) = %d rows × %d racks × %d, want %d × %d × %d",
				c.rows, c.rowServers, spec.Rows, spec.RacksPerRow, spec.ServersPerRack,
				c.rows, c.wantRacks, ServersPerRack)
		}
		if got := spec.ServersPerRow(); got != c.rowServers {
			t.Errorf("RowSpec(%d, %d) row width %d", c.rows, c.rowServers, got)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("RowSpec(%d, %d) invalid: %v", c.rows, c.rowServers, err)
		}
	}
}

func TestTruncatedMeanMinutes(t *testing.T) {
	m := MeanJobMinutes()
	// Slightly below the analytic untruncated mean of 9, well above the
	// median.
	if m < 7.5 || m > 9.0 {
		t.Errorf("truncated mean %.2f, want in [7.5, 9.0]", m)
	}
	// The memoized value is exactly one fresh fixed-seed computation.
	if fresh := truncatedMeanMinutes(); fresh != m {
		t.Errorf("memoized mean %v differs from a fresh computation %v", m, fresh)
	}
	if m2 := MeanJobMinutes(); m2 != m {
		t.Errorf("not deterministic: %v vs %v", m, m2)
	}
}

func TestPerServerRate(t *testing.T) {
	spec, err := RowSpec(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.RateForPowerFraction(0.7, spec.IdlePowerW, spec.RatedPowerW,
		spec.Containers, MeanJobMinutes(), 1.0)
	if got := PerServerRate(spec, 0.7); got != want || got <= 0 {
		t.Errorf("PerServerRate = %v, want %v", got, want)
	}
}

// TestStackRuns builds, starts and runs a small stack: the monitor samples
// every minute and the generator's jobs reach the scheduler.
func TestStackRuns(t *testing.T) {
	spec, err := RowSpec(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	prod := workload.DefaultProduct("p", PerServerRate(spec, 0.7)*float64(spec.TotalServers()))
	s, err := New(Config{Seed: 3, Cluster: spec, Products: []workload.Product{prod}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := s.Run(sim.Time(30 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if s.Mon.Sweeps() < 30 {
		t.Errorf("monitor swept %d times in 30 minutes", s.Mon.Sweeps())
	}
	if st := s.Sched.Stats(); st.Placed == 0 || st.Submitted > s.Gen.Generated() {
		t.Errorf("scheduler stats %+v against %d generated jobs", st, s.Gen.Generated())
	}
	if _, err := New(Config{Seed: 3, Cluster: spec, MonitorDropRate: 1}); err == nil {
		t.Error("drop rate 1 accepted")
	}
}
