package main

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestBuildStackRowWidth: a row width that is not a whole number of racks
// is rejected instead of being truncated to the rack below.
func TestBuildStackRowWidth(t *testing.T) {
	cfg := runConfig{rows: 2, rowServers: 210, target: 0.75, ro: 0.25, ampere: true, seed: 1}
	if _, err := buildStack(cfg, nil, nil); err == nil || !strings.Contains(err.Error(), "210") {
		t.Fatalf("210-server rows: err = %v, want a rejection naming 210", err)
	}
	cfg.rowServers = 200
	d, err := buildStack(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.rig.Cluster.Row(1)); got != 200 {
		t.Fatalf("row width %d, want 200", got)
	}
	if err := d.rig.Run(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if d.ctl.Stats(1).Ticks == 0 {
		t.Error("controller never ticked")
	}
}
