package experiment

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// These tests pin the DESIGN.md §8 contract at the experiment layer: the
// controller's plan-phase worker count (core.Config.Parallel) must never
// change any observable output — journal streams, controller statistics, or
// rendered experiment reports.

// runMultiDomainRig drives a 4-row rig under one controller with one domain
// per row — the deployment shape where the parallel plan phase actually
// engages — and returns a fingerprint of the journal stream (wall-clock
// fields normalized), per-domain statistics, and final frozen counts.
func runMultiDomainRig(t *testing.T, ctlParallel int) string {
	t.Helper()
	spec := cluster.DefaultSpec()
	spec.Rows = 4
	spec.RacksPerRow = 2
	spec.ServersPerRack = 10

	dd := workload.DefaultDurations()
	perServer := workload.RateForPowerFraction(0.8, spec.IdlePowerW, spec.RatedPowerW,
		spec.Containers, dd.Mean()*0.95, 1.0)
	product := workload.DefaultProduct("mixed", perServer*float64(spec.TotalServers()))
	rig, err := stack.New(stack.Config{Seed: 21, Cluster: spec, Products: []workload.Product{product}})
	if err != nil {
		t.Fatal(err)
	}

	budget := spec.RowRatedPowerW() / 1.25
	domains := make([]core.Domain, spec.Rows)
	for r := 0; r < spec.Rows; r++ {
		domains[r] = core.Domain{
			Name: fmt.Sprintf("row/%d", r), Servers: rig.Cluster.RowIDs(r), BudgetW: budget,
		}
	}
	ccfg := core.DefaultConfig()
	ccfg.Parallel = ctlParallel
	ctl, err := core.New(rig.Eng, rig.Mon, rig.Sched, ccfg, domains)
	if err != nil {
		t.Fatal(err)
	}
	journal := obs.NewJournal(4 * 121)
	ctl.Instrument(nil, journal)
	ctl.Start()
	rig.Start()
	if err := rig.Run(sim.Time(2 * sim.Hour)); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, ev := range journal.Snapshot() {
		ev.TickMS = 0
		ev.APILatencyMS = 0
		fmt.Fprintf(&b, "%+v\n", ev)
	}
	for r := 0; r < spec.Rows; r++ {
		fmt.Fprintf(&b, "row/%d stats %+v frozen %d\n", r, ctl.Stats(r), ctl.FrozenCount(r))
	}
	return b.String()
}

func TestMultiDomainRigByteIdenticalAcrossCtlParallel(t *testing.T) {
	want := runMultiDomainRig(t, 0)
	if !strings.Contains(want, "Action:freeze") && !strings.Contains(want, "Action:swap") {
		t.Error("rig never froze a server; the identity check exercises nothing")
	}
	for _, w := range []int{4, -1} {
		if got := runMultiDomainRig(t, w); got != want {
			t.Fatalf("ctlParallel=%d output diverges from serial", w)
		}
	}
}

func TestChaosOutputIdenticalAcrossCtlParallel(t *testing.T) {
	base := quickChaos()
	base.Pretrain, base.Measure = 4*sim.Hour, 8*sim.Hour
	render := func(ctlParallel int) string {
		cfg := base
		cfg.CtlParallel = ctlParallel
		res, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("ctlParallel=%d: %v", ctlParallel, err)
		}
		var sb strings.Builder
		FormatChaos(&sb, res)
		return sb.String()
	}
	serial := render(0)
	if parallel := render(4); parallel != serial {
		t.Fatalf("chaos report differs across controller worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestAmpereStatsIdenticalAcrossCtlParallel(t *testing.T) {
	base := AblationConfig{Seed: 99, RowServers: 80, TargetFrac: 0.772, Amplitude: 0.35,
		Warmup: sim.Hour, Pretrain: 2 * sim.Hour, Measure: 2 * sim.Hour}.base()
	render := func(ctlParallel int) string {
		cfg := base
		cfg.CtlParallel = ctlParallel
		run, err := RunAmpere(cfg)
		if err != nil {
			t.Fatalf("ctlParallel=%d: %v", ctlParallel, err)
		}
		return fmt.Sprintf("%+v\nstats %+v frozen %d",
			run.Analyze("identity"), run.Controller.Stats(0), run.Controller.FrozenCount(0))
	}
	serial := render(0)
	if parallel := render(4); parallel != serial {
		t.Fatalf("ampere run differs across controller worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}
