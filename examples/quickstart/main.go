// Quickstart: assemble the full Ampere stack — cluster, two-level
// scheduler, workload, power monitor, controller — on a single
// over-provisioned row, run six simulated hours, and print what the
// controller did.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

func main() {
	// One row of 200 servers: 10 racks × 20 servers, 250 W rated each.
	spec := cluster.DefaultSpec()
	spec.RacksPerRow = 10
	c, err := cluster.New(spec, 42)
	if err != nil {
		log.Fatal(err)
	}

	eng := sim.NewEngine()
	sched := scheduler.New(eng, c, 42, nil) // default random-fit policy

	// Power monitor: samples every server once a minute into the TSDB.
	db := tsdb.New(0)
	mon, err := monitor.New(eng, c, db, monitor.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Batch workload sized so the row runs hot: jobs average 9 minutes and
	// arrive as a modulated Poisson process.
	perServer := workload.RateForPowerFraction(
		0.76, spec.IdlePowerW, spec.RatedPowerW, spec.Containers, 8.5, 1.0)
	product := workload.DefaultProduct("batch", perServer*float64(spec.TotalServers()))
	gen, err := workload.NewGenerator(eng, 42, []workload.Product{product},
		workload.DefaultDurations(), sched.Submit)
	if err != nil {
		log.Fatal(err)
	}

	// Over-provision by 25%: the enforced budget is rated/(1+0.25). The
	// domain leaves Kr zero, so the controller uses the gradient calibrated
	// by experiment.RunFig5 (core.DefaultConfig's DefaultKr).
	budget := spec.RowRatedPowerW() / 1.25
	ctl, err := core.New(eng, mon, sched, core.DefaultConfig(), []core.Domain{{
		Name:    "row/0",
		Servers: c.RowIDs(0),
		BudgetW: budget,
	}})
	if err != nil {
		log.Fatal(err)
	}

	// Start order matters only for determinism: monitor first so each
	// minute's samples precede their consumers.
	mon.Start()
	gen.Start()
	ctl.Start()

	if err := eng.RunUntil(sim.Time(6 * sim.Hour)); err != nil {
		log.Fatal(err)
	}

	st := ctl.Stats(0)
	fmt.Printf("simulated 6h on %d servers (budget %.0f W, rated %.0f W)\n",
		len(c.Servers), budget, spec.RowRatedPowerW())
	fmt.Printf("row power:  mean %.3f, max %.3f of budget\n", st.PMean(), st.PMax)
	fmt.Printf("violations: %d of %d minutes\n", st.Violations, st.Ticks)
	fmt.Printf("freezing:   mean ratio %.3f, max %.3f, %d freeze / %d unfreeze ops\n",
		st.UMean(), st.UMax, st.FreezeOps, st.UnfreezeOps)
	ss := sched.Stats()
	fmt.Printf("scheduler:  %d jobs placed, %d completed, %d had to wait\n",
		ss.Placed, ss.Completed, ss.Queued)
	if p, ok := db.Latest("row/0"); ok {
		fmt.Printf("tsdb:       latest row sample %.0f W at %v\n", p.V, p.T)
	}
}
