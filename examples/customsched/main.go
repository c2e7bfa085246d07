// Customsched demonstrates the paper's key interface claim: Ampere couples
// to the job scheduler through nothing but Freeze and Unfreeze, so it works
// unchanged under an arbitrary, application-specific placement policy. Here
// we bring a deliberately quirky policy — rack-affinity bin-packing that the
// controller knows nothing about — and show the controller still keeps the
// row under its budget.
//
//	go run ./examples/customsched
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rackPacker is an application-specific upper-level policy: it packs each
// job onto the fullest server of the least-loaded rack, a shape no generic
// power controller could anticipate.
type rackPacker struct{}

func (rackPacker) Name() string { return "rack-packer" }

func (rackPacker) Pick(_ *rand.Rand, _ *workload.Job, candidates []*cluster.Server) *cluster.Server {
	// Least-loaded rack by total free containers.
	freeByRack := map[int]int{}
	for _, sv := range candidates {
		freeByRack[sv.Rack] += sv.FreeContainers()
	}
	bestRack, bestFree := -1, -1
	for rack, free := range freeByRack {
		if free > bestFree || (free == bestFree && rack < bestRack) {
			bestRack, bestFree = rack, free
		}
	}
	// Fullest fitting server within it.
	var chosen *cluster.Server
	for _, sv := range candidates {
		if sv.Rack != bestRack {
			continue
		}
		if chosen == nil || sv.FreeContainers() < chosen.FreeContainers() ||
			(sv.FreeContainers() == chosen.FreeContainers() && sv.ID < chosen.ID) {
			chosen = sv
		}
	}
	return chosen
}

func main() {
	spec := cluster.DefaultSpec()
	spec.RacksPerRow = 8
	c, err := cluster.New(spec, 9)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.NewEngine()
	sched := scheduler.New(eng, c, 9, rackPacker{})
	mon, err := monitor.New(eng, c, nil, monitor.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	perServer := workload.RateForPowerFraction(
		0.76, spec.IdlePowerW, spec.RatedPowerW, spec.Containers, 8.5, 1.0)
	gen, err := workload.NewGenerator(eng, 9,
		[]workload.Product{workload.DefaultProduct("batch", perServer*float64(spec.TotalServers()))},
		workload.DefaultDurations(), sched.Submit)
	if err != nil {
		log.Fatal(err)
	}

	budget := spec.RowRatedPowerW() / 1.25
	// The controller receives only a PowerReader and the two-call
	// FreezeAPI; it has no idea rackPacker exists.
	ctl, err := core.New(eng, mon, sched, core.DefaultConfig(), []core.Domain{{
		Name: "row/0", Servers: c.RowIDs(0), BudgetW: budget,
	}})
	if err != nil {
		log.Fatal(err)
	}

	mon.Start()
	gen.Start()
	ctl.Start()
	if err := eng.RunUntil(sim.Time(8 * sim.Hour)); err != nil {
		log.Fatal(err)
	}

	st := ctl.Stats(0)
	fmt.Printf("policy %q under Ampere control for 8h:\n", rackPacker{}.Name())
	fmt.Printf("  power mean/max of budget: %.3f / %.3f\n", st.PMean(), st.PMax)
	fmt.Printf("  violations: %d of %d minutes\n", st.Violations, st.Ticks)
	fmt.Printf("  freeze ops: %d, unfreeze ops: %d, mean freeze ratio %.3f\n",
		st.FreezeOps, st.UnfreezeOps, st.UMean())
	fmt.Printf("  scheduler placed %d jobs with the custom policy\n", sched.Stats().Placed)
	fmt.Println("the controller used only Freeze/Unfreeze — no scheduler internals.")
}
