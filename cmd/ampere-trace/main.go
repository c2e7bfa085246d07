// Command ampere-trace records, replays, and explains row power traces.
//
//	ampere-trace record -out row.csv -hours 12 -target 0.78
//	ampere-trace replay -in row.csv [-ampere] [-ro 0.25]
//	ampere-trace why [-event N] [-alt policy=...] [-regime cliff|ramp] [-json]
//
// record simulates a diurnal day on one row and writes the per-minute power
// trace as CSV; replay converts a trace (from record, or any external export
// with the same layout) back into an arrival-rate schedule, re-simulates the
// row along that trajectory, and reports power/violation statistics —
// optionally under Ampere control with an emulated over-provisioning ratio.
//
// why answers the operator's counterfactual question on the gridstorm
// scenario: snapshot the run at journal event N (default: the dip-onset
// budget change), fork it with an alternative policy (default: a ramped
// budget), replay against the same seeded workload and chaos streams, and
// print the scored diff — trips avoided, violation ticks avoided, capacity
// minutes gained, and per-domain divergence points. See OPERATIONS.md §13.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	case "why":
		err = why(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ampere-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ampere-trace record|replay|why [flags]")
	os.Exit(2)
}

const (
	rowServers = 160
	warmup     = sim.Hour
)

func meanDur() float64 { return workload.DefaultDurations().Mean() * 0.95 }

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "trace.csv", "output CSV path")
	hours := fs.Int("hours", 12, "hours to record")
	target := fs.Float64("target", 0.78, "mean power target (fraction of rated)")
	amplitude := fs.Float64("amplitude", 0.35, "diurnal amplitude")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := stack.RowSpec(1, rowServers)
	if err != nil {
		return err
	}
	perServer := workload.RateForPowerFraction(*target, spec.IdlePowerW, spec.RatedPowerW,
		spec.Containers, meanDur(), 1.0)
	prod := workload.DefaultProduct("recorded", perServer*float64(spec.TotalServers()))
	prod.DiurnalAmplitude = *amplitude

	rig, err := stack.New(stack.Config{
		Seed: *seed, Cluster: spec, Products: []workload.Product{prod},
	})
	if err != nil {
		return err
	}
	rig.Start()
	end := sim.Time(warmup) + sim.Time(*hours)*sim.Time(sim.Hour)
	if err := rig.Run(end); err != nil {
		return err
	}
	tr, err := trace.FromTSDB(rig.DB, []string{monitor.SeriesRow(0)}, sim.Time(warmup), end, sim.Minute)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("recorded %d minutes of %s to %s\n", tr.Len(), monitor.SeriesRow(0), *out)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "trace.csv", "input CSV path")
	ampere := fs.Bool("ampere", false, "control the row with Ampere")
	ro := fs.Float64("ro", 0.25, "over-provisioning ratio for the budget")
	kr := fs.Float64("kr", core.DefaultConfig().DefaultKr, "control model gradient")
	seed := fs.Uint64("seed", 2, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	tr, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	spec, err := stack.RowSpec(1, rowServers)
	if err != nil {
		return err
	}
	sched, err := trace.RateSchedule(tr.Series(0), spec.TotalServers(), spec, meanDur(), 1.0)
	if err != nil {
		return err
	}
	prod := workload.Product{Name: "replay", Schedule: sched, ScheduleStart: sim.Time(warmup)}
	rig, err := stack.New(stack.Config{
		Seed: *seed, Cluster: spec, Products: []workload.Product{prod},
	})
	if err != nil {
		return err
	}
	rig.Start()

	budget := spec.RowRatedPowerW() / (1 + *ro)
	var controller *core.Controller
	if *ampere {
		controller, err = core.New(rig.Eng, rig.Mon, rig.Sched, core.DefaultConfig(),
			[]core.Domain{{Name: "row/0", Servers: rig.Cluster.RowIDs(0), BudgetW: budget, Kr: *kr}})
		if err != nil {
			return err
		}
		controller.Start()
	}
	end := sim.Time(warmup) + sim.Time(tr.Len())*sim.Time(sim.Minute)
	if err := rig.Run(end); err != nil {
		return err
	}

	vals := rig.DB.Values(monitor.SeriesRow(0), sim.Time(warmup), end-1)
	var s stats.Summary
	violations := 0
	for _, v := range vals {
		s.Add(v / budget)
		if v > budget {
			violations++
		}
	}
	fmt.Printf("replayed %d minutes from %s (budget %.0f W, rO %.2f, ampere=%v)\n",
		len(vals), *in, budget, *ro, *ampere)
	fmt.Printf("  power mean/max of budget: %.3f / %.3f\n", s.Mean(), s.Max())
	fmt.Printf("  violations: %d of %d minutes\n", violations, len(vals))
	if controller != nil {
		st := controller.Stats(0)
		fmt.Printf("  ampere: u mean/max %.3f/%.3f, %d freeze ops\n", st.UMean(), st.UMax, st.FreezeOps)
	}
	return nil
}
