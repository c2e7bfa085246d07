// Package repro_test is the benchmark harness: one benchmark per table and
// figure in the paper's evaluation (§4), each regenerating its result at a
// reduced scale and reporting the headline numbers as custom metrics, plus
// ablation benches for the design choices called out in DESIGN.md and
// microbenchmarks of the hot substrate paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale experiment output (paper-sized rows and spans) comes from
// cmd/ampere-exp instead; benchmarks use the quick configurations so the
// whole suite finishes in a few minutes.
package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Paper experiments: one benchmark per table / figure.
// ---------------------------------------------------------------------------

func BenchmarkFig1PowerUtilizationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Fig1Config{Seed: 1, Rows: 4, RowServers: 80,
			Warmup: sim.Hour, Measure: 12 * sim.Hour}
		res, err := experiment.RunFig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanDC, "dc-mean-util")
		b.ReportMetric(res.P99Rack-res.P99DC, "p99-rack-minus-dc")
	}
}

func BenchmarkFig2RowPowerVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Fig2Config{Seed: 2, Rows: 5, RowServers: 80,
			Warmup: sim.Hour, Window: 2 * sim.Hour, CorrSpan: 12 * sim.Hour}
		res, err := experiment.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracWeak, "frac-weak-corr")
	}
}

func BenchmarkFig4FreezePowerDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Fig4Config{Seed: 4, RowServers: 160, FreezeCount: 32,
			Warmup: 80 * sim.Minute, Observe: 50 * sim.Minute}
		res, err := experiment.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MinutesTo90), "minutes-to-90pct-decay")
		b.ReportMetric(res.Series[len(res.Series)-1], "final-power-frac")
	}
}

func BenchmarkFig5ControlEffect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Fig5Config{
			Seed: 5, RowServers: 160, RO: 0.25, TargetPowerFrac: 0.74,
			Warmup: 50 * sim.Minute, Cycles: 1,
			URatios:       []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
			FreezeMinutes: 3, RecoverMinutes: 10,
		}
		res, err := experiment.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Kr, "kr")
	}
}

func BenchmarkFig7JobDurationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunFig7(7, 200000)
		b.ReportMetric(res.MeanMinutes, "mean-minutes")
		b.ReportMetric(res.FracWithin2, "frac-within-2min")
	}
}

func BenchmarkFig8RowPowerDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Fig8Config{Seed: 8, RowServers: 160, Warmup: sim.Hour}
		res, err := experiment.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HourlySwing, "hourly-swing")
	}
}

func BenchmarkFig9PowerChangeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Fig9Config{Seed: 9, RowServers: 160,
			Warmup: sim.Hour, Measure: 12 * sim.Hour}
		res, err := experiment.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.P99Abs1Min, "p99-abs-1min-delta")
		b.ReportMetric(res.MaxAbs1Min, "max-abs-1min-delta")
	}
}

func BenchmarkFig10ControlTimeline(b *testing.B) {
	benchTable2(b, true)
}

func BenchmarkTable2ControllerEffectiveness(b *testing.B) {
	benchTable2(b, false)
}

func benchTable2(b *testing.B, series bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultTable2()
		cfg.RowServers = 160
		cfg.Warmup = sim.Hour
		res, err := experiment.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if series {
			b.ReportMetric(float64(len(res.HeavySer.U)), "timeline-minutes")
			b.ReportMetric(maxOf(res.HeavySer.U), "heavy-u-max")
		} else {
			b.ReportMetric(float64(res.Heavy.ViolationsExp), "heavy-violations-ampere")
			b.ReportMetric(float64(res.Heavy.ViolationsCtl), "heavy-violations-none")
			b.ReportMetric(res.Heavy.UMean, "heavy-u-mean")
		}
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

func BenchmarkFig11LatencyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Fig11Config{
			Seed: 11, RowServers: 80, ServiceServers: 16, ServiceContainers: 8,
			RO: 0.25, BatchTargetFrac: 0.75, RequestsPerSecond: 60,
			Warmup: sim.Hour, Pretrain: 8 * sim.Hour, Measure: sim.Hour,
		}
		res, err := experiment.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range res.Rows {
			if r.Inflation > worst {
				worst = r.Inflation
			}
		}
		b.ReportMetric(worst, "worst-capping-inflation")
		b.ReportMetric(res.CappedServerFracAmpere, "capped-frac-ampere")
	}
}

func BenchmarkFig12PowerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Fig12Config{Seed: 12, RowServers: 160, RO: 0.25,
			Warmup: sim.Hour, Pretrain: 8 * sim.Hour, Measure: 4 * sim.Hour}
		res, err := experiment.RunFig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RTOverall, "rT-overall")
		b.ReportMetric(res.GTPW, "gtpw")
	}
}

func BenchmarkTable3GTPWSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Table3Config{
			Seed: 13, RowServers: 120,
			Warmup: sim.Hour, Pretrain: 12 * sim.Hour, Measure: 12 * sim.Hour,
			Scenarios: []experiment.Table3Scenario{
				{RO: 0.25, TargetFrac: 0.745, Amplitude: 0.45},
				{RO: 0.17, TargetFrac: 0.717, Amplitude: 0.30},
				{RO: 0.13, TargetFrac: 0.750, Amplitude: 0.30},
			},
		}
		res, err := experiment.RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		best := -1.0
		for _, r := range res.Rows {
			if r.GTPW > best {
				best = r.GTPW
			}
		}
		b.ReportMetric(best, "best-gtpw")
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for DESIGN.md's called-out design choices.
// ---------------------------------------------------------------------------

func quickAblation() experiment.AblationConfig {
	cfg := experiment.DefaultAblation()
	cfg.RowServers = 120
	cfg.Warmup = sim.Hour
	cfg.Pretrain = 12 * sim.Hour
	cfg.Measure = 12 * sim.Hour
	return cfg
}

func BenchmarkAblationFreezeSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunSelectionAblation(quickAblation())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Violations), "violations-hottest")
		b.ReportMetric(float64(rows[2].Violations), "violations-random")
	}
}

func BenchmarkAblationRStable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunRStableAblation(quickAblation(), []float64{0.5, 0.8, 0.95})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].ChurnOps), "churn-rstable-0.8")
	}
}

func BenchmarkAblationEtPercentile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunEtPercentileAblation(quickAblation(), []float64{50, 99.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Violations), "violations-p50")
		b.ReportMetric(float64(rows[1].Violations), "violations-p99.5")
	}
}

func BenchmarkAblationRHCHorizon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunHorizonAblation(quickAblation(), []int{1, 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].UMean, "umean-horizon-1")
		b.ReportMetric(rows[1].UMean, "umean-horizon-5")
	}
}

func BenchmarkAblationCappingMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunCappingAblation(quickAblation())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].StretchP99, "p99-stretch-capping")
		b.ReportMetric(rows[2].StretchP99, "p99-stretch-ampere")
	}
}

func BenchmarkOutageScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.OutageConfig{
			Seed: 55, RowServers: 120, RO: 0.25, TargetFrac: 0.79,
			Warmup: sim.Hour, Pretrain: 8 * sim.Hour, Measure: 8 * sim.Hour,
			RepairAfter: 30 * sim.Minute,
		}
		rows, err := experiment.RunOutage(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].JobsKilled), "jobs-killed-uncontrolled")
		b.ReportMetric(float64(rows[2].JobsKilled), "jobs-killed-ampere")
	}
}

func BenchmarkFutureWorkRowSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.SpreadConfig{Seed: 77, Rows: 4, RowServers: 80,
			TargetFrac: 0.70, Warmup: sim.Hour, Measure: 8 * sim.Hour}
		rows, err := experiment.RunSpread(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].CrossRowStd, "concentrated-row-std")
		b.ReportMetric(float64(rows[2].IdleRows), "idle-rows")
	}
}

func BenchmarkChaosStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultChaos()
		cfg.RowServers = 80
		cfg.Pretrain, cfg.Measure = 6*sim.Hour, 12*sim.Hour
		res, err := experiment.RunChaos(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Naive.Violations), "violations-naive")
		b.ReportMetric(float64(res.Resilient.Violations), "violations-resilient")
		b.ReportMetric(res.Resilient.Stats.MTTR().Minutes(), "mttr-min")
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the hot substrate paths.
// ---------------------------------------------------------------------------

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tick func(sim.Time)
	tick = func(now sim.Time) {
		n++
		if n < b.N {
			eng.After(sim.Millisecond, "tick", tick)
		}
	}
	eng.After(sim.Millisecond, "tick", tick)
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSchedulerPlacement(b *testing.B) {
	eng := sim.NewEngine()
	sp := cluster.DefaultSpec()
	sp.RacksPerRow = 20
	c, err := cluster.New(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := scheduler.New(eng, c, 1, nil)
	dd := workload.DefaultDurations()
	r := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(&workload.Job{
			ID: int64(i), Kind: workload.Batch, Product: -1,
			Work: dd.Sample(r), CPU: 1, Containers: 1,
		})
		if i%1024 == 0 {
			// Drain periodically so capacity never saturates.
			eng.RunUntil(eng.Now().Add(20 * sim.Minute))
		}
	}
}

func BenchmarkControllerStep(b *testing.B) {
	eng := sim.NewEngine()
	sp := cluster.DefaultSpec()
	sp.RacksPerRow = 20 // 400 servers, the paper's row size
	c, err := cluster.New(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := scheduler.New(eng, c, 1, nil)
	mon := newBenchMonitor(eng, c)
	ids := make([]cluster.ServerID, len(c.Servers))
	for i := range ids {
		ids[i] = cluster.ServerID(i)
		c.Servers[i].Allocate(8+i%8, float64(8+i%8))
	}
	ctl, err := core.New(eng, mon, s, core.DefaultConfig(), []core.Domain{{
		Name: "row", Servers: ids, BudgetW: sp.RowRatedPowerW() / 1.25,
	}})
	if err != nil {
		b.Fatal(err)
	}
	mon.Sweep(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Step(sim.Time(i) * sim.Time(sim.Minute))
	}
}

func BenchmarkSolveSPCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.SolveSPCP(0.98, 0.03, 1.0, 0.012, 0.5)
	}
}

func BenchmarkSolvePCPExactHorizon60(b *testing.B) {
	e := make([]float64, 60)
	for i := range e {
		e[i] = 0.002 * float64(i%5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SolvePCPExact(0.95, e, 1.0, 0.012, 0.5)
	}
}

func BenchmarkTSDBAppend(b *testing.B) {
	db := tsdb.New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Append("row/0", sim.Time(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSDBQuery(b *testing.B) {
	db := tsdb.New(0)
	for i := 0; i < 100000; i++ {
		db.Append("row/0", sim.Time(i)*sim.Time(sim.Minute), float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Query("row/0", sim.Time(1000*sim.Minute), sim.Time(2000*sim.Minute))
	}
}

func BenchmarkWorkloadGeneratorDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		n := 0
		gen, err := workload.NewGenerator(eng, 1,
			[]workload.Product{workload.DefaultProduct("a", 500)},
			workload.DefaultDurations(), func(*workload.Job) { n++ })
		if err != nil {
			b.Fatal(err)
		}
		gen.Start()
		if err := eng.RunUntil(sim.Time(24 * sim.Hour)); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no jobs")
		}
	}
}

// BenchmarkMetricsScrape renders the exposition of a fully instrumented
// default-topology deployment (2 rows × 200 servers: controller, monitor,
// TSDB, scheduler, breakers, chaos injector). The ISSUE acceptance bound is
// < 1 ms per scrape.
func BenchmarkMetricsScrape(b *testing.B) {
	spec, err := stack.RowSpec(2, 200)
	if err != nil {
		b.Fatal(err)
	}
	dd := workload.DefaultDurations()
	perServer := workload.RateForPowerFraction(0.75, spec.IdlePowerW, spec.RatedPowerW,
		spec.Containers, dd.Mean()*0.95, 1.0)
	rig, err := stack.New(stack.Config{
		Seed:    1,
		Cluster: spec,
		Products: []workload.Product{
			workload.DefaultProduct("mixed", perServer*float64(spec.TotalServers()))},
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	journal := obs.NewJournal(0)
	rig.Mon.Instrument(reg)
	rig.DB.Instrument(reg)
	rig.Sched.Instrument(reg, journal)
	rig.Start()
	budget := spec.RowRatedPowerW() / 1.25
	domains := make([]core.Domain, spec.Rows)
	for r := 0; r < spec.Rows; r++ {
		domains[r] = core.Domain{Name: fmt.Sprintf("row/%d", r), Servers: rig.Cluster.RowIDs(r),
			BudgetW: budget}
	}
	ctl, err := core.New(rig.Eng, rig.Mon, rig.Sched, core.DefaultConfig(), domains)
	if err != nil {
		b.Fatal(err)
	}
	ctl.Instrument(reg, journal)
	ctl.Start()
	if err := rig.Run(sim.Time(30 * sim.Minute)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend measures the per-tick cost of the decision journal
// once the ring is full (steady state: overwrite, no allocation).
func BenchmarkJournalAppend(b *testing.B) {
	j := obs.NewJournal(0)
	ev := obs.Event{
		SimMS: 60000, SimTime: "d0 00:01:00.000", Domain: "row/0",
		PowerW: 38000, PNorm: 0.95, Et: 0.05, Action: "hold",
		TargetFrozen: 12, Frozen: 12, Health: "ok",
	}
	for i := 0; i < j.Cap(); i++ {
		j.Append(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Append(ev)
	}
}

// newBenchMonitor builds a monitor without a TSDB for the controller bench.
func newBenchMonitor(eng *sim.Engine, c *cluster.Cluster) *benchMonitor {
	return &benchMonitor{c: c, last: make([]float64, len(c.Servers))}
}

type benchMonitor struct {
	c    *cluster.Cluster
	last []float64
}

func (m *benchMonitor) Sweep(sim.Time) {
	for i, sv := range m.c.Servers {
		m.last[i] = sv.SamplePower()
	}
}

func (m *benchMonitor) ServerPower(id cluster.ServerID) (float64, bool) {
	return m.last[id], true
}

func (m *benchMonitor) GroupPower(ids []cluster.ServerID) (float64, bool) {
	t := 0.0
	for _, id := range ids {
		t += m.last[id]
	}
	return t, true
}
