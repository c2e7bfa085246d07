// Weak-scaling benchmarks for the simulation substrate: the same
// 400-server paper row replicated 1× / 25× / 250× (400, 10k, 100k servers).
// The contract under test is that per-server cost stays flat as the fleet
// grows — a sweep is O(servers) with zero allocations, a placement is
// O(rows) not O(servers), and a controller tick is O(servers) dominated by
// reading each domain's samples. `make bench-scale` records the baseline to
// BENCH_scale.json; the 400-server sub-benchmarks run in tier1 as a smoke
// check of the allocation contracts.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federate"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// scalePoints are the weak-scaling fleet sizes: rows of the default
// 400-server paper row.
var scalePoints = []struct {
	name string
	rows int
}{
	{"servers=400", 1},
	{"servers=10000", 25},
	{"servers=100000", 250},
	{"servers=1000000", 2500},
}

func scaleSpec(rows int) cluster.Spec {
	sp := cluster.DefaultSpec() // 20 racks × 20 servers = one 400-server row
	sp.Rows = rows
	return sp
}

func scaleCluster(b *testing.B, rows int) *cluster.Cluster {
	b.Helper()
	c, err := cluster.New(scaleSpec(rows), 1)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkScaleSweep measures one monitor sweep over the whole fleet.
// store=tsdb is the deployed configuration (row + rack series appended per
// sweep through the sharded TSDB); store=none isolates the sampling and
// incremental-aggregation path and additionally pins the scale contracts:
// zero allocations per sweep (no per-sweep series names, no per-row scratch)
// and allocation-free O(1) RowPower reads.
func BenchmarkScaleSweep(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.name+"/store=tsdb", func(b *testing.B) {
			eng := sim.NewEngine()
			c := scaleCluster(b, pt.rows)
			const retention = 64
			m, err := monitor.New(eng, c, tsdb.New(retention), monitor.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			now := sim.Time(0)
			sweep := func() {
				now = now.Add(sim.Minute)
				m.Sweep(now)
			}
			// Warm every series past retention so the TSDB's head-block
			// recycling reaches its steady state: from then on each append
			// reuses the spare block and the sweep allocates nothing. The
			// old version measured from an empty store, so block-growth
			// warmup amortized into the figure as ~94 allocs/op at 100k.
			for i := 0; i < 2*retention+2; i++ {
				sweep()
			}
			if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
				b.Fatalf("steady-state tsdb sweep allocates %.1f objects per run at %s, want 0", allocs, pt.name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.Servers)), "ns/server")
		})
		b.Run(pt.name+"/store=none", func(b *testing.B) {
			eng := sim.NewEngine()
			c := scaleCluster(b, pt.rows)
			m, err := monitor.New(eng, c, nil, monitor.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			now := sim.Time(0)
			if allocs := testing.AllocsPerRun(5, func() {
				now = now.Add(sim.Minute)
				m.Sweep(now)
			}); allocs != 0 {
				b.Fatalf("Sweep allocates %.1f objects per run at %s, want 0", allocs, pt.name)
			}
			if allocs := testing.AllocsPerRun(5, func() {
				for r := 0; r < c.Rows(); r++ {
					m.RowPower(r)
				}
			}); allocs != 0 {
				b.Fatalf("RowPower allocates %.1f objects per run at %s, want 0", allocs, pt.name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(sim.Minute)
				m.Sweep(now)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.Servers)), "ns/server")
		})
	}
}

// BenchmarkScalePlacement measures one job submission end to end. Cost is
// O(rows) per placement (the cached per-row fit counts), so ns/op should
// grow with row count but stay far below linear in servers.
//
// Before timing, it pins the allocation contract of the job path: once the
// engine's slot slab and heap and the scheduler's running-job slab have
// grown, a submission plus its completion allocates at most the one Job
// the bench itself builds — placement, the typed completion event and the
// running-job bookkeeping recycle their storage.
func BenchmarkScalePlacement(b *testing.B) {
	const jobAllocCeiling = 1
	for _, pt := range scalePoints {
		b.Run(pt.name, func(b *testing.B) {
			var (
				eng *sim.Engine
				s   *scheduler.Scheduler
				r   *rand.Rand
				i   int
			)
			dd := workload.DefaultDurations()
			reset := func() {
				eng = sim.NewEngine()
				s = scheduler.New(eng, scaleCluster(b, pt.rows), 1, nil)
				r, i = sim.NewRNG(2), 0
			}
			// Drain often enough that even the 400-server fleet never
			// saturates within one drain interval.
			drainEvery := 256 * pt.rows
			submit := func() {
				s.Submit(&workload.Job{
					ID: int64(i), Kind: workload.Batch, Product: -1,
					Work: dd.Sample(r), CPU: 1, Containers: 1,
				})
				if i%drainEvery == drainEvery-1 {
					eng.RunUntil(eng.Now().Add(20 * sim.Minute))
				}
				i++
			}
			// Warm, then measure, over a few drain intervals, capped so the
			// largest fleets stay affordable.
			window := 8 * drainEvery
			if window > 1<<16 {
				window = 1 << 16
			}
			reset()
			for k := 0; k < window; k++ {
				submit()
			}
			if allocs := testing.AllocsPerRun(window, submit); allocs > jobAllocCeiling {
				b.Fatalf("steady-state submit+completion allocates %.1f objects, ceiling %d (the Job)",
					allocs, jobAllocCeiling)
			}
			// Time from a fresh fleet, as the recorded baseline does.
			reset()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				submit()
			}
		})
	}
}

// benchControllerTick measures one control step across per-row domains with
// the given plan-phase worker count (core.Config.Parallel). A tick reads
// every server's latest sample through the power reader, so ns/server is the
// weak-scaling figure of merit. Each domain's online Et estimator is
// pre-trained to its steady state — every hour-of-day bin filled to the
// window with the zero deltas the bench's static load produces — which
// replaces the old one-simulated-day live warmup (1500 ticks: prohibitive at
// 1M servers, where warmup alone would run ~45 s per variant). A short live
// warmup then grows the per-domain ranking and candidate scratch, after
// which a steady-state tick must stay under the allocation ceiling — the
// contract behind the §8 rewrite.
func benchControllerTick(b *testing.B, rows, workers int) {
	const steadyAllocCeiling = 10
	eng := sim.NewEngine()
	sp := scaleSpec(rows)
	c, err := cluster.New(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := scheduler.New(eng, c, 1, nil)
	mon := newBenchMonitor(eng, c)
	budget := sp.RowRatedPowerW() / 1.25
	cfg := core.DefaultConfig()
	cfg.Parallel = workers
	cfg.EtWindow = 60 // one hour of 1-minute samples per hour-of-day bin
	domains := make([]core.Domain, sp.Rows)
	for r := 0; r < sp.Rows; r++ {
		ids := make([]cluster.ServerID, 0, sp.ServersPerRow())
		for _, sv := range c.Row(r) {
			ids = append(ids, sv.ID)
			sv.Allocate(8+int(sv.ID)%8, float64(8+int(sv.ID)%8))
		}
		et, err := core.NewWindowedHourlyEt(cfg.EtPercentile, cfg.EtDefault, cfg.EtMinSamples, cfg.EtWindow)
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < 24*60; t++ {
			et.Add(sim.Time(t)*sim.Time(sim.Minute), 0)
		}
		domains[r] = core.Domain{
			Name: monitor.SeriesRow(r), Servers: ids,
			BudgetW: budget, Et: et,
		}
	}
	ctl, err := core.New(eng, mon, s, cfg, domains)
	if err != nil {
		b.Fatal(err)
	}
	mon.Sweep(0)
	tick := 0
	step := func() {
		ctl.Step(sim.Time(tick) * sim.Time(sim.Minute))
		tick++
	}
	for tick < 90 {
		step()
	}
	if allocs := testing.AllocsPerRun(10, step); allocs > steadyAllocCeiling {
		b.Fatalf("steady-state controller tick allocates %.1f objects, ceiling %d",
			allocs, steadyAllocCeiling)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.Servers)), "ns/server")
}

// BenchmarkScaleControllerTick runs each fleet size serially (sub-benchmark
// names unchanged so bench_compare can join against the recorded baseline)
// and with the plan phase fanned across 2 and all-CPU workers.
func BenchmarkScaleControllerTick(b *testing.B) {
	for _, pt := range scalePoints {
		pt := pt
		b.Run(pt.name, func(b *testing.B) { benchControllerTick(b, pt.rows, 0) })
		b.Run(pt.name+"/parallel=2", func(b *testing.B) { benchControllerTick(b, pt.rows, 2) })
		b.Run(pt.name+"/parallel=ncpu", func(b *testing.B) { benchControllerTick(b, pt.rows, -1) })
	}
}

// BenchmarkScaleFederatedEpoch measures one full lockstep epoch of a small
// follow-the-sun federation — per-DC engine advance (workload + monitor),
// the federated controller tick, telemetry, and any coordinator
// reallocation. This is the whole-substrate figure for the two-level path;
// the 1M-server federated tick itself is bounded by the single-DC
// ControllerTick rows above (8 × the 125k-server tick, shard-parallel).
func BenchmarkScaleFederatedEpoch(b *testing.B) {
	dcs, err := federate.Family("follow-the-sun", 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := federate.New(federate.Config{Seed: 1031, DCs: dcs, Workers: 2, Retention: 64})
	if err != nil {
		b.Fatal(err)
	}
	if errs, err := f.Advance(10); err != nil || len(errs) != 0 {
		b.Fatalf("warmup: errs=%v err=%v", errs, err)
	}
	b.Run("servers=1600", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if errs, err := f.Advance(1); err != nil || len(errs) != 0 {
				b.Fatalf("advance: errs=%v err=%v", errs, err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.Servers()), "ns/server")
	})
}
