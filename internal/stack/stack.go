// Package stack assembles one simulated single-DC deployment — engine,
// cluster, scheduler, TSDB, power monitor and workload generator — and owns
// the calibrations every assembly shares: the 20-server rack that row
// widths are counted in, and the Monte Carlo mean job duration that turns a
// target power fraction into a per-server job rate. Experiments, tools and
// federation shards all build their stacks here, in one construction order.
package stack

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// ServersPerRack is the rack size every row is counted in: row widths must
// be whole racks.
const ServersPerRack = 20

// Stack is a fully assembled simulated deployment: cluster, scheduler,
// workload generator, TSDB and power monitor, all driven by one engine.
type Stack struct {
	Eng     *sim.Engine
	Cluster *cluster.Cluster
	Sched   *scheduler.Scheduler
	DB      *tsdb.DB
	Mon     *monitor.Monitor
	Gen     *workload.Generator
	Seed    uint64
}

// Config assembles a Stack.
type Config struct {
	Seed     uint64
	Cluster  cluster.Spec
	Products []workload.Product
	// ProductWeights[p] is the row-affinity vector for product p; nil
	// entries mean uniform.
	ProductWeights [][]float64
	Policy         scheduler.Policy
	// Retention bounds TSDB series length (0 = unlimited).
	Retention int
	// MonitorDropRate injects monitor sweep failures (see monitor.Config).
	MonitorDropRate float64
}

// New builds and wires all components. Nothing is started; call Start (and
// any controller/capper) before running the engine, starting the monitor
// first so each minute's samples deterministically precede their consumers.
func New(cfg Config) (*Stack, error) {
	eng := sim.NewEngine()
	c, err := cluster.New(cfg.Cluster, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sched := scheduler.New(eng, c, cfg.Seed, cfg.Policy)
	if cfg.ProductWeights != nil {
		sched.SetProductWeights(cfg.ProductWeights)
	}
	db := tsdb.New(cfg.Retention)
	mcfg := monitor.DefaultConfig()
	mcfg.SweepDropRate = cfg.MonitorDropRate
	mcfg.DropSeed = cfg.Seed
	mon, err := monitor.New(eng, c, db, mcfg)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(eng, cfg.Seed, cfg.Products, workload.DefaultDurations(), sched.Submit)
	if err != nil {
		return nil, err
	}
	return &Stack{Eng: eng, Cluster: c, Sched: sched, DB: db, Mon: mon, Gen: gen, Seed: cfg.Seed}, nil
}

// Start starts the monitor and then the workload generator.
func (s *Stack) Start() {
	s.Mon.Start()
	s.Gen.Start()
}

// Run advances the simulation to the given absolute time.
func (s *Stack) Run(until sim.Time) error { return s.Eng.RunUntil(until) }

// RowSpec returns the default hardware spec laid out as rows of rowServers
// servers in racks of ServersPerRack. A width that is not a positive
// multiple of the rack size is an error, never silently truncated.
func RowSpec(rows, rowServers int) (cluster.Spec, error) {
	if rows < 1 {
		return cluster.Spec{}, fmt.Errorf("stack: rows %d must be ≥1", rows)
	}
	if rowServers <= 0 || rowServers%ServersPerRack != 0 {
		return cluster.Spec{}, fmt.Errorf("stack: row servers %d must be a positive multiple of %d",
			rowServers, ServersPerRack)
	}
	spec := cluster.DefaultSpec()
	spec.Rows = rows
	spec.ServersPerRack = ServersPerRack
	spec.RacksPerRow = rowServers / ServersPerRack
	return spec, nil
}

// PerServerRate is the per-server job arrival rate (jobs/minute) that holds
// spec's servers at frac of rated power under the default job mix.
func PerServerRate(spec cluster.Spec, frac float64) float64 {
	return workload.RateForPowerFraction(frac, spec.IdlePowerW, spec.RatedPowerW,
		spec.Containers, MeanJobMinutes(), 1.0)
}

// MeanJobMinutes is the default duration distribution's truncated mean,
// estimated once per process by fixed-seed Monte Carlo.
func MeanJobMinutes() float64 { return meanJobMinutes() }

var meanJobMinutes = sync.OnceValue(truncatedMeanMinutes)

// truncatedMeanMinutes estimates the truncated duration mean by fixed-seed
// Monte Carlo — deterministic, and accurate to well under a percent with
// 200k samples.
func truncatedMeanMinutes() float64 {
	r := sim.NewRNG(0x7ca11b)
	const n = 200000
	dd := workload.DefaultDurations()
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += dd.Sample(r).Minutes()
	}
	return sum / n
}
