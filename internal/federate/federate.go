// Package federate scales the substrate past one data center: N fully
// isolated per-DC simulation stacks (cluster, scheduler, monitor, workload,
// and an unmodified core.Controller each) advance in lockstep epochs under a
// global coordinator that reallocates budget headroom between DCs through
// the controllers' validated SetBudget path.
//
// The sharding rule is the whole concurrency story: a DC is a shard, every
// mutable object belongs to exactly one shard, and the parallel phases
// (epoch advance, federated controller tick, batched scheduler applies) fan
// whole shards across workers — a worker only ever touches the state of the
// shard it was handed. Coordinator logic (telemetry collection, headroom
// reallocation, command delivery) runs serially between the barriers in
// DC-index order. Output is therefore byte-identical at any worker count,
// the same DESIGN.md §7 contract the controller's plan phase obeys, without
// any cross-shard locking.
//
// WAN delay is modeled on both directions of the coordinator link: the
// coordinator reads each DC's telemetry DelayEpochs epochs late, and its
// SetBudget commands take effect DelayEpochs epochs after they are issued,
// at an epoch boundary of the receiving DC. See DESIGN.md §11.
package federate

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/runner"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// DCSpec describes one data center shard.
type DCSpec struct {
	// Name labels the DC and salts its sub-seed; must be unique.
	Name string
	// Rows is the fleet size in rows of RowServers servers.
	Rows int
	// RowServers is the row width (default 400, multiple of 20).
	RowServers int
	// TargetFrac steers the DC's uncontrolled load to this fraction of rated
	// power; heterogeneous values make the reallocation meaningful.
	TargetFrac float64
	// PeakHour is the local diurnal peak (hour of virtual day) — the
	// time-zone offset of a geo-distributed family.
	PeakHour float64
	// DiurnalAmplitude overrides the workload's daily swing (0 keeps the
	// generator default).
	DiurnalAmplitude float64
	// BudgetFrac sets the DC's base budget as a fraction of its rated power
	// (default 0.8, the experiments' 1/1.25 over-provisioning).
	BudgetFrac float64
	// ReservePerServer pins that many containers per server at build time —
	// long-running service load seeded through the batched scheduler API.
	ReservePerServer int
}

// Coordinator tuning.
const (
	// epochLen is the lockstep advance quantum: one minute, matching the
	// controllers' interval, so every epoch barrier is a federated tick.
	epochLen = sim.Minute
	// margin is the demand headroom the coordinator grants above observed
	// power when computing a DC's wanted budget.
	margin = 0.08
	// floorFrac and capFrac bound a DC's allocation to [floorFrac,
	// capFrac]×base; capFrac stays below the SetBudget validation ceiling
	// (2.0×base).
	floorFrac, capFrac = 0.6, 1.5
	// maxShiftFrac bounds one reallocation's move to that fraction of a
	// DC's base budget — the coordinator is a slow outer loop, not a second
	// fast controller.
	maxShiftFrac = 0.10
)

// Config assembles a Federation.
type Config struct {
	Seed uint64
	DCs  []DCSpec
	// CadenceEpochs is the coordinator's reallocation period (default 15).
	CadenceEpochs int
	// DelayEpochs is the one-way WAN delay, in epochs, applied to telemetry
	// reads and to command delivery (default 2).
	DelayEpochs int
	// Workers fans the parallel phases across that many shard workers
	// (0/1 = serial, -1 = GOMAXPROCS). Output is identical at any value.
	Workers int
	// CtlParallel is passed to each DC controller's plan-phase fan-out.
	CtlParallel int
	// Retention bounds each DC's TSDB series length (0 = unlimited).
	Retention int
}

func (cfg Config) withDefaults() Config {
	if cfg.CadenceEpochs == 0 {
		cfg.CadenceEpochs = 15
	}
	if cfg.DelayEpochs == 0 {
		cfg.DelayEpochs = 2
	}
	for i := range cfg.DCs {
		d := &cfg.DCs[i]
		if d.RowServers == 0 {
			d.RowServers = 400
		}
		if d.TargetFrac == 0 {
			d.TargetFrac = 0.70
		}
		if d.BudgetFrac == 0 {
			d.BudgetFrac = 0.8
		}
	}
	return cfg
}

// Validate reports configuration errors, naming the offending field.
func (cfg Config) Validate() error {
	switch {
	case len(cfg.DCs) == 0:
		return fmt.Errorf("federate: need at least one DC")
	case cfg.CadenceEpochs < 1:
		return fmt.Errorf("federate: CadenceEpochs %d must be ≥1", cfg.CadenceEpochs)
	case cfg.DelayEpochs < 0:
		return fmt.Errorf("federate: negative DelayEpochs %d", cfg.DelayEpochs)
	}
	seen := make(map[string]bool, len(cfg.DCs))
	for i, d := range cfg.DCs {
		switch {
		case d.Name == "":
			return fmt.Errorf("federate: DC %d has no name", i)
		case seen[d.Name]:
			return fmt.Errorf("federate: duplicate DC name %q", d.Name)
		case d.Rows < 1:
			return fmt.Errorf("federate: DC %q rows %d must be ≥1", d.Name, d.Rows)
		case d.RowServers <= 0 || d.RowServers%stack.ServersPerRack != 0:
			return fmt.Errorf("federate: DC %q row servers %d must be a positive multiple of %d",
				d.Name, d.RowServers, stack.ServersPerRack)
		case math.IsNaN(d.TargetFrac) || d.TargetFrac <= 0 || d.TargetFrac > 1:
			return fmt.Errorf("federate: DC %q target frac %v outside (0,1]", d.Name, d.TargetFrac)
		case math.IsNaN(d.BudgetFrac) || d.BudgetFrac <= 0 || d.BudgetFrac > 1:
			return fmt.Errorf("federate: DC %q budget frac %v outside (0,1]", d.Name, d.BudgetFrac)
		case d.ReservePerServer < 0:
			return fmt.Errorf("federate: DC %q negative ReservePerServer %d", d.Name, d.ReservePerServer)
		}
		seen[d.Name] = true
	}
	return nil
}

// DC is one assembled shard. Everything reachable from a DC is owned by that
// shard; only the worker currently holding the shard (or the coordinator,
// between barriers) may touch it.
type DC struct {
	*stack.Stack
	Name string
	Spec cluster.Spec
	Ctl  *core.Controller

	batch      *scheduler.Batch
	errScratch []scheduler.BatchError
	batchErrs  []scheduler.BatchError
	runErr     error
	rows       int
}

// Telemetry is one DC's state at an epoch boundary, as sampled by the
// coordinator (excluding wall clock, so telemetry is fully deterministic).
type Telemetry struct {
	PowerW    float64 // DC total power at the epoch's monitor sample
	BudgetW   float64 // allocation in force at the DC during the epoch
	Frozen    int
	Queue     int
	Placed    int64
	Completed int64
}

// ShardError attributes a batched-scheduler op failure to its shard; Advance
// merges them in (shard, op-index) order.
type ShardError struct {
	DC int
	scheduler.BatchError
}

// command is a WAN-delayed coordinator order: set dc's total budget at the
// start of epoch applyEpoch.
type command struct {
	applyEpoch int
	dc         int
	budgetW    float64
}

type phase uint8

const (
	phaseAdvance phase = iota
	phaseTick
	phasePin
)

// Federation is the assembled two-level system.
type Federation struct {
	cfg  Config
	DCs  []*DC
	loop *runner.Loop

	epoch int // completed epochs
	until sim.Time
	phase phase

	base   []float64 // per-DC base budgets (the pool)
	alloc  []float64 // allocation currently in force at each DC
	target []float64 // last commanded allocation (in flight or in force)
	cmds   []command

	telem [][]Telemetry

	tickN   int
	tickSum time.Duration
	tickMax time.Duration
}

// New builds every shard (each from a labeled sub-seed of cfg.Seed, so DC
// identity — not list order — determines its streams), starts the per-DC
// monitors and generators, and seeds any pinned service load through
// per-shard scheduler batches applied by shard-owned workers.
func New(cfg Config) (*Federation, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Federation{
		cfg:    cfg,
		base:   make([]float64, len(cfg.DCs)),
		alloc:  make([]float64, len(cfg.DCs)),
		target: make([]float64, len(cfg.DCs)),
		telem:  make([][]Telemetry, len(cfg.DCs)),
	}
	for i, d := range cfg.DCs {
		spec, err := stack.RowSpec(d.Rows, d.RowServers)
		if err != nil {
			return nil, fmt.Errorf("federate: DC %q: %w", d.Name, err)
		}
		product := workload.DefaultProduct(d.Name, stack.PerServerRate(spec, d.TargetFrac)*float64(spec.TotalServers()))
		if d.PeakHour > 0 {
			product.PeakHour = d.PeakHour
		}
		if d.DiurnalAmplitude > 0 {
			product.DiurnalAmplitude = d.DiurnalAmplitude
		}
		sk, err := stack.New(stack.Config{
			Seed:      sim.SubSeed(cfg.Seed, "dc/"+d.Name),
			Cluster:   spec,
			Products:  []workload.Product{product},
			Retention: cfg.Retention,
		})
		if err != nil {
			return nil, fmt.Errorf("federate: DC %q: %w", d.Name, err)
		}

		baseDC := d.BudgetFrac * spec.RowRatedPowerW() * float64(d.Rows)
		ccfg := core.DefaultConfig()
		ccfg.Parallel = cfg.CtlParallel
		ccfg.EtWindow = 60
		domains := make([]core.Domain, d.Rows)
		for r := 0; r < d.Rows; r++ {
			domains[r] = core.Domain{
				Name: monitor.SeriesRow(r), Servers: sk.Cluster.RowIDs(r),
				BudgetW: baseDC / float64(d.Rows),
			}
		}
		ctl, err := core.New(sk.Eng, sk.Mon, sk.Sched, ccfg, domains)
		if err != nil {
			return nil, fmt.Errorf("federate: DC %q: %w", d.Name, err)
		}
		// The monitor and generator live on the DC's engine; the controller
		// is stepped by the coordinator at each epoch barrier (the federated
		// tick), which reproduces the monitor-before-controller ordering a
		// same-engine Start() would give.
		sk.Start()

		dc := &DC{Stack: sk, Name: d.Name, Spec: spec, Ctl: ctl, rows: d.Rows}
		dc.batch = sk.Sched.NewBatch()
		f.DCs = append(f.DCs, dc)
		f.base[i], f.alloc[i], f.target[i] = baseDC, baseDC, baseDC
	}
	f.loop = runner.NewLoop(f.runDC)

	// Pinned service load: stage per-shard reservation batches and apply
	// them on shard-owned workers — the batched scheduler API's build-time
	// consumer. Errors merge in (shard, index) order.
	pinned := false
	for i, d := range cfg.DCs {
		if d.ReservePerServer == 0 {
			continue
		}
		if d.ReservePerServer > f.DCs[i].Spec.Containers {
			return nil, fmt.Errorf("federate: DC %q pins %d containers per server, capacity %d",
				d.Name, d.ReservePerServer, f.DCs[i].Spec.Containers)
		}
		pinned = true
		for _, sv := range f.DCs[i].Cluster.Servers {
			f.DCs[i].batch.Reserve(sv.ID, d.ReservePerServer, float64(d.ReservePerServer))
		}
	}
	if pinned {
		f.phase = phasePin
		f.loop.Run(f.workers(), len(f.DCs))
		for _, dc := range f.DCs {
			if len(dc.batchErrs) > 0 {
				f.Close()
				return nil, fmt.Errorf("federate: DC %q pin op %d: %w",
					dc.Name, dc.batchErrs[0].Index, dc.batchErrs[0].Err)
			}
		}
	}
	return f, nil
}

// Close releases the shard worker goroutines the federation and its DC
// controllers park between epochs; a discarded Federation must be closed or
// those goroutines keep every shard alive. Accessors stay valid, and an
// Advance after Close runs the shards serially.
func (f *Federation) Close() {
	f.loop.Close()
	for _, dc := range f.DCs {
		dc.Ctl.Close()
	}
}

func (f *Federation) workers() int {
	w := f.cfg.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w == 0 {
		w = 1
	}
	return w
}

// runDC is the shard worker body for every parallel phase; the phase field
// is set serially before each barrier.
func (f *Federation) runDC(i int) {
	dc := f.DCs[i]
	switch f.phase {
	case phasePin:
		dc.batchErrs = dc.batch.Apply(dc.errScratch[:0])
	case phaseAdvance:
		if dc.batch.Len() > 0 {
			dc.batchErrs = dc.batch.Apply(dc.errScratch[:0])
		}
		dc.runErr = dc.Eng.RunUntil(f.until)
	case phaseTick:
		dc.Ctl.Step(f.until)
	}
}

// Batch returns DC i's staging batch. Staged ops are applied by the shard's
// worker at the start of the next Advance epoch, before the engine advances;
// failures surface in Advance's merged ShardError list.
func (f *Federation) Batch(i int) *scheduler.Batch { return f.DCs[i].batch }

// Advance runs the federation forward by the given number of epochs:
// deliver due coordinator commands (serial, DC order) → apply staged shard
// batches and advance every DC engine one epoch (parallel over shards) →
// step every DC controller (parallel over shards — the federated tick, the
// timed quantity) → sample telemetry and merge batch errors (serial, DC
// order) → reallocate at cadence boundaries. Returns the batched-scheduler
// errors merged in (shard, op-index) order; the error return is reserved
// for engine and command failures, which abort the epoch loop.
func (f *Federation) Advance(epochs int) ([]ShardError, error) {
	var errs []ShardError
	for k := 0; k < epochs; k++ {
		if err := f.applyDueCommands(); err != nil {
			return errs, err
		}
		f.until = sim.Time(f.epoch+1) * sim.Time(epochLen)

		f.phase = phaseAdvance
		f.loop.Run(f.workers(), len(f.DCs))
		for _, dc := range f.DCs {
			if dc.runErr != nil {
				return errs, fmt.Errorf("federate: DC %q: %w", dc.Name, dc.runErr)
			}
		}

		start := time.Now()
		f.phase = phaseTick
		f.loop.Run(f.workers(), len(f.DCs))
		tick := time.Since(start)
		f.tickN++
		f.tickSum += tick
		if tick > f.tickMax {
			f.tickMax = tick
		}

		for i, dc := range f.DCs {
			f.telem[i] = append(f.telem[i], f.observe(i, dc))
			for _, be := range dc.batchErrs {
				errs = append(errs, ShardError{DC: i, BatchError: be})
			}
			dc.batchErrs = nil
		}
		f.epoch++
		if f.epoch%f.cfg.CadenceEpochs == 0 {
			f.reallocate()
		}
	}
	return errs, nil
}

func (f *Federation) observe(i int, dc *DC) Telemetry {
	power := 0.0
	for r := 0; r < dc.rows; r++ {
		if p, ok := dc.Mon.RowPower(r); ok {
			power += p
		}
	}
	frozen := 0
	for r := 0; r < dc.rows; r++ {
		frozen += dc.Ctl.FrozenCount(r)
	}
	st := dc.Sched.Stats()
	return Telemetry{
		PowerW: power, BudgetW: f.alloc[i], Frozen: frozen,
		Queue: dc.Sched.QueueLen(), Placed: st.Placed, Completed: st.Completed,
	}
}

// applyDueCommands delivers every command due at the current epoch boundary,
// in issue order (which is DC order within one reallocation), through the
// controllers' validated SetBudget path — one per row domain.
func (f *Federation) applyDueCommands() error {
	kept := f.cmds[:0]
	for _, cmd := range f.cmds {
		if cmd.applyEpoch > f.epoch {
			kept = append(kept, cmd)
			continue
		}
		dc := f.DCs[cmd.dc]
		perRow := cmd.budgetW / float64(dc.rows)
		for r := 0; r < dc.rows; r++ {
			if err := dc.Ctl.SetBudget(r, perRow); err != nil {
				return fmt.Errorf("federate: DC %q row %d: %w", dc.Name, r, err)
			}
		}
		f.alloc[cmd.dc] = cmd.budgetW
	}
	f.cmds = kept
	return nil
}

// reallocate is the coordinator's water-fill over the shared budget pool
// (Σ base). Each DC wants its WAN-delayed observed power plus margin,
// clamped to [floorFrac, capFrac]×base; leftovers are returned pro rata to
// base, deficits scale every DC's above-floor ask by a common ratio. The
// per-cadence move is clamped to maxShiftFrac×base and the result never
// exceeds the pool, so the coordinator conserves total provisioned power
// while chasing the diurnal peaks around the planet.
func (f *Federation) reallocate() {
	src := f.epoch - 1 - f.cfg.DelayEpochs // newest telemetry visible over the WAN
	if src < 0 {
		return
	}
	n := len(f.DCs)
	pool, sumFloor, sumWant := 0.0, 0.0, 0.0
	want := make([]float64, n)
	for d := 0; d < n; d++ {
		floor, cap := floorFrac*f.base[d], capFrac*f.base[d]
		w := f.telem[d][src].PowerW * (1 + margin)
		w = math.Min(math.Max(w, floor), cap)
		want[d] = w
		pool += f.base[d]
		sumFloor += floor
		sumWant += w
	}
	alloc := make([]float64, n)
	if sumWant <= pool {
		left := pool - sumWant
		for d := 0; d < n; d++ {
			add := left * f.base[d] / pool
			if max := capFrac*f.base[d] - want[d]; add > max {
				add = max
			}
			alloc[d] = want[d] + add
		}
	} else {
		ratio := (pool - sumFloor) / (sumWant - sumFloor)
		for d := 0; d < n; d++ {
			floor := floorFrac * f.base[d]
			alloc[d] = floor + ratio*(want[d]-floor)
		}
	}
	sum := 0.0
	for d := 0; d < n; d++ {
		if shift := maxShiftFrac * f.base[d]; math.Abs(alloc[d]-f.target[d]) > shift {
			if alloc[d] > f.target[d] {
				alloc[d] = f.target[d] + shift
			} else {
				alloc[d] = f.target[d] - shift
			}
		}
		sum += alloc[d]
	}
	if sum > pool {
		scale := pool / sum
		for d := 0; d < n; d++ {
			alloc[d] *= scale
		}
	}
	for d := 0; d < n; d++ {
		if math.Abs(alloc[d]-f.target[d]) < 1e-9*f.base[d] {
			continue
		}
		f.target[d] = alloc[d]
		f.cmds = append(f.cmds, command{applyEpoch: f.epoch + f.cfg.DelayEpochs, dc: d, budgetW: alloc[d]})
	}
}

// ShiftBudget issues an operator-initiated headroom transfer from one DC to
// another through the same WAN-delayed command path, clamped to the floor of
// the donor and the cap of the recipient. It returns the watts actually
// moved (possibly less than asked, zero when no headroom exists).
func (f *Federation) ShiftBudget(from, to int, watts float64) (float64, error) {
	if from < 0 || from >= len(f.DCs) || to < 0 || to >= len(f.DCs) || from == to {
		return 0, fmt.Errorf("federate: ShiftBudget DCs %d→%d out of range or equal", from, to)
	}
	if math.IsNaN(watts) || watts <= 0 {
		return 0, fmt.Errorf("federate: ShiftBudget of %v watts", watts)
	}
	give := math.Min(watts, f.target[from]-floorFrac*f.base[from])
	take := math.Min(give, capFrac*f.base[to]-f.target[to])
	if take <= 0 {
		return 0, nil
	}
	f.target[from] -= take
	f.target[to] += take
	at := f.epoch + f.cfg.DelayEpochs
	f.cmds = append(f.cmds,
		command{applyEpoch: at, dc: from, budgetW: f.target[from]},
		command{applyEpoch: at, dc: to, budgetW: f.target[to]})
	return take, nil
}

// Epochs returns the number of completed epochs.
func (f *Federation) Epochs() int { return f.epoch }

// BaseBudget returns DC i's base (provisioned) budget in watts.
func (f *Federation) BaseBudget(i int) float64 { return f.base[i] }

// Allocation returns DC i's budget currently in force.
func (f *Federation) Allocation(i int) float64 { return f.alloc[i] }

// Telemetry returns DC i's per-epoch coordinator samples.
func (f *Federation) Telemetry(i int) []Telemetry { return f.telem[i] }

// TickStats reports the federated controller tick's wall-clock profile:
// tick count, mean and max duration. Wall clock is progress data — report
// it to stderr, never into deterministic experiment output.
func (f *Federation) TickStats() (n int, mean, max time.Duration) {
	if f.tickN == 0 {
		return 0, 0, 0
	}
	return f.tickN, f.tickSum / time.Duration(f.tickN), f.tickMax
}

// ResetTickStats zeroes the tick profile. Call it after a warmup phase so
// TickStats reports the steady state: the very first tick pays one-time
// costs (growing every domain's ranking and candidate scratch) that would
// otherwise dominate max for the whole run.
func (f *Federation) ResetTickStats() {
	f.tickN, f.tickSum, f.tickMax = 0, 0, 0
}

// Servers returns the total server count across all DCs.
func (f *Federation) Servers() int {
	n := 0
	for _, dc := range f.DCs {
		n += dc.Spec.TotalServers()
	}
	return n
}

// Fingerprint renders every deterministic observable — per-DC telemetry
// series and final allocations — into one string. Two runs of the same
// configuration must produce identical fingerprints at any Workers /
// CtlParallel setting; the byte-identity tests diff them.
func (f *Federation) Fingerprint() string {
	var b strings.Builder
	for i, dc := range f.DCs {
		fmt.Fprintf(&b, "dc=%s servers=%d base=%.6f alloc=%.6f target=%.6f\n",
			dc.Name, dc.Spec.TotalServers(), f.base[i], f.alloc[i], f.target[i])
		for e, t := range f.telem[i] {
			fmt.Fprintf(&b, "  e=%d p=%.6f b=%.6f fz=%d q=%d pl=%d co=%d\n",
				e, t.PowerW, t.BudgetW, t.Frozen, t.Queue, t.Placed, t.Completed)
		}
	}
	return b.String()
}
