package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Fig11Scale scales the §4.3 capping-vs-Ampere latency comparison to the
// paper's deployment size: a 100k-server fleet where a block of "service
// rows" hosts a millions-of-users interactive service (client classes with
// steady, diurnal and flash-crowd arrival processes — see service.Class)
// alongside a hot batch product, pressing each service row past its PDU
// budget, while the remaining rows are cooler absorbers with headroom.
//
// Under DVFS capping the hot rows ride at their budget with every server
// slowed, so request service times stretch and queues build — worst exactly
// when a flash crowd lands on the diurnal peak. Under Ampere the controller
// freezes batch-heavy servers on the hot rows and the scheduler displaces
// their jobs onto the absorbers (§4.1.2), so the service instances keep
// full frequency; the capper stays wired underneath as the rarely-triggered
// safety net, its budget following the controller's via SetBudget.
type Fig11ScaleConfig struct {
	Seed       uint64
	Rows       int
	RowServers int
	// ServiceRows is the number of hot rows hosting service instances; the
	// remaining Rows−ServiceRows rows are absorbers and must exist (frozen
	// hot-row load needs somewhere to displace).
	ServiceRows int
	// ServicePerRow instances are pinned per hot row, spread at even stride;
	// each reserves ServiceContainers scheduler containers on its host.
	ServicePerRow     int
	ServiceContainers int
	// ServiceUsers and RPSPerUser parameterize the three default client
	// classes (service.DefaultClasses): aggregate base rate is their product.
	ServiceUsers int
	RPSPerUser   float64
	// OpScale multiplies the redis-benchmark service times (and SLOs), so
	// the same per-instance utilization needs proportionally fewer simulated
	// requests; Fig 11 reports relative inflation, so the scale cancels.
	OpScale float64
	// HotBatchFrac is the batch-only power fraction the hot product sustains
	// on the service rows (their total adds the pinned reservations on top);
	// BaseBatchFrac is the absorbers' batch power fraction, low enough to
	// leave displacement headroom under the same budget.
	HotBatchFrac  float64
	BaseBatchFrac float64
	// BudgetFrac sets every row's budget as a fraction of the row rating.
	BudgetFrac float64
	// DiurnalAmplitude swings the hot product's arrival rate; the peak is
	// centred on the measure window (the diurnal service class follows it).
	DiurnalAmplitude float64
	Kr               float64
	// MaxFreezeRatio loosens the paper's operational 0.5: with the service
	// reservations pinned, draining a deeply over-budget hot row can need
	// more than half its servers frozen.
	MaxFreezeRatio float64
	// CapperInterval is the reaction period of the capping loop (default 5 s
	// — fast against the 1-minute control tick, affordable at 100k servers).
	CapperInterval sim.Duration
	Warmup         sim.Duration
	Measure        sim.Duration
	// Parallel fans the two regimes; CtlParallel fans each controller's plan
	// phase. Neither changes output (DESIGN.md §7).
	Parallel    int
	CtlParallel int
}

// DefaultFig11Scale is the full-scale configuration: 250 rows × 400 servers
// (100k), 50 hot rows carrying 2 000 pinned instances serving 3 million
// simulated users (~117k req/s aggregate, ρ ≈ 0.4 per instance at full
// speed).
func DefaultFig11Scale() Fig11ScaleConfig {
	return Fig11ScaleConfig{
		Seed:              11,
		Rows:              250,
		RowServers:        400,
		ServiceRows:       50,
		ServicePerRow:     40,
		ServiceContainers: 16,
		ServiceUsers:      3_000_000,
		RPSPerUser:        0.039,
		OpScale:           40,
		HotBatchFrac:      0.832,
		BaseBatchFrac:     0.70,
		BudgetFrac:        0.78,
		DiurnalAmplitude:  0.08,
		MaxFreezeRatio:    0.7,
		Warmup:            40 * sim.Minute,
		Measure:           60 * sim.Minute,
	}
}

// QuickFig11Scale shrinks the fleet and population for tests and -quick
// runs, preserving every per-server and per-instance intensity (utilization,
// ρ, budget pressure) of the full configuration.
func QuickFig11Scale() Fig11ScaleConfig {
	cfg := DefaultFig11Scale()
	cfg.Rows, cfg.RowServers = 3, 80
	cfg.ServiceRows, cfg.ServicePerRow = 1, 8
	cfg.ServiceUsers, cfg.RPSPerUser = 30_000, 0.0155
	cfg.Warmup, cfg.Measure = 30*sim.Minute, 40*sim.Minute
	return cfg
}

// Fig11ScaleClassRow is one client class's outcome across the two regimes.
type Fig11ScaleClassRow struct {
	Class          string
	P999CappingUS  float64
	P999AmpereUS   float64
	Inflation      float64
	SLOMissCapping float64
	SLOMissAmpere  float64
}

// Fig11ScaleResult is the scaled comparison: per-operation rows (same shape
// as Fig 11), per-class rows, and the aggregate tail/SLO headline.
type Fig11ScaleResult struct {
	Ops     []Fig11Row
	Classes []Fig11ScaleClassRow
	// Aggregate 99.9th percentile over every class and operation.
	AggP999CappingUS float64
	AggP999AmpereUS  float64
	AggInflation     float64
	// Total SLO-miss fractions over every class and operation.
	SLOMissCapping float64
	SLOMissAmpere  float64
	// Capped server-interval fractions on the hot rows during the measure
	// window.
	CappedServerFracCapping float64
	CappedServerFracAmpere  float64
	// FrozenServerMinutes integrates Ampere's frozen count over the measure
	// window (the capacity cost of protecting the tail).
	FrozenServerMinutes int64
	ServedCapping       int64
	ServedAmpere        int64
}

type fig11ScaleScenario struct {
	opP999    []float64
	opMiss    []float64
	classes   []string
	classP999 []float64
	classMiss []float64
	aggP999   float64
	totalMiss float64
	capped    float64
	frozenMin int64
	served    int64
}

// RunFig11Scale faces the capping and Ampere regimes against the identical
// fleet, batch demand and client traffic.
func RunFig11Scale(cfg Fig11ScaleConfig) (*Fig11ScaleResult, error) {
	if cfg.ServiceRows < 1 || cfg.ServiceRows >= cfg.Rows {
		return nil, fmt.Errorf("experiment: %d service rows of %d total (absorber rows required)",
			cfg.ServiceRows, cfg.Rows)
	}
	if cfg.ServicePerRow < 1 || cfg.ServicePerRow > cfg.RowServers {
		return nil, fmt.Errorf("experiment: %d service instances on a %d-server row",
			cfg.ServicePerRow, cfg.RowServers)
	}
	if cfg.ServiceUsers <= 0 || !(cfg.RPSPerUser > 0) {
		return nil, fmt.Errorf("experiment: service population %d users × %v rps invalid",
			cfg.ServiceUsers, cfg.RPSPerUser)
	}
	if cfg.BudgetFrac <= 0 || cfg.BudgetFrac > 1 {
		return nil, fmt.Errorf("experiment: budget fraction %v outside (0,1]", cfg.BudgetFrac)
	}
	scens, err := runUnits(cfg.Parallel, []string{"capping", "ampere"}, func(i int) (*fig11ScaleScenario, error) {
		return runFig11ScaleScenario(cfg, i == 1)
	})
	if err != nil {
		return nil, err
	}
	capOnly, amp := scens[0], scens[1]
	res := &Fig11ScaleResult{
		AggP999CappingUS:        capOnly.aggP999,
		AggP999AmpereUS:         amp.aggP999,
		SLOMissCapping:          capOnly.totalMiss,
		SLOMissAmpere:           amp.totalMiss,
		CappedServerFracCapping: capOnly.capped,
		CappedServerFracAmpere:  amp.capped,
		FrozenServerMinutes:     amp.frozenMin,
		ServedCapping:           capOnly.served,
		ServedAmpere:            amp.served,
	}
	if res.AggP999AmpereUS > 0 {
		res.AggInflation = res.AggP999CappingUS / res.AggP999AmpereUS
	}
	ops := scaledOpsBy(cfg.OpScale)
	for i, op := range ops {
		row := Fig11Row{
			Op:             op.Name,
			P999CappingUS:  capOnly.opP999[i],
			P999AmpereUS:   amp.opP999[i],
			SLOMissCapping: capOnly.opMiss[i],
			SLOMissAmpere:  amp.opMiss[i],
		}
		if row.P999AmpereUS > 0 {
			row.Inflation = row.P999CappingUS / row.P999AmpereUS
		}
		res.Ops = append(res.Ops, row)
	}
	for c, name := range capOnly.classes {
		row := Fig11ScaleClassRow{
			Class:          name,
			P999CappingUS:  capOnly.classP999[c],
			P999AmpereUS:   amp.classP999[c],
			SLOMissCapping: capOnly.classMiss[c],
			SLOMissAmpere:  amp.classMiss[c],
		}
		if row.P999AmpereUS > 0 {
			row.Inflation = row.P999CappingUS / row.P999AmpereUS
		}
		res.Classes = append(res.Classes, row)
	}
	return res, nil
}

// scaledOpsBy returns the Fig 11 operation set with service times and SLOs
// scaled ×k (0 = ×10, the classic fig11 scale).
func scaledOpsBy(k float64) []service.Op {
	if k <= 0 {
		k = 10
	}
	ops := service.DefaultOps()
	for i := range ops {
		ops[i].BaseServiceUS *= k
		ops[i].SLOUS *= k
	}
	return ops
}

func runFig11ScaleScenario(cfg Fig11ScaleConfig, ampere bool) (*fig11ScaleScenario, error) {
	warmup, measure := cfg.Warmup, cfg.Measure
	if warmup == 0 {
		warmup = 40 * sim.Minute
	}
	if measure == 0 {
		measure = 60 * sim.Minute
	}
	capInterval := cfg.CapperInterval
	if capInterval == 0 {
		capInterval = 5 * sim.Second
	}
	// Centre the diurnal peak (batch and service alike) on the measure
	// window: the comparison is about behaviour while demand presses
	// hardest against the budget.
	peak := float64(warmup+measure/2) / float64(sim.Hour)
	for peak >= 24 {
		peak -= 24
	}

	spec, err := stack.RowSpec(cfg.Rows, cfg.RowServers)
	if err != nil {
		return nil, err
	}
	hotServers := cfg.ServiceRows * cfg.RowServers
	baseServers := (cfg.Rows - cfg.ServiceRows) * cfg.RowServers
	hot := workload.DefaultProduct("svc-batch", stack.PerServerRate(spec, cfg.HotBatchFrac)*float64(hotServers))
	hot.DiurnalAmplitude = cfg.DiurnalAmplitude
	hot.PeakHour = peak
	hot.SurgeProb = 0
	base := workload.DefaultProduct("base", stack.PerServerRate(spec, cfg.BaseBatchFrac)*float64(baseServers))
	// Hold the absorbers steady: their role is guaranteed headroom.
	base.DiurnalAmplitude = 0
	base.SurgeProb = 0

	// Row affinity: the hot product prefers the service rows (overflowing to
	// the absorbers only when those rows cannot fit a job — which is exactly
	// what freezing causes); the base product stays off the service rows.
	hotW := make([]float64, cfg.Rows)
	baseW := make([]float64, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		if r < cfg.ServiceRows {
			hotW[r] = 1
		} else {
			baseW[r] = 1
		}
	}

	rig, err := stack.New(stack.Config{
		Seed:           cfg.Seed,
		Cluster:        spec,
		Products:       []workload.Product{hot, base},
		ProductWeights: [][]float64{hotW, baseW},
	})
	if err != nil {
		return nil, err
	}
	rowBudget := spec.RowRatedPowerW() * cfg.BudgetFrac

	// Pin the service instances across the hot rows at even stride.
	stride := cfg.RowServers / cfg.ServicePerRow
	var hosts []*cluster.Server
	for r := 0; r < cfg.ServiceRows; r++ {
		row := rig.Cluster.Row(r)
		for i := 0; i < cfg.ServicePerRow; i++ {
			sv := row[i*stride]
			if err := rig.Sched.Reserve(sv.ID, cfg.ServiceContainers, float64(cfg.ServiceContainers)); err != nil {
				return nil, err
			}
			hosts = append(hosts, sv)
		}
	}
	classes := service.DefaultClasses(cfg.ServiceUsers, cfg.RPSPerUser)
	for i := range classes {
		if classes[i].Kind == service.Diurnal {
			classes[i].PeakHour = peak
		}
	}
	svc, err := service.New(rig.Eng, cfg.Seed, service.Config{
		Classes: classes,
		Ops:     scaledOpsBy(cfg.OpScale),
		Window:  10 * sim.Second,
	}, hosts)
	if err != nil {
		return nil, err
	}

	// The capper guards every hot row in both regimes: the baseline in the
	// capping regime, the safety net in the Ampere one.
	domains := make([]capping.Domain, cfg.ServiceRows)
	for r := 0; r < cfg.ServiceRows; r++ {
		domains[r] = capping.Domain{
			Name:    fmt.Sprintf("row/%d", r),
			Servers: rig.Cluster.Row(r),
			BudgetW: rowBudget,
		}
	}
	capper, err := capping.New(rig.Eng, capping.Config{Interval: capInterval}, domains)
	if err != nil {
		return nil, err
	}

	var ctl *core.Controller
	if ampere {
		cdom := make([]core.Domain, cfg.ServiceRows)
		for r := 0; r < cfg.ServiceRows; r++ {
			cdom[r] = core.Domain{
				Name: fmt.Sprintf("row%d", r), Servers: rig.Cluster.RowIDs(r),
				BudgetW: rowBudget * gridMargin, Kr: cfg.Kr,
				Et: core.ConstantEt(0.03),
			}
		}
		ccfg := core.DefaultConfig()
		ccfg.Parallel = cfg.CtlParallel
		if cfg.MaxFreezeRatio > 0 {
			ccfg.MaxFreezeRatio = cfg.MaxFreezeRatio
		}
		ctl, err = core.New(rig.Eng, rig.Mon, rig.Sched, ccfg, cdom)
		if err != nil {
			return nil, err
		}
		// The safety net protects what the controller enforces: if an
		// operator (or a grid event) moves a domain budget, the last-resort
		// cap follows.
		ctl.OnBudgetChange(func(bc core.BudgetChange) {
			if err := capper.SetBudget(bc.Domain, bc.NewW/gridMargin); err != nil {
				panic(err) // NewW is controller-validated; this cannot fail
			}
		})
	}

	rig.Start()
	if ctl != nil {
		ctl.Start()
	}
	capper.Start()
	if err := rig.Run(sim.Time(warmup)); err != nil {
		return nil, err
	}

	// Measure window: snapshot capper counters, start the client traffic,
	// and (under Ampere) integrate the frozen count per minute.
	preStats := make([]capping.Stats, cfg.ServiceRows)
	for r := range preStats {
		preStats[r] = capper.Stats(r)
	}
	out := &fig11ScaleScenario{}
	if ctl != nil {
		rig.Eng.Every(rig.Eng.Now(), sim.Minute, "fig11scale-frozen", func(sim.Time) {
			for r := 0; r < cfg.ServiceRows; r++ {
				out.frozenMin += int64(ctl.FrozenCount(r))
			}
		})
	}
	svc.Start()
	if err := rig.Run(sim.Time(warmup + measure)); err != nil {
		return nil, err
	}

	ops := svc.Ops()
	for i := range ops {
		if svc.Served(i) == 0 {
			return nil, fmt.Errorf("experiment: op %s served no requests", ops[i].Name)
		}
		out.opP999 = append(out.opP999, svc.LatencyQuantileUS(i, 0.999))
		out.opMiss = append(out.opMiss, svc.SLOMissRate(i))
	}
	for c, cl := range svc.Classes() {
		out.classes = append(out.classes, cl.Name)
		out.classP999 = append(out.classP999, svc.ClassLatencyQuantileUS(c, 0.999))
		out.classMiss = append(out.classMiss, svc.ClassSLOMissRate(c))
	}
	out.aggP999 = svc.AggregateLatencyQuantileUS(0.999)
	out.totalMiss = svc.TotalSLOMissRate()
	out.served = svc.TotalServed()
	var samples, cappedSamples int64
	for r := 0; r < cfg.ServiceRows; r++ {
		st := capper.Stats(r)
		samples += st.ServerSamples - preStats[r].ServerSamples
		cappedSamples += st.CappedServerSamples - preStats[r].CappedServerSamples
	}
	if samples > 0 {
		out.capped = float64(cappedSamples) / float64(samples)
	}
	return out, nil
}

// WriteCSV exports every per-op and per-class row with its SLO-miss columns
// (kind is "op" or "class"), plus an aggregate row.
func (res *Fig11ScaleResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "name", "p999_capping_us", "p999_ampere_us",
		"inflation", "slo_miss_capping", "slo_miss_ampere"}); err != nil {
		return err
	}
	rec := func(kind, name string, pc, pa, inf, mc, ma float64) []string {
		return []string{kind, name,
			strconv.FormatFloat(pc, 'g', 8, 64), strconv.FormatFloat(pa, 'g', 8, 64),
			strconv.FormatFloat(inf, 'g', 8, 64), strconv.FormatFloat(mc, 'g', 8, 64),
			strconv.FormatFloat(ma, 'g', 8, 64)}
	}
	for _, r := range res.Ops {
		if err := cw.Write(rec("op", r.Op, r.P999CappingUS, r.P999AmpereUS,
			r.Inflation, r.SLOMissCapping, r.SLOMissAmpere)); err != nil {
			return err
		}
	}
	for _, r := range res.Classes {
		if err := cw.Write(rec("class", r.Class, r.P999CappingUS, r.P999AmpereUS,
			r.Inflation, r.SLOMissCapping, r.SLOMissAmpere)); err != nil {
			return err
		}
	}
	if err := cw.Write(rec("aggregate", "all", res.AggP999CappingUS, res.AggP999AmpereUS,
		res.AggInflation, res.SLOMissCapping, res.SLOMissAmpere)); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// FormatFig11Scale renders the scaled comparison with SLO-miss columns; all
// output is deterministic at a fixed seed and independent of
// Parallel/CtlParallel.
func FormatFig11Scale(w io.Writer, cfg Fig11ScaleConfig, res *Fig11ScaleResult) {
	fmt.Fprintf(w, "Fig 11 at scale: %d servers (%d hot rows of %d), %d instances, %d users\n",
		cfg.Rows*cfg.RowServers, cfg.ServiceRows, cfg.Rows, cfg.ServiceRows*cfg.ServicePerRow,
		cfg.ServiceUsers)
	fmt.Fprintf(w, "  %-12s %12s %12s %6s %10s %10s\n",
		"op", "p999-cap(µs)", "p999-amp(µs)", "ratio", "miss-cap%", "miss-amp%")
	for _, r := range res.Ops {
		fmt.Fprintf(w, "  %-12s %12.0f %12.0f %6.2f %10.3f %10.3f\n",
			r.Op, r.P999CappingUS, r.P999AmpereUS, r.Inflation,
			r.SLOMissCapping*100, r.SLOMissAmpere*100)
	}
	fmt.Fprintf(w, "  %-12s %12s %12s %6s %10s %10s\n",
		"class", "p999-cap(µs)", "p999-amp(µs)", "ratio", "miss-cap%", "miss-amp%")
	for _, r := range res.Classes {
		fmt.Fprintf(w, "  %-12s %12.0f %12.0f %6.2f %10.3f %10.3f\n",
			r.Class, r.P999CappingUS, r.P999AmpereUS, r.Inflation,
			r.SLOMissCapping*100, r.SLOMissAmpere*100)
	}
	fmt.Fprintf(w, "  aggregate p999: capping %.0f µs vs ampere %.0f µs (%.2f×); SLO miss %.3f%% vs %.3f%%\n",
		res.AggP999CappingUS, res.AggP999AmpereUS, res.AggInflation,
		res.SLOMissCapping*100, res.SLOMissAmpere*100)
	fmt.Fprintf(w, "  capped server-intervals: %.2f%% (capping) vs %.2f%% (ampere safety net); frozen server-minutes %d\n",
		res.CappedServerFracCapping*100, res.CappedServerFracAmpere*100, res.FrozenServerMinutes)
	fmt.Fprintf(w, "  served: %d (capping) vs %d (ampere)\n", res.ServedCapping, res.ServedAmpere)
}
