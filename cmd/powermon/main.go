// Command powermon runs the power monitor against a live simulated cluster
// and serves its time-series database over the RESTful HTTP API of §3.3.
// The simulation advances continuously (one simulated minute per real
// tick), optionally under Ampere control, so the API can be explored with
// curl while power moves:
//
//	powermon -addr :8080 -tick 200ms -ampere
//	powermon -dr-at 30 -dr-depth 0.2 -dr-dwell 60 -dr-ramp 0.02
//	curl 'http://localhost:8080/series'
//	curl 'http://localhost:8080/query?name=row/0&from=0'
//	curl 'http://localhost:8080/latest?name=dc'
//	curl 'http://localhost:8080/status'
//	curl 'http://localhost:8080/domains'
//	curl 'http://localhost:8080/healthz'
//	curl 'http://localhost:8080/metrics'
//	curl 'http://localhost:8080/events?n=10'
//	curl 'http://localhost:8080/whatif?alt=ramp=0.02&horizon=60'
//
// With -obs (the default) every subsystem registers its metrics on one
// registry served in Prometheus text format at /metrics, and each control
// tick appends a decision event to a ring-buffer journal served at /events.
// -pprof additionally mounts net/http/pprof under /debug/pprof/. On SIGINT
// or SIGTERM the server drains in-flight requests and, when -journal-out is
// set, flushes the journal to that path as JSONL before exiting.
//
// The -dr-* flags schedule one demand-response event: at -dr-at simulated
// minutes every row budget dips by -dr-depth for -dr-dwell minutes, applied
// -dr-ramp per tick (0 = cliff). Breakers follow the effective budget, so
// /metrics shows the heat consequences of the chosen ramp rate live.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		tick       = flag.Duration("tick", 200*time.Millisecond, "real time per simulated minute")
		rowServers = flag.Int("row-servers", 200, "servers per row")
		rows       = flag.Int("rows", 2, "rows")
		target     = flag.Float64("target", 0.75, "power target as fraction of rated")
		ro         = flag.Float64("ro", 0.25, "over-provisioning ratio")
		ampere     = flag.Bool("ampere", true, "run the Ampere controller")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		obsOn      = flag.Bool("obs", true, "serve /metrics and /events")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		journalCap = flag.Int("journal-cap", obs.DefaultJournalCap, "control-decision journal capacity (events)")
		journalOut = flag.String("journal-out", "", "flush the journal to this JSONL file on shutdown")
		ctlPar     = flag.Int("ctl-parallel", 0,
			"controller plan-phase workers (0/1 = serial, -1 = all CPUs); decisions are identical at any value")
		drAt     = flag.Float64("dr-at", 0, "demand-response event start, simulated minutes (0 = none)")
		drDepth  = flag.Float64("dr-depth", 0.2, "demand-response curtailment depth, fraction of budget")
		drDwell  = flag.Float64("dr-dwell", 60, "demand-response dwell, simulated minutes")
		drRamp   = flag.Float64("dr-ramp", 0.02, "budget ramp limit per tick as fraction of base (0 = cliff)")
		svcUsers = flag.Int("service-users", 0,
			"simulated users of a pinned interactive service (0 = none); adds service_* metric families")
		svcRPS       = flag.Float64("service-rps-per-user", 0.05, "per-user request rate (req/s)")
		svcInstances = flag.Int("service-instances", 4, "service instances pinned across the fleet")
		svcCtrs      = flag.Int("service-containers", 8, "containers reserved per service instance")
	)
	flag.Parse()
	cfg := runConfig{
		addr: *addr, tick: *tick, rows: *rows, rowServers: *rowServers,
		target: *target, ro: *ro, ampere: *ampere, seed: *seed,
		obs: *obsOn, pprof: *pprofOn, journalCap: *journalCap, journalOut: *journalOut,
		ctlParallel: *ctlPar,
		drAt:        *drAt, drDepth: *drDepth, drDwell: *drDwell, drRamp: *drRamp,
		svcUsers: *svcUsers, svcRPSPerUser: *svcRPS,
		svcInstances: *svcInstances, svcContainers: *svcCtrs,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "powermon:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	addr        string
	tick        time.Duration
	rows        int
	rowServers  int
	target      float64
	ro          float64
	ampere      bool
	seed        uint64
	obs         bool
	pprof       bool
	journalCap  int
	journalOut  string
	ctlParallel int
	drAt        float64
	drDepth     float64
	drDwell     float64
	drRamp      float64
	// svcUsers > 0 pins an interactive service across the fleet (see the
	// -service-users flag); all four knobs are part of the stack identity
	// the /whatif offline rebuild reproduces.
	svcUsers      int
	svcRPSPerUser float64
	svcInstances  int
	svcContainers int
}

type status struct {
	mu         sync.Mutex
	SimTime    string    `json:"sim_time"`
	SimMinutes int64     `json:"sim_minutes"`
	RowPowerW  []float64 `json:"row_power_w"`
	BudgetW    float64   `json:"row_budget_w"`
	// EffectiveW is each row's currently enforced budget — it departs from
	// BudgetW while a demand-response event is in force.
	EffectiveW []float64 `json:"effective_budget_w,omitempty"`
	Frozen     []int     `json:"frozen_per_row"`
	Violations []int64   `json:"violations_per_row"`
}

// deployment is one fully wired powermon simulation: stack, optional
// controller, observational breakers. buildStack produces it for both the
// live server and the /whatif offline replays — identical construction and
// start order is what makes an offline rebuild reproduce the live journal
// byte-for-byte (the whatif witness-verification contract).
type deployment struct {
	rig      *stack.Stack
	ctl      *core.Controller
	breakers []*breaker.Breaker
	budget   float64
	svc      *service.Service // nil unless -service-users > 0
}

// buildStack wires the whole simulation up to (and including) controller
// start. reg may be nil (the offline-replay case: metrics unregistered but
// journal still fed); journal may be nil only when cfg.obs is false.
func buildStack(cfg runConfig, reg *obs.Registry, journal *obs.Journal) (*deployment, error) {
	spec, err := stack.RowSpec(cfg.rows, cfg.rowServers)
	if err != nil {
		return nil, err
	}

	dd := workload.DefaultDurations()
	perServer := workload.RateForPowerFraction(cfg.target, spec.IdlePowerW, spec.RatedPowerW,
		spec.Containers, dd.Mean()*0.95, 1.0)
	product := workload.DefaultProduct("mixed", perServer*float64(spec.TotalServers()))

	rig, err := stack.New(stack.Config{
		Seed:      cfg.seed,
		Cluster:   spec,
		Products:  []workload.Product{product},
		Retention: 7 * 24 * 60, // one week of minutes per series
	})
	if err != nil {
		return nil, err
	}

	// Observability wiring: one registry for every subsystem, one journal
	// for control decisions. With -obs=false both stay nil and every
	// Instrument call below is a no-op.
	if cfg.obs {
		rig.Mon.Instrument(reg)
		rig.DB.Instrument(reg)
		rig.Sched.Instrument(reg, journal)
	}

	// Optional interactive service: cfg.svcInstances hosts at even stride
	// across the fleet, each with reserved containers, serving cfg.svcUsers
	// users as steady/diurnal/flash client classes. Reservations land before
	// StartBase so placement stays deterministic, which keeps the /whatif
	// offline rebuild byte-identical to the live run.
	var svc *service.Service
	if cfg.svcUsers > 0 {
		total := spec.TotalServers()
		if cfg.svcInstances < 1 || cfg.svcInstances > total {
			return nil, fmt.Errorf("service-instances %d outside [1,%d]", cfg.svcInstances, total)
		}
		stride := total / cfg.svcInstances
		hosts := make([]*cluster.Server, 0, cfg.svcInstances)
		for i := 0; i < cfg.svcInstances; i++ {
			sv := rig.Cluster.Servers[i*stride]
			if err := rig.Sched.Reserve(sv.ID, cfg.svcContainers, float64(cfg.svcContainers)); err != nil {
				return nil, err
			}
			hosts = append(hosts, sv)
		}
		svc, err = service.New(rig.Eng, cfg.seed, service.Config{
			Classes: service.DefaultClasses(cfg.svcUsers, cfg.svcRPSPerUser),
		}, hosts)
		if err != nil {
			return nil, err
		}
		if cfg.obs {
			svc.Instrument(reg)
		}
		svc.Start()
	}
	rig.Start()

	budget := spec.RowRatedPowerW() / (1 + cfg.ro)

	// The controller's dependencies go through an empty-plan chaos injector:
	// with no faults it is a deterministic pass-through, but its counters
	// register on the scrape so operators watch the same metric families in
	// drills and in production. Real fault plans are injected by the chaos
	// harness (internal/chaos, cmd/drill).
	reader := core.PowerReader(rig.Mon)
	api := core.FreezeAPI(rig.Sched)
	if cfg.obs {
		inj, err := chaos.New(rig.Eng, chaos.Plan{Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		inj.Instrument(reg)
		reader = inj.WrapReader(rig.Mon)
		api = inj.WrapAPI(rig.Sched)
	}

	// An optional demand-response event, identical for every row: dip at
	// dr-at for dr-dwell minutes, ramp-limited by dr-ramp.
	var sched *core.BudgetSchedule
	if cfg.drAt > 0 {
		if cfg.drDepth <= 0 || cfg.drDepth >= 1 {
			return nil, fmt.Errorf("dr-depth %v outside (0,1)", cfg.drDepth)
		}
		if cfg.drDwell <= 0 {
			return nil, fmt.Errorf("dr-dwell %v must be positive", cfg.drDwell)
		}
		sched = &core.BudgetSchedule{
			RampFrac: cfg.drRamp,
			Steps: []core.BudgetStep{
				{At: minutesToTime(cfg.drAt), BudgetW: budget * (1 - cfg.drDepth)},
				{At: minutesToTime(cfg.drAt + cfg.drDwell), BudgetW: budget},
			},
		}
		if err := sched.Validate(budget); err != nil {
			return nil, err
		}
	}

	var controller *core.Controller
	if cfg.ampere {
		domains := make([]core.Domain, cfg.rows)
		for r := 0; r < cfg.rows; r++ {
			domains[r] = core.Domain{
				Name: fmt.Sprintf("row/%d", r), Servers: rig.Cluster.RowIDs(r), BudgetW: budget,
				Schedule: sched,
			}
		}
		ccfg := core.DefaultConfig()
		ccfg.Parallel = cfg.ctlParallel
		controller, err = core.New(rig.Eng, reader, api, ccfg, domains)
		if err != nil {
			return nil, err
		}
		controller.Instrument(reg, journal)
	} else if sched != nil {
		return nil, fmt.Errorf("dr-at needs -ampere: the schedule is enforced by the controller")
	}

	// Observational per-row breakers: they evaluate the real trip curve and
	// export heat/trip metrics, but carry no OnTrip callback, so an overload
	// is visible on /metrics without blast-radius consequences in the sim.
	var breakers []*breaker.Breaker
	if cfg.obs {
		for r := 0; r < cfg.rows; r++ {
			b, err := breaker.New(rig.Eng, breaker.DefaultConfig(budget), rig.Cluster.Row(r))
			if err != nil {
				return nil, err
			}
			b.Instrument(reg, fmt.Sprintf("row/%d", r))
			b.Start()
			breakers = append(breakers, b)
		}
	}
	if controller != nil {
		// The relay on a curtailed feed protects the reduced limit, not the
		// nameplate one, so breakers follow every effective-budget movement.
		controller.OnBudgetChange(func(bc core.BudgetChange) {
			if bc.Domain < len(breakers) {
				_ = breakers[bc.Domain].SetBudget(bc.NewW)
			}
		})
		controller.Start()
	}
	return &deployment{rig: rig, ctl: controller, breakers: breakers, budget: budget, svc: svc}, nil
}

func run(cfg runConfig) error {
	var (
		reg     *obs.Registry
		journal *obs.Journal
	)
	if cfg.obs {
		reg = obs.NewRegistry()
		journal = obs.NewJournal(cfg.journalCap)
		journal.Instrument(reg)
	}
	sk, err := buildStack(cfg, reg, journal)
	if err != nil {
		return err
	}
	rig, controller, budget := sk.rig, sk.ctl, sk.budget

	st := &status{BudgetW: budget}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Simulation loop: one simulated minute per tick. The engine is
	// single-threaded; only the thread-safe TSDB, registry, journal and the
	// mutex-guarded status snapshot are shared with HTTP handlers.
	simDone := make(chan struct{})
	go func() {
		defer close(simDone)
		ticker := time.NewTicker(cfg.tick)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			next := rig.Eng.Now().Add(sim.Minute)
			if err := rig.Run(next); err != nil {
				log.Printf("simulation error: %v", err)
				return
			}
			st.mu.Lock()
			st.SimTime = rig.Eng.Now().String()
			st.SimMinutes = rig.Eng.Now().Minute()
			st.RowPowerW = st.RowPowerW[:0]
			st.EffectiveW = st.EffectiveW[:0]
			st.Frozen = st.Frozen[:0]
			st.Violations = st.Violations[:0]
			for r := 0; r < cfg.rows; r++ {
				p, _ := rig.Mon.RowPower(r)
				st.RowPowerW = append(st.RowPowerW, p)
				if controller != nil {
					st.EffectiveW = append(st.EffectiveW, controller.EffectiveBudget(r))
					st.Frozen = append(st.Frozen, controller.FrozenCount(r))
					st.Violations = append(st.Violations, controller.Stats(r).Violations)
				}
			}
			st.mu.Unlock()
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/", rig.DB.Handler())
	if controller != nil {
		// The controller's operator API (per-domain status and health) is
		// internally locked, so it serves live alongside the running
		// simulation goroutine.
		h := controller.Handler()
		mux.Handle("/domains", h)
		mux.Handle("/domains/", h)
		mux.Handle("/healthz", h)
	}
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	if journal != nil {
		mux.Handle("/events", journal.Handler())
	}
	if journal != nil && controller != nil {
		// Counterfactual replays: fork the live run at a journal event and
		// re-run it offline with an alternative policy (see whatif.go).
		ws := &whatifServer{
			cfg:     cfg,
			journal: journal,
			met:     whatif.NewMetrics(reg),
			now: func() sim.Time {
				st.mu.Lock()
				defer st.mu.Unlock()
				return minutesToTime(float64(st.SimMinutes))
			},
		}
		mux.HandleFunc("GET /whatif", ws.handle)
	}
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		buf, err := json.Marshal(st)
		st.mu.Unlock()
		if err != nil {
			http.Error(w, "response encoding failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(buf, '\n'))
	})

	srv := &http.Server{Addr: cfg.addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("powermon: serving %d×%d servers on %s (budget %.0f W/row, ampere=%v, obs=%v)",
		cfg.rows, cfg.rowServers, cfg.addr, budget, cfg.ampere, cfg.obs)

	select {
	case err := <-errc:
		// The listener died on its own; nothing to drain.
		stop()
		<-simDone
		return err
	case <-ctx.Done():
	}

	log.Printf("powermon: shutting down")
	<-simDone
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("powermon: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return flushJournal(journal, cfg.journalOut)
}

// minutesToTime converts a (possibly fractional) simulated-minute offset to
// an absolute sim.Time.
func minutesToTime(m float64) sim.Time { return sim.Time(m * float64(sim.Minute)) }

// flushJournal writes the journal to path as JSONL. A nil journal or empty
// path is a no-op, so plain Ctrl-C exits stay silent.
func flushJournal(journal *obs.Journal, path string) error {
	if journal == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := journal.WriteJSONL(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	log.Printf("powermon: journal flushed to %s (%d events)", path, journal.Len())
	return nil
}
