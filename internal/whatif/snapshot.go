// Package whatif is the counterfactual engine on top of the decision
// journal: snapshot the full control-plane state at any journal event, fork
// the simulation, replay it with an alternative policy/parameter set against
// the same deterministically seeded workload and chaos streams, and diff the
// factual and counterfactual journals into a scored report ("a ramped budget
// would have avoided K breaker trips").
//
// The engine exploits the DESIGN.md §7 determinism contract: a simulation is
// a pure function of its seed, so re-running from genesis reproduces every
// event byte-for-byte. A Snapshot is therefore a *witness*, not a
// rehydration source — Restore rebuilds the stack from genesis via the
// run's Builder, fast-forwards to the snapshot instant, and verifies the
// reconstructed state matches the witness exactly before diverging. The
// cost is re-simulation time; the payoff is that no RNG internals, event
// queues, or scheduler heaps ever need serializing (DESIGN.md §9).
package whatif

import (
	"fmt"

	"repro/internal/breaker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
)

// Snapshot captures the mutable control-plane state at a tick boundary: the
// state with every event strictly before SimMS applied. It is versioned and
// round-trip-tested through Encode/Decode (codec.go).
type Snapshot struct {
	// SimMS is the capture instant in simulated milliseconds.
	SimMS int64
	// Seed is the run's root seed; ConfigTag fingerprints the scenario
	// configuration. A snapshot only restores onto a builder with the same
	// seed and tag.
	Seed      uint64
	ConfigTag string
	// JournalSeq is the journal's total event count at capture — the seq the
	// next appended event will get. The replayed suffix starts here.
	JournalSeq uint64

	Domains  []core.DomainSnapshot
	Servers  []cluster.ServerState
	Monitor  monitor.State
	Breakers []BreakerSnapshot
}

// BreakerSnapshot is one named breaker's state.
type BreakerSnapshot struct {
	Name  string
	State breaker.State
}

// NamedBreaker pairs a live breaker with its domain name.
type NamedBreaker struct {
	Name string
	B    *breaker.Breaker
}

// Instance is one fully constructed simulation stack, produced by a Builder.
// Everything the engine needs to drive, capture, and score a run hangs off
// it; the builder owns all construction-time wiring (workload, chaos,
// controller, breakers, journal instrumentation).
type Instance struct {
	// Stack is the simulated deployment; the engine advances it with
	// Stack.Run and reads its cluster, monitor and scheduler.
	Stack   *stack.Stack
	Journal *obs.Journal
	Ctl     *core.Controller
	// Breakers lists the per-domain breakers in a fixed (domain) order.
	Breakers []NamedBreaker
	// End is where the scenario naturally stops; Interval is the control
	// tick period (used to align snapshot instants to tick boundaries).
	End      sim.Time
	Interval sim.Duration
	// Seed and ConfigTag must be stable across Build calls for the same
	// scenario — they gate snapshot/builder compatibility.
	Seed      uint64
	ConfigTag string
	// KPIs, when non-nil, returns scenario scalars beyond the six jobs_*
	// scheduler counters the engine always reports, folded into the diff
	// report. Keys must be deterministic.
	KPIs func() map[string]float64
}

// Builder constructs a fresh Instance of one scenario from genesis. It must
// be safe to call repeatedly, and every call must produce a byte-identical
// run (same seed, same wiring) — the engine leans on that to locate events
// and verify witnesses.
type Builder func() (*Instance, error)

// Capture exports inst's full mutable state as a Snapshot at the current
// simulation time. The caller is responsible for having advanced the engine
// to a tick boundary (no event at the current instant has partially run).
func Capture(inst *Instance, at sim.Time) *Snapshot {
	snap := &Snapshot{
		SimMS:      int64(at),
		Seed:       inst.Seed,
		ConfigTag:  inst.ConfigTag,
		JournalSeq: inst.Journal.Total(),
		Domains:    inst.Ctl.ExportState(),
		Servers:    inst.Stack.Cluster.ExportState(),
		Monitor:    inst.Stack.Mon.ExportState(),
	}
	snap.Breakers = make([]BreakerSnapshot, len(inst.Breakers))
	for i, nb := range inst.Breakers {
		snap.Breakers[i] = BreakerSnapshot{Name: nb.Name, State: nb.B.ExportState()}
	}
	return snap
}

// Verify checks that a freshly reconstructed snapshot is byte-identical to
// the witness it is supposed to reproduce — the Restore-side proof that the
// rebuild really did land in the same state. Equality is judged on the
// canonical encoding, which is NaN-safe (bit comparison, not ==).
func Verify(witness, rebuilt *Snapshot) error {
	if witness.ConfigTag != rebuilt.ConfigTag {
		return fmt.Errorf("whatif: config mismatch: snapshot %q vs builder %q",
			witness.ConfigTag, rebuilt.ConfigTag)
	}
	if witness.Seed != rebuilt.Seed {
		return fmt.Errorf("whatif: seed mismatch: snapshot %d vs builder %d",
			witness.Seed, rebuilt.Seed)
	}
	wb, rb := Encode(witness), Encode(rebuilt)
	if string(wb) != string(rb) {
		return fmt.Errorf("whatif: reconstructed state diverges from snapshot witness at t=%s: %s",
			sim.Time(witness.SimMS), describeDiff(witness, rebuilt))
	}
	return nil
}

// describeDiff names the first field-level difference between two snapshots,
// for the Verify error message.
func describeDiff(a, b *Snapshot) string {
	switch {
	case a.SimMS != b.SimMS:
		return fmt.Sprintf("SimMS %d vs %d", a.SimMS, b.SimMS)
	case a.JournalSeq != b.JournalSeq:
		return fmt.Sprintf("JournalSeq %d vs %d", a.JournalSeq, b.JournalSeq)
	case len(a.Domains) != len(b.Domains):
		return fmt.Sprintf("domain count %d vs %d", len(a.Domains), len(b.Domains))
	case len(a.Servers) != len(b.Servers):
		return fmt.Sprintf("server count %d vs %d", len(a.Servers), len(b.Servers))
	case len(a.Breakers) != len(b.Breakers):
		return fmt.Sprintf("breaker count %d vs %d", len(a.Breakers), len(b.Breakers))
	}
	for i := range a.Domains {
		da, db := &a.Domains[i], &b.Domains[i]
		if string(Encode(&Snapshot{Domains: []core.DomainSnapshot{*da}})) !=
			string(Encode(&Snapshot{Domains: []core.DomainSnapshot{*db}})) {
			return fmt.Sprintf("domain %q state differs (frozen %d vs %d, budget %g vs %g, ticks %d vs %d)",
				da.Name, len(da.Frozen), len(db.Frozen), da.BudgetW, db.BudgetW,
				da.Stats.Ticks, db.Stats.Ticks)
		}
	}
	for i := range a.Servers {
		if a.Servers[i] != b.Servers[i] {
			return fmt.Sprintf("server %d state differs: %+v vs %+v", i, a.Servers[i], b.Servers[i])
		}
	}
	for i := range a.Breakers {
		if a.Breakers[i] != b.Breakers[i] {
			return fmt.Sprintf("breaker %q state differs: %+v vs %+v",
				a.Breakers[i].Name, a.Breakers[i].State, b.Breakers[i].State)
		}
	}
	return "monitor state differs"
}
