package federate

import (
	"runtime"
	"testing"
	"time"
)

// testConfig is a small heterogeneous federation: four 80-server-row DCs
// with staggered peaks and loads so the coordinator has real headroom to
// move, at a size tier-1 can afford under -race.
func testConfig(workers, ctlParallel int) Config {
	return Config{
		Seed: 42,
		DCs: []DCSpec{
			{Name: "us-east", Rows: 1, RowServers: 80, TargetFrac: 0.88, PeakHour: 14, ReservePerServer: 2},
			{Name: "eu-west", Rows: 1, RowServers: 80, TargetFrac: 0.70, PeakHour: 20, ReservePerServer: 2},
			{Name: "ap-south", Rows: 1, RowServers: 80, TargetFrac: 0.55, PeakHour: 2},
			{Name: "sa-east", Rows: 1, RowServers: 80, TargetFrac: 0.45, PeakHour: 8},
		},
		CadenceEpochs: 5,
		DelayEpochs:   1,
		Workers:       workers,
		CtlParallel:   ctlParallel,
	}
}

// run advances a federation through two phases with a mid-run operator
// headroom shift between them, returning the deterministic fingerprint.
func run(t *testing.T, workers, ctlParallel int) string {
	t.Helper()
	f, err := New(testConfig(workers, ctlParallel))
	if err != nil {
		t.Fatal(err)
	}
	if errs, err := f.Advance(8); err != nil || len(errs) != 0 {
		t.Fatalf("advance: errs=%v err=%v", errs, err)
	}
	moved, err := f.ShiftBudget(3, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if moved <= 0 {
		t.Fatalf("ShiftBudget moved %v W, want >0", moved)
	}
	if errs, err := f.Advance(8); err != nil || len(errs) != 0 {
		t.Fatalf("advance: errs=%v err=%v", errs, err)
	}
	defer f.Close()
	return f.Fingerprint()
}

// A discarded federation must not leave shard or controller workers
// parked: after Close the goroutine count is back at its baseline, and a
// further Advance still runs (serially).
func TestFederationCloseReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	f, err := New(testConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if errs, err := f.Advance(2); err != nil || len(errs) != 0 {
		t.Fatalf("advance: errs=%v err=%v", errs, err)
	}
	if got := runtime.NumGoroutine(); got <= base {
		t.Fatalf("%d goroutines after a parallel Advance, baseline %d: no workers parked", got, base)
	}
	f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	if errs, err := f.Advance(1); err != nil || len(errs) != 0 {
		t.Fatalf("advance after Close: errs=%v err=%v", errs, err)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("Advance after Close spawned workers: %d goroutines, baseline %d", got, base)
	}
}

// TestFederatedTickByteIdentity is the §7/§11 contract at the federation
// level: the full observable history — telemetry of every epoch, the
// coordinator's reallocations, and a mid-run operator shift — is
// byte-identical at shard worker counts {1, 2, 4, ncpu} and controller
// plan-phase fan-outs {1, 2, 4, all}. Run under -race this also proves the
// shard-ownership rule: workers never touch another shard's state.
func TestFederatedTickByteIdentity(t *testing.T) {
	ref := run(t, 1, 1)
	if ref == "" {
		t.Fatal("empty fingerprint")
	}
	cases := []struct {
		name                 string
		workers, ctlParallel int
	}{
		{"workers=2/ctl=2", 2, 2},
		{"workers=4/ctl=4", 4, 4},
		{"workers=ncpu/ctl=all", runtime.GOMAXPROCS(0), -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.workers, tc.ctlParallel); got != ref {
				t.Errorf("fingerprint diverges from serial reference:\nserial:\n%s\ngot:\n%s", ref, got)
			}
		})
	}
}

// TestReallocationShiftsHeadroom drives a hot/cold pair past several cadence
// boundaries and checks the water-fill moved budget from the idle DC toward
// the saturated one while conserving the pool.
func TestReallocationShiftsHeadroom(t *testing.T) {
	cfg := Config{
		Seed: 7,
		DCs: []DCSpec{
			{Name: "hot", Rows: 1, RowServers: 80, TargetFrac: 0.95},
			{Name: "cold", Rows: 1, RowServers: 80, TargetFrac: 0.40},
		},
		CadenceEpochs: 5,
		DelayEpochs:   1,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if errs, err := f.Advance(25); err != nil || len(errs) != 0 {
		t.Fatalf("advance: errs=%v err=%v", errs, err)
	}
	hot, cold := f.Allocation(0), f.Allocation(1)
	if hot <= f.BaseBudget(0) {
		t.Errorf("hot DC allocation %.0f W did not rise above base %.0f W", hot, f.BaseBudget(0))
	}
	if cold >= f.BaseBudget(1) {
		t.Errorf("cold DC allocation %.0f W did not fall below base %.0f W", cold, f.BaseBudget(1))
	}
	if pool := f.BaseBudget(0) + f.BaseBudget(1); hot+cold > pool*(1+1e-9) {
		t.Errorf("allocations %.0f W exceed pool %.0f W", hot+cold, pool)
	}
	if hot > 1.5*f.BaseBudget(0) {
		t.Errorf("hot allocation %.0f W exceeds cap %.0f W", hot, 1.5*f.BaseBudget(0))
	}
}

// TestShiftBudgetWANDelay pins command delivery: an operator shift issued at
// epoch E lands at the start of epoch E+DelayEpochs, not before.
func TestShiftBudgetWANDelay(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.DelayEpochs = 2
	cfg.CadenceEpochs = 1000 // keep the coordinator quiet
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(2); err != nil {
		t.Fatal(err)
	}
	before := f.Allocation(0)
	moved, err := f.ShiftBudget(1, 0, 500)
	if err != nil || moved <= 0 {
		t.Fatalf("shift: moved=%v err=%v", moved, err)
	}
	// The command spends DelayEpochs full epochs on the WAN: issued at the
	// boundary entering epoch E, it lands at the start of epoch E+2.
	for k := 0; k < 2; k++ {
		if _, err := f.Advance(1); err != nil {
			t.Fatal(err)
		}
		if got := f.Allocation(0); got != before {
			t.Errorf("allocation changed %d epoch(s) after issue (%.0f → %.0f W), delay is 2", k+1, before, got)
		}
	}
	if _, err := f.Advance(1); err != nil {
		t.Fatal(err)
	}
	if got := f.Allocation(0); got != before+moved {
		t.Errorf("allocation %.0f W after delay, want %.0f", got, before+moved)
	}
}

// TestPinnedServiceLoad checks the batched build-time seeding: every server
// in a ReservePerServer DC holds its pinned containers after New.
func TestPinnedServiceLoad(t *testing.T) {
	f, err := New(testConfig(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 2, 0, 0} {
		for _, sv := range f.DCs[i].Cluster.Servers {
			if sv.Busy() < want {
				t.Fatalf("DC %d server %d busy %d, want ≥%d pinned", i, sv.ID, sv.Busy(), want)
			}
			if want == 0 && sv.Busy() != 0 {
				t.Fatalf("DC %d server %d busy %d before any load", i, sv.ID, sv.Busy())
			}
		}
	}
}

// TestFamilies sanity-checks the preset scenario families.
func TestFamilies(t *testing.T) {
	for _, name := range []string{"uniform", "follow-the-sun", "hotspot"} {
		dcs, err := Family(name, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(dcs) != 8 {
			t.Fatalf("%s: %d DCs, want 8", name, len(dcs))
		}
		if err := (Config{Seed: 1, DCs: dcs}.withDefaults()).Validate(); err != nil {
			t.Errorf("%s: invalid family: %v", name, err)
		}
	}
	if _, err := Family("nope", 4, 1); err == nil {
		t.Error("unknown family accepted")
	}
	seen := map[float64]bool{}
	dcs, _ := Family("follow-the-sun", 8, 1)
	for _, d := range dcs {
		seen[d.PeakHour] = true
	}
	if len(seen) != 8 {
		t.Errorf("follow-the-sun has %d distinct peak hours, want 8", len(seen))
	}
}

// TestConfigValidation exercises the rejection paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{DCs: []DCSpec{{Name: "", Rows: 1}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1}, {Name: "a", Rows: 1}}},
		{DCs: []DCSpec{{Name: "a", Rows: 0}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, RowServers: 30}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, TargetFrac: 1.5}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, ReservePerServer: -1}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1}}, CadenceEpochs: -1},
		{DCs: []DCSpec{{Name: "a", Rows: 1}}, DelayEpochs: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
