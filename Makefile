# Tier-1 is the merge gate: everything must build, lint clean (gofmt + vet),
# pass the full suite under the race detector, and pass the experiment +
# runner suites with shuffled test order (order-dependence is how shared
# state between parallel run units would first show up).
.PHONY: tier1 build lint vet test race race-shuffle fuzz fuzz-smoke chaos \
	bench-runner bench-scale bench-scale-quick bench-check gridstorm \
	whatif whatif-smoke tournament tournament-smoke fig11scale fig11-smoke \
	fed-smoke golden golden-update golden-full golden-full-update

tier1: build lint race race-shuffle bench-scale-quick fuzz-smoke whatif-smoke \
	tournament-smoke fig11-smoke fed-smoke

build:
	go build ./...

# lint fails when any file needs reformatting (gofmt -l prints it) or vet
# finds a problem.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	go vet ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# The parallel fan-out suites, shuffled: any cross-unit state dependence
# fails here before it can corrupt merged experiment output.
race-shuffle:
	go test -race -shuffle=on ./internal/experiment/... ./internal/runner/...

# Short live-fuzz pass, 30 s over every fuzz target, on top of the
# committed seed corpus that already replays in `make test`. fuzz-smoke is
# tier-1's name for the same pass.
fuzz fuzz-smoke:
	go test ./internal/scenario/ -fuzz FuzzLoad -fuzztime 30s
	go test ./internal/scenario/ -fuzz FuzzBudgetSchedule -fuzztime 30s
	go test ./internal/scenario/ -fuzz FuzzPolicySpec -fuzztime 30s
	go test ./internal/tsdb/ -fuzz FuzzQueryAPI -fuzztime 30s
	go test ./internal/whatif/ -run '^$$' -fuzz FuzzSnapshotCodec -fuzztime 30s

# Paper-output golden: every experiment at -quick, run in-process, diffed
# byte for byte against results/golden_quick.txt (produced on linux/amd64).
# The same test runs in `make test` and `make race`. Re-bless only through
# golden-update, with a CHANGES.md line naming the numbers that moved and
# why.
golden:
	go test ./cmd/ampere-exp/ -run TestGoldenQuick -count=1

golden-update:
	go run ./cmd/ampere-exp -exp all -quick > results/golden_quick.txt.new
	mv results/golden_quick.txt.new results/golden_quick.txt

# Full-scale golden: every experiment recorded in
# results/exp_full_output.txt, run at paper scale one process at a time, its
# stdout diffed byte for byte against that file (~15 min; timing lines go to
# stderr). Required for changes to the engine, scheduler, controller or
# stack assembly. Re-bless only through golden-full-update, with a
# CHANGES.md line naming the numbers that moved and why.
golden-full:
	sh scripts/golden_full

golden-full-update:
	sh scripts/golden_full -update

# The grid-event resilience experiment: the same 20% curtailment as a cliff
# and ramp-limited, quick scale (full 100k: `go run ./cmd/ampere-exp -exp
# gridstorm`).
gridstorm:
	go run ./cmd/ampere-exp -exp gridstorm -quick

# Counterfactual demo: snapshot the gridstorm cliff at dip onset, verify the
# self-replay is byte-identical, then score a ramped-budget alternative
# ("would have avoided every trip"). Same engine as `ampere-trace why` and
# powermon's /whatif endpoint.
whatif:
	go run ./cmd/ampere-exp -exp whatif -quick

# Tier-1's snapshot/replay smoke: snapshot a 400-server gridstorm run
# mid-storm, self-replay, and require an empty diff.
whatif-smoke:
	go test ./internal/whatif/ -run TestWhatifSelfDiff400 -count=1

# Policy tournament: fork one factual gridstorm cliff run at dip onset and
# replay the default policy grid (selection × Et estimator × unfreeze ×
# horizon × ramp) from the shared snapshot, ranked by trips / violation
# ticks / frozen capacity / completed jobs. Full 100k-server grid:
# `go run ./cmd/ampere-exp -exp tournament`.
tournament:
	go run ./cmd/ampere-exp -exp tournament -quick

# Tier-1's tournament smoke: a 400-server grid over five patches, ranked
# deterministically and byte-identical at replay worker counts 1 and 4.
tournament-smoke:
	go test ./internal/experiment/ -run TestTournamentSmoke400 -count=1

# Fig 11 at deployment scale: a 100k-server fleet whose hot rows host a
# 3-million-user service, row capping vs Ampere scored as per-op/per-class
# p999 and SLO-miss (full scale: `go run ./cmd/ampere-exp -exp fig11scale`).
fig11scale:
	go run ./cmd/ampere-exp -exp fig11scale -quick

# Tier-1's fig11scale smoke: the 240-server quick fleet, asserting the
# capping-vs-freezing tail gap and live SLO-miss accounting.
fig11-smoke:
	go test ./internal/experiment/ -run TestFig11ScaleSmoke400 -count=1

# Fault-injection drill: naive vs resilient controller under the same storm.
chaos:
	go run ./cmd/ampere-exp -exp chaos -quick

# Tier-1's federation smoke: byte-identity of the federated tick across
# shard worker counts (4 small DCs with a mid-run headroom shift), plus the
# 4-DC × 400-server quick federated scale run end to end.
fed-smoke:
	go test ./internal/federate/ -count=1
	go test ./internal/experiment/ -run TestFedScaleSmoke -count=1

# Machine stamp for the first record of every bench JSON (goos, goarch and
# CPU come from the go test header).
BENCH_STAMP = -v nproc="$$(getconf _NPROCESSORS_ONLN)" \
	-v commit="$$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Weak-scaling baseline: the BenchmarkScale{Sweep,Placement,ControllerTick}
# family at 400 / 10k / 100k servers, recorded to BENCH_scale.json for
# regression comparison (see docs/OPERATIONS.md for how to read it). Three
# repetitions per benchmark; bench_to_json keeps the fastest, so one noisy
# run on a shared machine doesn't poison the baseline.
bench-scale:
	go test -run '^$$' -bench 'BenchmarkScale' -count=3 -benchmem . | tee BENCH_scale.txt
	awk $(BENCH_STAMP) -f scripts/bench_to_json.awk BENCH_scale.txt > BENCH_scale.json
	rm -f BENCH_scale.txt

# One-row smoke of the scale family (part of tier1): exercises every scale
# benchmark once, which includes the zero-allocation sweep contract and the
# controller tick's steady-state allocation ceiling (benchControllerTick
# fails the run outright when a tick allocates more than its budget).
bench-scale-quick:
	go test -run '^$$' -bench 'BenchmarkScale[A-Za-z]*/servers=400' -benchtime 1x .

# Regression gate: re-runs the scale family (min of three repetitions, same
# noise discipline as the baseline) and diffs ns/op against the committed
# BENCH_scale.json, failing on any >25% slowdown. Run after touching a hot
# path; refresh the baseline with `make bench-scale` when a deliberate
# change moves the numbers.
bench-check:
	go test -run '^$$' -bench 'BenchmarkScale' -count=3 -benchmem . > BENCH_fresh.txt
	awk $(BENCH_STAMP) -f scripts/bench_to_json.awk BENCH_fresh.txt > BENCH_fresh.json
	rm -f BENCH_fresh.txt
	sh scripts/bench_compare BENCH_fresh.json BENCH_scale.json
	rm -f BENCH_fresh.json

# Records serial vs parallel wall-clock for the shrunken figure suite; on a
# ≥4-core machine the parallel run should be ≥2× faster with byte-identical
# results (parallel_test.go checks the identity half).
bench-runner:
	go test -run '^$$' -bench 'BenchmarkFigureSuite' -benchtime 1x ./internal/experiment/
