GO ?= go

.PHONY: build test vet fmt-check loc race check ci perfbench-check output-check validate fuzz fuzz-smoke fleet-smoke crash-torture daemon-smoke examples-smoke bench bench-overhead bench-faults bench-isolate bench-fleet bench-sync bench-gate bench-smoke

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order each run,
# flushing out inter-test state dependence; the chosen seed is printed so a
# failing order can be replayed with -shuffle=SEED.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any tracked Go file is not gofmt-formatted, listing
# the offenders. It reformats nothing.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-formatted:" >&2; echo "$$out" >&2; exit 1; fi

# loc prints the non-test Go lines of internal/ plus cmd/, the size a
# simplicity change is measured by, and separately those of perfbench/,
# the benchmark module.
loc:
	@printf 'internal/ + cmd/: %s\n' "$$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
	@printf 'perfbench/:       %s\n' "$$(find perfbench -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"

# race exercises the concurrent machinery under the race detector: the
# experiment dispatcher (RunAll workers, the fan-out of the ablation, dvfs,
# hpm-power and dwell runs, singleflight coalescing), the
# metrics registry's atomic instruments, the supervisor (one queue over
# local workers and TCP nodes: watchdogs, kills, requeue, restarts,
# executor breakers, drain) with its framed protocol, and the job queue
# (admission, quotas, drain, concurrent submitters), and the heap's
# process-global chunk pool, which concurrent runs and SemiSpace
# evacuations share and which hands chunks back dirty. The experiments package runs the full determinism
# suite (isolated, fleet, resume, daemon, and the figure digests, 102 s of
# it) under the detector, which took 574 s on a 2-vCPU host, close to go
# test's default 10m per-package limit, hence the explicit timeout.
race:
	$(GO) test -race -timeout 30m ./internal/experiments/... ./internal/metrics/... ./internal/supervisor/... ./internal/pointproto/... ./internal/jobqueue/... ./internal/heap/...

# check is the tier-1 gate: everything must pass before a change lands.
check: build vet test race

# ci mirrors .github/workflows/ci.yml locally: the gofmt check, the tier-1
# gate, the benchmark module's check, the recorded-output check, the full-scale
# paper-anchor check, a short fuzz smoke over every native fuzz target, the
# examples smoke and the shell-level smokes (fleet, crash, daemon).
ci: fmt-check build vet test race perfbench-check output-check validate fuzz-smoke examples-smoke fleet-smoke crash-torture daemon-smoke

# perfbench-check vets and tests the repo benchmark (perfbench/, its own Go
# module, which `go build ./...` never compiles), so a change to an API it
# imports fails here rather than when the benchmark next runs. Its tests
# run no workload, so they never check the recorded output digests;
# output-check does.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# output-check runs both benchmark workloads at seed 1 and fails unless
# each is correct: no point failed and its text matches the digest perfbench
# records for that seed. quick-all-isolated (every quick figure through two
# -isolate workers) covers every figure at quick scale; fig6-full (full
# Fig. 6, 107 SemiSpace points) gates the batch engine and the evacuating
# SemiSpace collector at the scale readers run. Output drift thus fails
# here before the benchmark next runs. `--seconds 1` makes perfbench's
# minimum of two passes per workload: about 6 s for quick-all-isolated,
# and fig6-full adds about 5 s, on a warm build cache on a 2-vCPU host.
# run.sh exits 0 either way, so the target reads the verdict from the
# result line, the last line of its output (run.sh's stderr names the
# problem).
output-check:
	@for w in quick-all-isolated fig6-full; do \
	out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || exit 1; \
	printf '%s\n' "$$out"; \
	case "$$(printf '%s\n' "$$out" | tail -n 1)" in \
	*'"correct":true'*) ;; \
	*) echo "output-check: $$w failed a point or its output differs from the recorded seed-1 digest" >&2; exit 1;; \
	esac; \
	done

# validate runs cmd/validate at full scale: the configurations behind the
# paper's 15 quantitative anchors, each checked against its tolerance band.
# It exits 1 when any anchor leaves its band, so a model change that moves
# a figure off the paper fails here.
validate:
	$(GO) run ./cmd/validate

# fuzz gives each native fuzz target a FUZZTIME budget (10s by default).
# The targets guard the untrusted-input parsers — the fault-plan grammar
# and the supervisor wire protocol (frames, point specs and handshakes) —
# plus the salvaging journal decoder, the crash-recovery path.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/faultinject/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalSpec -fuzztime $(FUZZTIME) ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalHello -fuzztime $(FUZZTIME) ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME) ./internal/metrics/

# fuzz-smoke is the CI-sized version of fuzz over the same target list: a
# few seconds per target, enough to replay the corpus and catch regressions
# in the parsers.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=3s

# examples-smoke runs the four examples README points readers at and fails
# if any exits nonzero: `go build ./...` compiles them, but nothing else runs
# them. About 10 s on a 2-vCPU host, 9 s of it gcsweep.
examples-smoke:
	@for e in quickstart thermal gcsweep embedded; do \
	echo "examples-smoke: examples/$$e"; \
	$(GO) run ./examples/$$e || { echo "examples-smoke: examples/$$e failed" >&2; exit 1; }; \
	done

# fleet-smoke is the shell-level distributed smoke and the lockstep ≡
# per-point gate: the real binary runs quick Figure 6 and Figure 7
# campaigns and quick `-all` (every figure's work in one dispatch) three
# ways — in-process, in-process under `-point-timeout 10m` (which keeps
# every point to its own run), and across two loopback `-serve-node`
# executors — and diffs both others against the first (byte-identical or
# fail). In-process and on the nodes, each benchmark's SemiSpace heaps are
# one lockstep run, one task on a node. The in-repo twin,
# TestFleetByteIdentical, adds shuffled completion and an injected
# disconnect on top.
fleet-smoke:
	./scripts/fleet_smoke.sh

# crash-torture is the shell-level durability smoke: the real binary is
# SIGKILLed at three injected journal offsets (via JVMPOWER_CRASH_JOURNAL),
# -fsck verifies the wreckage offline, and a rerun against the same -cache
# must reproduce the uninterrupted run's bytes and serve points from the
# cache. The in-repo twin, TestKillAnywhereResumeByteIdentical, sweeps the
# same kill points across the isolate and fleet transports too.
crash-torture:
	./scripts/crash_torture.sh

# daemon-smoke is the characterization service's end-to-end check: the
# real binary runs as `-daemon`, curl submits a quick Figure 6 campaign
# whose /result must byte-match the one-shot CLI, a SIGKILL in the middle
# of a quick Figure 7 campaign must recover byte-identically on restart,
# and SIGTERM must drain to a clean exit 0. The in-repo twins are
# TestDaemonJobLifecycle, TestDaemonOverloadGate, and
# TestDaemonCrashRecovery.
daemon-smoke:
	./scripts/daemon_smoke.sh

# bench regenerates BENCH_1.json from the headline figure benchmarks.
bench:
	./bench.sh

# bench-overhead regenerates BENCH_2.json: the observability layer's cost
# on the Fig. 7 hot path (instrumented vs bare; budget <1%).
bench-overhead:
	./bench.sh BENCH_2.json overhead

# bench-faults regenerates BENCH_3.json: the fault layer's disabled-path
# cost on the Fig. 7 hot path (zero-rate plan vs bare; budget <1%).
bench-faults:
	./bench.sh BENCH_3.json faults

# bench-isolate regenerates BENCH_4.json: the isolation machinery's
# disabled-path cost on the Fig. 7 hot path, and the same path against the
# frozen PR 3 baseline (both budgets <1%).
bench-isolate:
	./bench.sh BENCH_4.json isolate

# bench-fleet regenerates BENCH_7.json: the socket transport's coordination
# overhead on the Fig. 7 hot path — bare vs every point dispatched to two
# loopback executor nodes (framing, gob, scheduling, loopback TCP). The
# fleet_vs_bare comparison is significance-tested; figures are
# byte-identical either way, so the number is pure transport cost.
bench-fleet:
	./bench.sh BENCH_7.json fleet

# bench-sync regenerates BENCH_8.json: the journal durability default's
# price on the Fig. 7 hot path — a real file-backed journal with per-record
# group commit (-journal-sync point) vs buffer-until-Close. The
# sync_point_vs_close comparison is significance-tested; per-point sync
# ships as the default only because this number stays within budget.
bench-sync:
	./bench.sh BENCH_8.json sync

# bench-gate is the CI regression gate's self-consistency check: two
# independent gate-mode passes of the Fig. 7 benchmark on the same SHA,
# diffed with a significance test. Same code, same machine → the diff
# must be clean; `benchgate diff` exits nonzero only on a statistically
# significant regression above budget, so benchmark noise alone cannot
# fail CI. The complementary direction — a synthetically slowed build
# MUST fire the gate — is enforced by TestDiffGateFiresOnInjectedSlowdown
# in internal/benchstat.
bench-gate:
	./bench.sh bench-gate-a.json gate
	./bench.sh bench-gate-b.json gate
	$(GO) run ./cmd/benchgate diff bench-gate-a.json bench-gate-b.json -budget 5

# bench-smoke is the CI-sized benchmark run: one repetition of the Fig. 7
# benchmark and of each sub-benchmark (per-point and lockstep) of
# BenchmarkSemiSpaceSweep (one lane per heap) and BenchmarkMeterVariants
# (one lane per DVFS operating point, one heap fanned out to six meters),
# so both lockstep hot paths show in the profile too. It is a does-it-run
# check, not a timing claim. The CPU profile lands in bench-smoke.prof
# (with the test binary kept alongside for `go tool pprof`) and CI uploads
# both as an artifact.
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkFig7EDP|BenchmarkSemiSpaceSweep|BenchmarkMeterVariants)$$' -benchtime 1x -benchmem -count=1 -cpuprofile bench-smoke.prof .
