#!/usr/bin/env bash
# bench.sh — run the figure benchmarks and emit a JSON evidence file.
#
# Usage:  ./bench.sh [output.json] [mode]
#
# The statistics live in cmd/benchgate (internal/benchstat): a strict
# parser for `go test -bench` output (malformed lines and short rep
# counts are errors, never silent zeros), Mann–Whitney-tested comparisons
# with bootstrap CIs on the effect, and — in the iteration modes —
# warmup/steady-state segmentation of in-process per-iteration timings
# with a bootstrap CI on the steady-state median. Every file records the
# machine/build environment (goos/goarch/CPU model, GOMAXPROCS, git SHA);
# frozen baselines from earlier PRs are carried as environment-tagged
# legacy context, not claims.
#
# Repetition modes (N independent `go test` repetitions, -count=$COUNT):
#   figures   (default) the headline figure benchmarks; the frozen seed
#             numbers ride along as legacy baselines (BENCH_1.json).
#   overhead  Figure 7 bare vs observability layer on (BENCH_2.json).
#   faults    Figure 7 bare vs zero-rate fault plan (BENCH_3.json).
#   isolate   Figure 7 bare vs isolation-reachable-but-off (BENCH_4.json).
#   fleet     Figure 7 bare vs two loopback fleet nodes (BENCH_7.json):
#             the socket transport's coordination overhead.
#   sync      Figure 7 with a file-backed journal: per-record group commit
#             (-journal-sync point, the default) vs buffer-until-Close
#             (BENCH_8.json) — the durability default's measured price.
#
# Iteration mode (one in-process series of $ITERS iterations, timed
# per-iteration via the harness -iters flag, warmup-segmented):
#   gate      Figure 7 bare: the CI regression gate's input. Run twice
#             on the same SHA, the two reports must `benchgate diff`
#             clean; a slowed build must not.
#
# BENCH_5.json and BENCH_6.json record the sweep-fork memoization layer,
# which has since been deleted; no mode regenerates them.
#
# Env knobs: COUNT (reps, default 5), ITERS (iterations, default 8),
# GATE_PATTERN (override the gate benchmark set).
set -euo pipefail
cd "$(dirname "$0")"

MODE=${2:-figures}
COUNT=${COUNT:-5}
ITERS_MODE=0
case "$MODE" in
figures)
    OUT=${1:-BENCH_1.json}
    PATTERN='BenchmarkCharacterizeJavac|BenchmarkFig6EnergyDecomposition|BenchmarkFig7EDP$|BenchmarkFig8Power'
    ;;
overhead)
    OUT=${1:-BENCH_2.json}
    PATTERN='BenchmarkFig7EDP$|BenchmarkFig7EDPInstrumented$'
    ;;
faults)
    OUT=${1:-BENCH_3.json}
    PATTERN='BenchmarkFig7EDP$|BenchmarkFig7EDPFaultsZero$'
    ;;
isolate)
    OUT=${1:-BENCH_4.json}
    PATTERN='BenchmarkFig7EDP$|BenchmarkFig7EDPIsolateOff$'
    ;;
fleet)
    OUT=${1:-BENCH_7.json}
    PATTERN='BenchmarkFig7EDP$|BenchmarkFig7EDPFleet$'
    ;;
sync)
    OUT=${1:-BENCH_8.json}
    PATTERN='BenchmarkFig7EDPJournalSyncPoint$|BenchmarkFig7EDPJournalSyncClose$'
    ;;
gate)
    OUT=${1:-BENCH_GATE.json}
    PATTERN=${GATE_PATTERN:-'BenchmarkFig7EDP$'}
    ITERS=${ITERS:-8}
    ITERS_MODE=1
    ;;
*)
    echo "bench.sh: unknown mode '$MODE' (figures|overhead|faults|isolate|fleet|sync|gate)" >&2
    exit 2
    ;;
esac

TMP=$(mktemp)
ITERS_JSONL=$(mktemp)
trap 'rm -f "$TMP" "$ITERS_JSONL"' EXIT

if [ "$ITERS_MODE" = 1 ]; then
    # One in-process series: fixed iteration count, per-iteration timings
    # appended as JSONL by the harness -iters flag (go test's 1-iteration
    # sizing probe lands in the series too — a genuinely cold first
    # sample, exactly what warmup segmentation is for).
    CMD="go test -run ^$ -bench $PATTERN -benchmem -benchtime=${ITERS}x -count=1 . -args -iters <jsonl>"
    go test -run '^$' -bench "$PATTERN" -benchmem -benchtime="${ITERS}x" -count=1 . \
        -args -iters "$ITERS_JSONL" | tee "$TMP" >&2
    go run ./cmd/benchgate report -mode "$MODE" -count 1 -iters "$ITERS_JSONL" \
        -command "$CMD" -out "$OUT" < "$TMP"
else
    CMD="go test -run ^$ -bench $PATTERN -benchmem -count=$COUNT ."
    go test -run '^$' -bench "$PATTERN" -benchmem -count="$COUNT" . | tee "$TMP" >&2
    go run ./cmd/benchgate report -mode "$MODE" -count "$COUNT" \
        -command "$CMD" -out "$OUT" < "$TMP"
fi

echo "wrote $OUT" >&2
