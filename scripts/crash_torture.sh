#!/usr/bin/env bash
# crash_torture: the durability story's end-to-end smoke. Builds the real
# experiments binary, runs a clean quick Figure 6 campaign as the
# reference, then for three injected kill points (after the 1st record's
# group commit, mid-way through the 2nd record's bytes, after the 3rd
# record) SIGKILLs a journaled+cached campaign via JVMPOWER_CRASH_JOURNAL,
# verifies `-fsck` sees exactly the expected damage, reruns the campaign
# against the same `-cache` with a fresh journal, and diffs the finished
# figure against the reference — which must be byte-identical (only the
# wall-clock trailer is stripped) — and the rerun's journal must show
# points served from the cache. This is the shell-level twin of
# TestKillAnywhereResumeByteIdentical, exercising the real binary, real
# flag wiring, and a real SIGKILL death.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/experiments" ./cmd/experiments

strip_timing() { grep -v '^(completed in ' "$1" > "$2"; }

"$tmp/experiments" -fig fig6 -quick > "$tmp/clean-raw.txt"
strip_timing "$tmp/clean-raw.txt" "$tmp/clean.txt"

fail() { echo "crash_torture: FAIL — $*" >&2; exit 1; }

for directive in after=1 mid=2 after=3; do
    dir="$tmp/$directive"
    mkdir -p "$dir"
    journal="$dir/run.jsonl"
    cache="$dir/points"

    # Phase 1: the crash. The injected SIGKILL (137) must be the exit.
    set +e
    JVMPOWER_CRASH_JOURNAL="$directive" \
        "$tmp/experiments" -fig fig6 -quick -cache "$cache" -journal "$journal" \
        > "$dir/crashed.txt" 2> "$dir/crashed.log"
    status=$?
    set -e
    if [ "$status" -ne 137 ]; then
        cat "$dir/crashed.log" >&2
        fail "$directive: crashed run exited $status, want 137 (SIGKILL)"
    fi
    [ -s "$journal" ] || fail "$directive: crashed run left no journal"

    # Phase 2: offline verification. fsck must exit 0 on a clean tail
    # (after=N) and 4 on a torn one (mid=N), never anything else.
    set +e
    "$tmp/experiments" -fsck -journal "$journal" -cache "$cache" > /dev/null 2> "$dir/fsck.log"
    fsck_status=$?
    set -e
    case "$directive" in
        mid=*)   want_fsck=4 ;;
        after=*) want_fsck=0 ;;
    esac
    if [ "$fsck_status" -ne "$want_fsck" ]; then
        cat "$dir/fsck.log" >&2
        fail "$directive: fsck exited $fsck_status, want $want_fsck"
    fi

    # Phase 3: the rerun from cache. It must finish cleanly, reproduce the
    # reference bytes exactly, and serve at least one point from the cache
    # the crashed run left.
    "$tmp/experiments" -fig fig6 -quick -cache "$cache" -journal "$dir/rerun.jsonl" \
        > "$dir/rerun-raw.txt" 2> "$dir/rerun.log"
    strip_timing "$dir/rerun-raw.txt" "$dir/rerun.txt"
    if ! diff -u "$tmp/clean.txt" "$dir/rerun.txt"; then
        cat "$dir/rerun.log" >&2
        fail "$directive: rerun output differs from the uninterrupted run"
    fi
    grep -q '"source":"disk"' "$dir/rerun.jsonl" ||
        fail "$directive: rerun journal holds no \"source\":\"disk\" record"
    echo "crash_torture: $directive OK"
done

echo "crash_torture: OK — 3 kill points survived; rerun from cache byte-identical"
