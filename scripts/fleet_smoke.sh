#!/usr/bin/env bash
# fleet_smoke: the distributed path's end-to-end smoke and the lockstep ≡
# per-point gate. Builds the experiments binary, starts two loopback fleet
# executor nodes (`-serve-node 127.0.0.1:0`, scraping each resolved address
# from its log), and runs the quick Figure 6 and Figure 7 campaigns and
# quick `-all` three ways: in-process, in-process with `-point-timeout
# 10m`, and across the two-node fleet. The figure output must be
# byte-identical across all three (the wall-clock trailer is stripped; it
# is the one line allowed to differ). In-process and on the nodes alike,
# each benchmark's SemiSpace heaps are one sweep group, characterized in
# one lockstep run (Figure 7 runs those lanes beside three one-lane plans;
# the nodes take each group as one task), and `-all` sends every figure's
# work out in one dispatch. A point timeout is per point, so the second
# run characterizes every point on its own: its diff checks the lockstep
# engine against per-point runs, and the fleet's diff checks the
# transport. This is the shell-level twin of the in-repo determinism
# gates (TestFleetByteIdentical, TestRunAllMatchesSerial), exercising the
# real binary, real TCP sockets, and the real flag wiring.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/experiments" ./cmd/experiments

# scrape_addr polls a node's log for the resolved listen address.
scrape_addr() {
    local log="$1" addr
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/.*fleet node listening on //p' "$log" | head -n 1)"
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo "fleet_smoke: node never reported its address ($log)" >&2
    return 1
}

"$tmp/experiments" -serve-node 127.0.0.1:0 2>"$tmp/node-a.log" &
pids+=($!)
"$tmp/experiments" -serve-node 127.0.0.1:0 2>"$tmp/node-b.log" &
pids+=($!)
addr_a="$(scrape_addr "$tmp/node-a.log")"
addr_b="$(scrape_addr "$tmp/node-b.log")"

strip_timing() { grep -v '^(completed in ' "$1" > "$2"; }

# $sel is left unquoted so that it splits into its words: "-fig NAME" or "-all".
for sel in "-fig fig6" "-fig fig7" "-all"; do
    "$tmp/experiments" $sel -quick > "$tmp/inproc-raw.txt"
    "$tmp/experiments" $sel -quick -point-timeout 10m > "$tmp/perpoint-raw.txt"
    "$tmp/experiments" $sel -quick -nodes "$addr_a,$addr_b" > "$tmp/fleet-raw.txt" 2>"$tmp/fleet.log"
    strip_timing "$tmp/inproc-raw.txt" "$tmp/inproc.txt"
    strip_timing "$tmp/perpoint-raw.txt" "$tmp/perpoint.txt"
    strip_timing "$tmp/fleet-raw.txt" "$tmp/fleet.txt"

    if ! diff -u "$tmp/inproc.txt" "$tmp/perpoint.txt"; then
        echo "fleet_smoke: FAIL — $sel: per-point in-process output differs from the lockstep in-process run" >&2
        exit 1
    fi
    if ! diff -u "$tmp/inproc.txt" "$tmp/fleet.txt"; then
        echo "fleet_smoke: FAIL — $sel: lockstep 2-node fleet output differs from the lockstep in-process run" >&2
        exit 1
    fi
done
echo "fleet_smoke: OK — quick fig6, fig7 and -all: per-point in-process and lockstep 2-node campaigns byte-identical to the lockstep in-process runs"
