#!/usr/bin/env bash
# fleet_smoke: the distributed path's end-to-end smoke and the lockstep ≡
# per-point gate. Builds the experiments binary, starts two loopback fleet
# executor nodes (`-serve-node 127.0.0.1:0`, scraping each resolved address
# from its log), runs the quick Figure 6 and Figure 7 campaigns once
# in-process and once across the two-node fleet, and diffs the figure
# output — which must be byte-identical (the wall-clock trailer is
# stripped; it is the one line allowed to differ). In-process, RunAll
# characterizes each benchmark's SemiSpace heaps in one lockstep run
# (Figure 7 runs those lanes beside three one-lane plans); the nodes
# characterize one point per task. So the diff checks the lockstep engine
# against per-point runs as well as the transport. This is the shell-level
# twin of the in-repo determinism gates (TestFleetByteIdentical,
# TestRunAllMatchesSerial), exercising the real binary, real TCP sockets,
# and the real flag wiring.
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

for fig in fig6 fig7; do
    "$tmp/experiments" -fig "$fig" -quick > "$tmp/inproc-raw.txt"
    "$tmp/experiments" -fig "$fig" -quick -nodes "$addr_a,$addr_b" > "$tmp/fleet-raw.txt" 2>"$tmp/fleet.log"
    strip_timing "$tmp/inproc-raw.txt" "$tmp/inproc.txt"
    strip_timing "$tmp/fleet-raw.txt" "$tmp/fleet.txt"

    if ! diff -u "$tmp/inproc.txt" "$tmp/fleet.txt"; then
        echo "fleet_smoke: FAIL — $fig: per-point fleet output differs from the lockstep in-process run" >&2
        exit 1
    fi
done
echo "fleet_smoke: OK — quick fig6 and fig7: per-point 2-node campaigns byte-identical to the lockstep in-process runs"
