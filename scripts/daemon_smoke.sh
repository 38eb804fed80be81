#!/usr/bin/env bash
# daemon_smoke: the characterization service's end-to-end smoke. Builds
# the experiments binary, starts it as `-daemon` with a job log and point
# cache, and drives the real HTTP API with curl:
#
#   1. submit a quick Figure 6 campaign, poll it to completion, and
#      byte-diff the /result body against the one-shot CLI output at the
#      same seed (the wall-clock trailer the CLI appends is stripped; the
#      daemon result has none);
#   2. SIGKILL the daemon mid-campaign (a second submitted job, quick
#      Figure 7: its 1–2 s outlast the kill that follows its first
#      journaled point, where quick Figure 6's five lockstep runs can
#      finish first), restart it on the same journal and cache, and
#      verify recovery requeues and finishes the job byte-identically;
#   3. SIGTERM the idle daemon and assert the clean-drain exit: code 0
#      and the "drained cleanly" log line.
#
# This is the shell-level twin of the in-repo gates (TestDaemonJobLifecycle,
# TestDaemonCrashRecovery), exercising the real binary, real signals, and
# the real flag wiring.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/experiments" ./cmd/experiments

addr="127.0.0.1:9338"
base="http://$addr"

# start_daemon launches the service and records its PID in daemon_pid.
# (Not a command substitution: the inherited stdout pipe would make $(...)
# block until the daemon exits.)
start_daemon() {
    local log="$1"
    "$tmp/experiments" -daemon -http "$addr" \
        -cache "$tmp/points" -journal "$tmp/jobs.jsonl" \
        -max-inflight 1 -queue-depth 4 -quota-rate 0 \
        >/dev/null 2>"$log" &
    daemon_pid=$!
    pids+=("$daemon_pid")
}

wait_ready() {
    for _ in $(seq 1 100); do
        if curl -sf "$base/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "daemon_smoke: daemon never became ready" >&2
    return 1
}

# poll_state polls a job until it reaches a terminal state, echoing it.
poll_state() {
    local id="$1" state
    for _ in $(seq 1 600); do
        state="$(curl -sf "$base/jobs/$id" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
        case "$state" in
            completed|failed|cancelled|expired) echo "$state"; return 0 ;;
        esac
        sleep 0.1
    done
    echo "daemon_smoke: job $id never finished (last state: $state)" >&2
    return 1
}

# --- 1. submit over HTTP, byte-diff against the one-shot CLI -----------

start_daemon "$tmp/daemon-1.log"
wait_ready

job1="$(curl -sf -X POST "$base/jobs" -H 'X-Client: smoke' \
    -d '{"figures":["fig6"],"seed":7,"quick":true}' \
    | sed -n 's/.*"id":"\([a-z0-9-]*\)".*/\1/p')"
[ -n "$job1" ] || { echo "daemon_smoke: submission returned no job ID" >&2; exit 1; }

state="$(poll_state "$job1")"
[ "$state" = completed ] || { echo "daemon_smoke: job $job1 ended $state" >&2; exit 1; }
curl -sf "$base/jobs/$job1/result" > "$tmp/daemon-result.txt"

# strip_cli drops the CLI's wall-clock trailer (a blank line plus
# "(completed in ...)"); the daemon result carries figure output only.
strip_cli() {
    printf '%s\n' "$(grep -v '^(completed in ' "$1")" > "$2"
}

"$tmp/experiments" -fig fig6 -quick -seed 7 > "$tmp/cli-raw.txt"
strip_cli "$tmp/cli-raw.txt" "$tmp/cli-result.txt"

if ! diff -u "$tmp/cli-result.txt" "$tmp/daemon-result.txt"; then
    echo "daemon_smoke: FAIL — daemon result differs from the one-shot CLI run" >&2
    exit 1
fi
echo "daemon_smoke: job $job1 byte-identical to the one-shot CLI"

# --- 2. SIGKILL mid-campaign, restart, recover ------------------------

job2="$(curl -sf -X POST "$base/jobs" -H 'X-Client: smoke' \
    -d '{"figures":["fig7"],"seed":11,"quick":true}' \
    | sed -n 's/.*"id":"\([a-z0-9-]*\)".*/\1/p')"
[ -n "$job2" ] || { echo "daemon_smoke: second submission returned no job ID" >&2; exit 1; }

# Let the campaign journal at least one point, then kill without mercy.
for _ in $(seq 1 300); do
    points="$(curl -sf "$base/jobs/$job2" | sed -n 's/.*"points":\([0-9]*\).*/\1/p')"
    [ "${points:-0}" -ge 1 ] && break
    sleep 0.1
done
[ "${points:-0}" -ge 1 ] || { echo "daemon_smoke: job $job2 made no progress" >&2; exit 1; }
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

start_daemon "$tmp/daemon-2.log"
wait_ready
grep -q '1 job(s) recovered' "$tmp/daemon-2.log" \
    || { echo "daemon_smoke: restart did not recover the killed job" >&2; cat "$tmp/daemon-2.log" >&2; exit 1; }

state="$(poll_state "$job2")"
[ "$state" = completed ] || { echo "daemon_smoke: recovered job $job2 ended $state" >&2; exit 1; }
curl -sf "$base/jobs/$job2/result" > "$tmp/recovered-result.txt"

"$tmp/experiments" -fig fig7 -quick -seed 11 > "$tmp/cli11-raw.txt"
strip_cli "$tmp/cli11-raw.txt" "$tmp/cli11-result.txt"
if ! diff -u "$tmp/cli11-result.txt" "$tmp/recovered-result.txt"; then
    echo "daemon_smoke: FAIL — recovered result differs from the one-shot CLI run" >&2
    exit 1
fi
echo "daemon_smoke: job $job2 recovered after SIGKILL, byte-identical"

# --- 3. SIGTERM: clean drain exit -------------------------------------

kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "daemon_smoke: FAIL — SIGTERM drain exited $rc, want 0" >&2
    cat "$tmp/daemon-2.log" >&2
    exit 1
fi
grep -q 'daemon drained cleanly' "$tmp/daemon-2.log" \
    || { echo "daemon_smoke: drain exit did not log clean drain" >&2; cat "$tmp/daemon-2.log" >&2; exit 1; }
pids=()
echo "daemon_smoke: OK — submit/poll byte-identical, SIGKILL recovery byte-identical, SIGTERM drained cleanly"
