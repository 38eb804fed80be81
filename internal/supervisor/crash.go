package supervisor

import (
	"errors"
	"fmt"
)

// Crash classification. When an executor dies, the supervisor reduces the
// evidence — wait status, whether we initiated the kill, whether a memory
// ceiling was set, what the connection reader saw — to one CrashKind. The
// taxonomy drives four consumers: the per-kind metrics counters, the fault
// report's error strings, the figure circuit breakers in the experiments
// package (every kind counts as a death), and the death rule below, which
// decides between requeueing a point and failing it.

// CrashKind is the classified cause of an executor death.
type CrashKind uint8

// The crash kinds.
const (
	// CrashSpawn: the executor could not be started (process spawn or
	// TCP dial) or never completed the protocol handshake, whatever the
	// reason: silence, a wrong first frame, or a protocol version other
	// than the supervisor's.
	CrashSpawn CrashKind = iota
	// CrashExit: the worker exited on its own with a nonzero status (a
	// panic that escaped the point guard, os.Exit in a dependency, a
	// corrupted runtime).
	CrashExit
	// CrashSignal: the worker was killed by a signal the supervisor did
	// not send (SIGSEGV from a cgo bug, an operator's kill).
	CrashSignal
	// CrashOOM: the worker died by SIGKILL that the supervisor did not
	// send — on Linux the kernel OOM killer's signature, and the expected
	// outcome when a runaway point exhausts the worker's memory ceiling.
	CrashOOM
	// CrashProtocol: after the handshake, the executor wrote bytes that
	// do not parse as frames or sent a frame out of turn, or (a local
	// worker) exited cleanly mid-point.
	CrashProtocol
	// CrashTimeout: the point exceeded its wall-time budget and the
	// supervisor killed the worker to reclaim its CPU and memory.
	CrashTimeout
	// CrashHang: a local worker went silent — no heartbeat or result
	// within the watchdog budget — and the supervisor killed it. Distinct
	// from CrashTimeout: a hung worker is wedged (deadlock, livelock,
	// stuck syscall), not merely slow.
	CrashHang
	// CrashDisconnect: a TCP node's connection closed — the remote end
	// hung up (process killed, socket reset, clean close mid-campaign).
	// A local worker's closed pipe is classified by its wait status
	// instead; a remote peer has none to read.
	CrashDisconnect
	// CrashPartition: a TCP node's connection is open but silent — no
	// heartbeat or result within the watchdog budget. The remote sibling
	// of CrashHang: the node may be wedged, the link may be dead, or
	// frames may be delayed past usefulness; the supervisor cannot tell
	// these apart and cannot kill a remote process, so it drops the
	// connection.
	CrashPartition

	nCrashKinds
)

var crashKindNames = [nCrashKinds]string{
	"spawn", "exit", "signal", "oom", "protocol", "timeout", "hang",
	"disconnect", "partition",
}

// String returns the kind's metrics/reporting key.
func (k CrashKind) String() string {
	if int(k) < len(crashKindNames) {
		return crashKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// requeues is the death rule, the same for every executor.
// Connection-level deaths (spawn, protocol, disconnect, partition) say
// nothing about the point, so the executor's in-flight points are requeued
// once and the death counts toward the executor's breaker. Point-level
// deaths (exit, signal, oom, hang, timeout) fail the point in flight and
// leave the breaker alone: the executor is restarted as often as points
// kill it, and the figure breakers decide when to stop feeding it.
func (k CrashKind) requeues() bool {
	switch k {
	case CrashSpawn, CrashProtocol, CrashDisconnect, CrashPartition:
		return true
	}
	return false
}

// CrashError reports one classified executor death. It is the error the
// experiments dispatcher receives for a point whose executor died;
// errors.As against it is how callers distinguish executor deaths (which
// feed circuit breakers) from ordinary point failures (which do not).
type CrashError struct {
	// Kind is the classified cause.
	Kind CrashKind
	// ExitCode is the worker's exit status when Kind is CrashExit.
	ExitCode int
	// Signal names the fatal signal when Kind is CrashSignal or CrashOOM.
	Signal string
	// Detail carries the human-readable evidence (wait status, protocol
	// error, budget exceeded).
	Detail string
}

// Error implements error.
func (e *CrashError) Error() string {
	msg := fmt.Sprintf("supervisor: worker crash (%s)", e.Kind)
	switch e.Kind {
	case CrashExit:
		msg = fmt.Sprintf("supervisor: worker exited with status %d", e.ExitCode)
	case CrashSignal:
		msg = fmt.Sprintf("supervisor: worker killed by signal %s", e.Signal)
	case CrashOOM:
		msg = fmt.Sprintf("supervisor: worker killed by un-requested %s (kernel OOM kill signature)", e.Signal)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// AsCrash extracts a CrashError from an error chain.
func AsCrash(err error) (*CrashError, bool) {
	var ce *CrashError
	ok := errors.As(err, &ce)
	return ce, ok
}
