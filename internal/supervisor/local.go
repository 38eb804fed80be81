package supervisor

import (
	"fmt"
	"os"
	"os/exec"
	"sync/atomic"
	"syscall"
	"time"
)

// Local workers: the only executor-specific code. A worker is a child
// process whose stdout and stdin pipes are its connection; everything
// above the pipes is the shared node dialect. What stays local is the
// process: spawn with GOMEMLIMIT, SIGKILL, reap, and reading the wait
// status that separates an exit, a signal and the kernel OOM killer.

// proc is one live worker process.
type proc struct {
	cmd *exec.Cmd
	// killed records that the supervisor sent SIGKILL: the bit that
	// separates our kill (abandoned point, hang, Close) from the kernel's
	// (OOM).
	killed atomic.Bool
}

// pipeConn is a worker's connection: its stdout to read, its stdin to
// write. Pipes made by os.Pipe honour deadlines, so the watchdog works
// over them as over a socket.
type pipeConn struct{ r, w *os.File }

func (c *pipeConn) Read(b []byte) (int, error)         { return c.r.Read(b) }
func (c *pipeConn) Write(b []byte) (int, error)        { return c.w.Write(b) }
func (c *pipeConn) SetReadDeadline(t time.Time) error  { return c.r.SetReadDeadline(t) }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { return c.w.SetWriteDeadline(t) }

// Close closes both pipes; a live worker reads EOF on stdin and exits.
func (c *pipeConn) Close() error {
	c.w.Close()
	return c.r.Close()
}

// spawn starts one worker process with its stdin and stdout on fresh pipes.
func spawn(cfg Config) (*proc, *pipeConn, error) {
	cmd := exec.Command(cfg.Argv[0], cfg.Argv[1:]...)
	cmd.Env = append(os.Environ(), cfg.Env...)
	if cfg.MemLimit != "" {
		cmd.Env = append(cmd.Env, "GOMEMLIMIT="+cfg.MemLimit)
	}
	cmd.Stderr = cfg.Stderr
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, nil, err
	}
	cmd.Stdin, cmd.Stdout = inR, outW
	err = cmd.Start()
	inR.Close() // the child holds its own copies now
	outW.Close()
	c := &pipeConn{r: outR, w: inW}
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return &proc{cmd: cmd}, c, nil
}

// kill SIGKILLs the worker, recording that the supervisor did it.
func (p *proc) kill() {
	p.killed.Store(true)
	_ = p.cmd.Process.Kill()
}

// abort drops the connection and SIGKILLs a local worker.
func (l *link) abort() {
	l.conn.Close()
	if l.proc != nil {
		l.proc.kill()
	}
}

// teardown closes the connection and reaps a local worker, returning its
// wait status as " (status)" for crash details ("" for a TCP node). It is
// called once per link, after the worker is dead or told to go.
func (l *link) teardown() string {
	l.conn.Close()
	if l.proc == nil {
		return ""
	}
	if err := l.proc.cmd.Wait(); err != nil {
		return " (" + err.Error() + ")"
	}
	return " (exit status 0)"
}

// crash reads a reaped worker's wait status as a CrashError: a SIGKILL the
// supervisor did not send is the OOM killer's signature, any other signal
// is a signal crash, a nonzero status an exit crash, and a clean exit with
// the connection still in use a protocol violation.
func (p *proc) crash(memLimit string) *CrashError {
	state := p.cmd.ProcessState
	if state == nil {
		return &CrashError{Kind: CrashProtocol, Detail: "worker vanished without wait status"}
	}
	if ws, ok := state.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
		sig := ws.Signal()
		if sig == syscall.SIGKILL && !p.killed.Load() {
			detail := "no SIGKILL sent by supervisor"
			if memLimit != "" {
				detail += "; memory ceiling GOMEMLIMIT=" + memLimit + " was set"
			}
			return &CrashError{Kind: CrashOOM, Signal: sig.String(), Detail: detail}
		}
		return &CrashError{Kind: CrashSignal, Signal: sig.String()}
	}
	if code := state.ExitCode(); code != 0 {
		return &CrashError{Kind: CrashExit, ExitCode: code}
	}
	return &CrashError{Kind: CrashProtocol, Detail: fmt.Sprintf("worker pid %d exited cleanly mid-point", state.Pid())}
}
