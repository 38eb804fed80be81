// Command experiments regenerates the paper's tables and figures from the
// simulator: Figure 1 (thermal throttling), Figure 5 (benchmarks), Figure 6
// (Jikes energy decomposition), Figure 7 (EDP vs heap and collector),
// Figure 8 (component power), the Section VI-B memory-energy breakdown,
// Figures 9 and 10 (Kaffe on the P6), and Figure 11 (Kaffe on the PXA255).
//
// Examples:
//
//	experiments -all                  # everything (minutes)
//	experiments -fig fig7             # one figure
//	experiments -fig fig6 -quick
//	experiments -all -cache .points   # persist points; reruns are instant
//	experiments -fig fig7 -cpuprofile cpu.pprof
//	experiments -all -metrics m.json -journal j.jsonl
//	experiments -all -http localhost:6060   # live /metrics + /debug/pprof
//	experiments -all -isolate 4             # points run in worker subprocesses
//	experiments -serve-node :9310                     # run a remote executor node
//	experiments -all -nodes host1:9310,host2:9310     # distribute points across nodes
//	experiments -all -journal j.jsonl -journal-sync interval=2s
//	experiments -fsck -cache .points -journal j.jsonl       # offline integrity check
//	experiments -daemon -http :8080 -cache .points -journal jobs.jsonl
//	                                  # characterization service: POST /jobs
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	hpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"jvmpower/internal/experiments"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/metrics"
	"jvmpower/internal/supervisor"
)

// main delegates to run so that every deferred cleanup — CPU/heap profile
// flushes, the metrics snapshot, the journal close — executes on all exit
// paths. The old layout called os.Exit(1) directly on a figure error,
// which skipped the deferred pprof.StopCPUProfile and truncated the
// profile exactly when a failing run most needed it.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig         = flag.String("fig", "", "figure to regenerate: "+strings.Join(experiments.FigureNames(), ", "))
		all         = flag.Bool("all", false, "regenerate every figure")
		quick       = flag.Bool("quick", false, "scaled-down workloads and thinned sweeps")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		cacheDir    = flag.String("cache", "", "directory for the on-disk point cache (empty = disabled)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		metricsFile = flag.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
		journalFile = flag.String("journal", "", "write one JSONL event per characterization point to this file (truncated on open; -daemon appends)")
		httpAddr    = flag.String("http", "", "serve live /metrics, /debug/vars, and /debug/pprof on this address")
		faults      = flag.String("faults", "", "fault-injection plan, e.g. drop=0.05,glitch=0.001,seed=7 (see internal/faultinject)")
		pointTO     = flag.Duration("point-timeout", 0, "wall-time budget per characterization attempt (0 = unbounded)")
		isolate     = flag.Int("isolate", 0, "run each point in one of N supervised worker subprocesses (0 = in-process)")
		worker      = flag.Bool("worker", false, "internal: run as a point worker speaking the supervisor protocol on stdin/stdout")
		nodes       = flag.String("nodes", "", "comma-separated remote executor addresses (host:port); points run there")
		serveNode   = flag.String("serve-node", "", "run as a remote executor node listening on this address (host:port; port 0 picks one)")
		capacity    = flag.Int("capacity", 0, "with -serve-node: concurrent-point budget advertised to the coordinator (0 = GOMAXPROCS)")
		journalSync = flag.String("journal-sync", "point", "journal durability policy: point (fsync per record), interval[=DUR], or close")
		fsck        = flag.Bool("fsck", false, "offline integrity check: scan -cache DIR and/or -journal FILE, quarantine/repair corruption, then exit")
		fsckRepair  = flag.Bool("fsck-repair", false, "with -fsck: rewrite a corrupt journal to its salvaged records (backup kept as FILE.pre-fsck)")
		daemonMode  = flag.Bool("daemon", false, "characterization service: accept campaign jobs over -http with admission control and a crash-safe job log in -journal")
		queueDepth  = flag.Int("queue-depth", 64, "with -daemon: pending-job bound; submissions beyond it are shed with 503")
		maxInflight = flag.Int("max-inflight", 2, "with -daemon: concurrently running jobs")
		quotaRate   = flag.Float64("quota-rate", 1, "with -daemon: per-client sustained submission rate in jobs/second (0 = no quotas)")
		quotaBurst  = flag.Int("quota-burst", 8, "with -daemon: per-client submission burst above the sustained rate")
		jobDeadline = flag.Duration("job-deadline", 0, "with -daemon: default deadline for jobs that set none (0 = unbounded)")
	)
	flag.Parse()

	if *worker {
		// Worker mode: the supervisor in a parent `experiments -isolate N`
		// re-invoked this binary. Everything happens over stdin/stdout;
		// stderr passes through to the parent's Config.Stderr.
		if err := experiments.ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	if *daemonMode {
		// The daemon's per-campaign knobs (seed, quick, faults, deadline)
		// arrive in each job's spec; the flags below would be silently
		// ignored or conflict outright, so refuse them loudly.
		switch {
		case *fig != "" || *all:
			return fail(errors.New("-daemon runs campaigns submitted over HTTP; drop -fig/-all"))
		case *httpAddr == "" || *journalFile == "" || *cacheDir == "":
			return fail(errors.New("-daemon needs -http ADDR (the job API), -journal FILE (the durable job log), and -cache DIR (the point store recovery resumes from)"))
		case *faults != "":
			return fail(errors.New("-daemon takes fault plans per campaign (the \"faults\" field of the job spec), not globally"))
		case *serveNode != "":
			return fail(errors.New("-daemon and -serve-node are different services; run one per process"))
		}
	}

	if *fsck {
		// Offline integrity mode: verify every cache entry and/or journal
		// record without running anything. Exit 0 when everything is intact,
		// 4 when corruption was found (and, with -fsck-repair, dealt with),
		// 1 on operational errors.
		if *cacheDir == "" && *journalFile == "" {
			return fail(errors.New("-fsck needs -cache DIR and/or -journal FILE to check"))
		}
		rep, err := experiments.Fsck(os.Stderr, *cacheDir, *journalFile, *fsckRepair)
		if err != nil {
			return fail(err)
		}
		if rep.Corrupt() {
			return 4
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Deferred (not run after the figures) so the heap profile is
		// written even when a figure errors out.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	reg := metrics.NewRegistry()
	r := experiments.NewRunner(os.Stdout)
	r.Quick = *quick
	r.Seed = *seed
	r.CacheDir = *cacheDir
	r.Metrics = reg
	r.PointTimeout = *pointTO

	if *faults != "" {
		plan, err := faultinject.Parse(*faults)
		if err != nil {
			return fail(err)
		}
		r.Faults = plan
		fmt.Fprintf(os.Stderr, "experiments: fault plan active: %s\n", plan)
	}

	// Signal handling splits by mode. One-shot runs: SIGINT/SIGTERM cancel
	// the run context — in-flight points are abandoned, the dispatcher
	// unwinds with context.Canceled, and every deferred flush below
	// (metrics snapshot, journal, profiles) still executes before the
	// nonzero exit; a second signal restores default handling so a stuck
	// run can be killed outright. Services (-daemon, -serve-node) drain
	// instead: the first signal closes drainC — stop admissions, finish
	// in-flight work, exit cleanly — and only the second escalates to the
	// hard cancel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drainC := make(chan struct{})
	graceful := *daemonMode || *serveNode != ""
	sigC := make(chan os.Signal, 2)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)
	go func() {
		sig, ok := <-sigC
		if !ok {
			return
		}
		if graceful {
			fmt.Fprintf(os.Stderr, "\nexperiments: %v: draining (again to abort)\n", sig)
			close(drainC)
			if sig, ok = <-sigC; !ok {
				return
			}
			fmt.Fprintf(os.Stderr, "\nexperiments: %v: aborting\n", sig)
			cancel()
			signal.Stop(sigC)
			return
		}
		fmt.Fprintf(os.Stderr, "\nexperiments: %v: cancelling run (again to kill)\n", sig)
		cancel()
		signal.Stop(sigC)
	}()
	r.Ctx = ctx

	if *serveNode != "" {
		// Executor-node mode: serve points to a remote coordinator until
		// drained or interrupted. The runner, caches, and journal above are
		// unused — every setting that determines a point's bytes arrives in
		// the spec.
		if err := experiments.ServeNode(ctx, *serveNode, *capacity, drainC, os.Stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	if *isolate > 0 || *nodes != "" {
		cfg := supervisor.Config{
			Workers: *isolate,
			// The point budget is enforced from outside: a local worker is
			// SIGKILLed instead of stopping at its next cancellation poll,
			// so the whole point (every retry) shares one wall-clock
			// budget.
			PointTimeout: *pointTO,
			MemLimit:     os.Getenv("JVMPOWER_WORKER_GOMEMLIMIT"),
			Metrics:      reg,
			Stderr:       os.Stderr,
			OnNodeEvent:  r.ObserveNodeEvent,
		}
		if *isolate > 0 {
			exe, err := os.Executable()
			if err != nil {
				return fail(err)
			}
			cfg.Argv = []string{exe, "-worker"}
			fmt.Fprintf(os.Stderr, "experiments: isolation active: %d worker(s)\n", *isolate)
		}
		if *nodes != "" {
			cfg.Nodes = strings.Split(*nodes, ",")
			fmt.Fprintf(os.Stderr, "experiments: fleet active: %d node(s)\n", len(cfg.Nodes))
		}
		sup, err := supervisor.New(cfg)
		if err != nil {
			return fail(err)
		}
		defer sup.Close()
		r.Supervisor = sup
	}

	if *metricsFile != "" {
		defer func() {
			if err := reg.WriteFile(*metricsFile); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: metrics snapshot:", err)
			}
		}()
	}
	var jnl *metrics.Journal
	if *journalFile != "" {
		open := metrics.OpenJournal
		if *daemonMode {
			// The daemon's journal is the job log recovery replays; append
			// to it.
			open = metrics.OpenJournalAppend
		}
		j, err := open(*journalFile)
		if err != nil {
			return fail(err)
		}
		policy, interval, err := metrics.ParseSyncPolicy(*journalSync)
		if err != nil {
			return fail(err)
		}
		j.SetSync(policy, interval)
		if dir := os.Getenv("JVMPOWER_CRASH_JOURNAL"); dir != "" {
			// Crash-torture hook (tests and scripts/crash_torture.sh only):
			// SIGKILL this process after the Nth journal record, or mid-way
			// through writing it.
			n, mid, err := metrics.ParseCrashDirective(dir)
			if err != nil {
				return fail(err)
			}
			j.SetCrashPoint(n, mid)
			fmt.Fprintf(os.Stderr, "experiments: crash injection armed: %s\n", dir)
		}
		defer func() {
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: journal:", err)
			}
		}()
		r.Journal = j
		jnl = j
	}

	// Daemon construction precedes the HTTP server so the job API mounts
	// on the same mux as /metrics. Recovery runs before Start: incomplete
	// jobs from the previous life are requeued ahead of any executor.
	var dmn *experiments.Daemon
	recovered := 0
	if *daemonMode {
		dmn = experiments.NewDaemon(experiments.DaemonConfig{
			Journal:         jnl,
			JournalPath:     *journalFile,
			Metrics:         reg,
			CacheDir:        *cacheDir,
			Supervisor:      r.Supervisor,
			PointTimeout:    *pointTO,
			MaxQueue:        *queueDepth,
			MaxInflight:     *maxInflight,
			QuotaRate:       *quotaRate,
			QuotaBurst:      *quotaBurst,
			DefaultDeadline: *jobDeadline,
			Log:             os.Stderr,
		})
		var err error
		if recovered, err = dmn.Recover(); err != nil {
			return fail(err)
		}
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fail(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", hpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", hpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", hpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", hpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", hpprof.Trace)
		if dmn != nil {
			dmn.RegisterHTTP(mux)
			fmt.Fprintf(os.Stderr, "experiments: job API at http://%s/jobs and /healthz\n", ln.Addr())
		}
		fmt.Fprintf(os.Stderr, "experiments: introspection at http://%s/metrics and /debug/pprof\n", ln.Addr())
		srv := &http.Server{
			// Every request is tagged with an X-Request-Id so client error
			// bodies correlate with the stderr log.
			Handler: experiments.WithRequestID(mux),
			// A peer that connects and never finishes its request headers
			// (or body, or never reads its response) must not pin a
			// connection and its goroutine forever. Long responses — pprof
			// profiles, job progress streams — extend their own write
			// deadline via http.ResponseController.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() { _ = srv.Serve(ln) }()
		// Deferred, so the unwind path — including the SIGINT/SIGTERM
		// cancellation above — drains in-flight scrapes instead of
		// snapping the listener shut mid-response.
		defer func() {
			shCtx, shCancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer shCancel()
			_ = srv.Shutdown(shCtx)
		}()
	}

	if dmn != nil {
		// Service mode: run until drained. The first SIGINT/SIGTERM stops
		// admissions (new submissions shed with a typed "draining" error),
		// lets running jobs finish, leaves queued jobs checkpointed in the
		// journal, and exits 0; a second signal aborts crash-consistently
		// (no terminal records — the next life recovers the in-flight
		// jobs). The deferred journal close and HTTP shutdown above run on
		// both paths.
		dmn.Start()
		fmt.Fprintf(os.Stderr, "experiments: daemon ready on %s (%d job(s) recovered)\n", *httpAddr, recovered)
		select {
		case <-drainC:
			dmn.Drain()
			if err := dmn.Wait(ctx); err != nil {
				dmn.Abort()
				fmt.Fprintln(os.Stderr, "experiments: daemon aborted mid-drain")
				return 130
			}
			fmt.Fprintln(os.Stderr, "experiments: daemon drained cleanly")
			return 0
		case <-ctx.Done():
			dmn.Abort()
			fmt.Fprintln(os.Stderr, "experiments: daemon aborted")
			return 130
		}
	}

	start := time.Now()
	var err error
	switch {
	case *all:
		err = r.RunEverything()
	case *fig != "":
		err = r.RunFigure(*fig)
	default:
		flag.Usage()
		return 2
	}
	r.WriteFaultReport(os.Stderr)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; partial results flushed")
			return 130
		}
		return fail(err)
	}
	fmt.Printf("\n(completed in %v)\n", time.Since(start).Round(time.Millisecond))
	return 0
}
