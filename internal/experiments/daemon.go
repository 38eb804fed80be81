package experiments

// Characterization-as-a-service. The Daemon wraps the experiments Runner
// in a long-lived job service: clients submit campaigns (a figure set, a
// seed, an optional fault plan), the jobqueue admits or sheds them, and
// each accepted job runs on its own Runner — own seed, own context, own
// output buffer — against the shared disk cache, shared supervisor, and
// the shared cross-runner flight table.
//
// Crash safety is the WAL journal from the resilient-state PR, reused as
// a durable job log. Every job transition — accepted, recovered, started,
// point, completed, failed, cancelled, expired, shed — is one
// CRC-enveloped JobEvent record, written in exact transition order (the
// jobqueue fires OnTransition under its mutex). On restart, Recover
// salvage-decodes the journal, finds every job with an admission record
// but no terminal record, and requeues it. Re-running is cheap and
// byte-identical: completed points are served from the content-addressed
// disk cache (keyed by seed, quick, and faults), so a recovered job
// recomputes only the points its first life never finished. Point-level
// resume state deliberately lives in the cache, not the journal — a
// JobEvent carries no wall-clock timestamp, keeping the journal
// replayable and diffable across runs.
//
// Invariants the tests pin:
//
//   - accepted + shed == submitted (journal accounting; no silent drops)
//   - every accepted job reaches exactly one terminal record, except
//     across a crash (Abort/SIGKILL), where the missing terminal record
//     is precisely the recovery trigger
//   - a recovered job's figure output is byte-identical to an unbroken
//     run at the same spec
//   - Drain leaves queued jobs untouched (checkpointed, not cancelled)

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"jvmpower/internal/faultinject"
	"jvmpower/internal/jobqueue"
	"jvmpower/internal/metrics"
	"jvmpower/internal/supervisor"
)

// CampaignSpec is one job's payload: which figures to render and the
// exact execution identity (seed, quick, faults) that keys the disk
// cache. Two specs that agree on the identity fields dedupe their
// overlapping points through the shared flight table and the cache.
type CampaignSpec struct {
	// Figures names the figures to render, in order (see FigureNames).
	Figures []string `json:"figures"`
	// Seed drives determinism; 0 means the default seed (1).
	Seed uint64 `json:"seed,omitempty"`
	// Quick scales workloads down, as the -quick flag does.
	Quick bool `json:"quick,omitempty"`
	// Faults is a fault-injection plan in the -faults flag syntax
	// ("drop=0.05,glitch=0.001,seed=7"); empty disables injection.
	Faults string `json:"faults,omitempty"`
	// Priority orders the queue: higher runs first, ties FIFO.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the job's total queued+running time in
	// milliseconds; 0 defers to the daemon's default (possibly none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Client identifies the submitter for quota accounting; the HTTP
	// layer fills it from the request when empty.
	Client string `json:"client,omitempty"`
}

// normalize applies defaults and validates the spec against the figure
// registry and the fault-plan grammar. It returns the parsed plan (nil
// when Faults is empty).
func (s *CampaignSpec) normalize() (*faultinject.Plan, error) {
	if len(s.Figures) == 0 {
		return nil, fmt.Errorf("campaign: no figures requested (have %v)", FigureNames())
	}
	for _, f := range s.Figures {
		if figure(f) == nil {
			return nil, fmt.Errorf("campaign: unknown figure %q (have %v)", f, FigureNames())
		}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DeadlineMS < 0 {
		return nil, fmt.Errorf("campaign: negative deadline_ms %d", s.DeadlineMS)
	}
	if s.Faults == "" {
		return nil, nil
	}
	plan, err := faultinject.Parse(s.Faults)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return plan, nil
}

// JobEvent is one job-log record. Event is always "job", which sets it
// apart from point records — job history and point history share the
// journal file but never confuse each other.
// Admission records (accepted, recovered, shed) carry the full spec so
// recovery can reconstruct the job from the journal alone; progress and
// terminal records carry only identity and outcome. No record carries a
// wall-clock timestamp: the job log, like every other journal record,
// stays byte-comparable across runs.
type JobEvent struct {
	Event string `json:"event"` // always "job"
	Job   string `json:"job"`
	// State: accepted, recovered, started, point, completed, failed,
	// cancelled, expired, or shed.
	State  string `json:"state"`
	Client string `json:"client,omitempty"`
	Reason string `json:"reason,omitempty"`

	// The campaign spec, present on admission records only. Its fields
	// sit inline in the record; its client is the record's own Client,
	// which hides the spec's.
	*CampaignSpec

	// Point is the per-point progress payload, present on "point"
	// records only — the same PointEvent a one-shot run would journal,
	// here attributed to its job.
	Point *PointEvent `json:"point,omitempty"`
}

// DaemonConfig wires a Daemon to the shared execution substrate.
type DaemonConfig struct {
	// Journal receives every JobEvent and every job's point events; nil
	// disables durability (jobs are lost on restart). JournalPath is the
	// same file's path, read by Recover.
	Journal     *metrics.Journal
	JournalPath string
	// Metrics instruments the queue and runners; nil disables.
	Metrics *metrics.Registry
	// CacheDir is the shared content-addressed point cache. Strongly
	// recommended: without it, recovery re-runs jobs from scratch and
	// cross-job dedupe only helps concurrent overlap.
	CacheDir string
	// Supervisor routes point computation exactly as on a Runner; nil
	// computes in-process.
	Supervisor   *supervisor.Supervisor
	PointTimeout time.Duration
	// MaxQueue, MaxInflight, QuotaRate, QuotaBurst configure admission
	// control (see jobqueue.Config for defaults).
	MaxQueue    int
	MaxInflight int
	QuotaRate   float64
	QuotaBurst  int
	// DefaultDeadline bounds jobs that set no deadline; 0 = unbounded.
	DefaultDeadline time.Duration
	// Log receives daemon progress lines; nil discards.
	Log io.Writer
}

// Daemon is the characterization service: an admission-controlled job
// queue whose executor renders figure campaigns on per-job Runners.
type Daemon struct {
	cfg    DaemonConfig
	q      *jobqueue.Queue
	shared *SharedFlights

	mu   sync.Mutex
	jobs map[string]*daemonJob
	seq  int
}

// daemonJob is the daemon's view of one job: the spec, the figure output
// accumulating in a buffer, and the ordered event history that status
// queries and progress streams read.
type daemonJob struct {
	id        string
	spec      CampaignSpec
	plan      *faultinject.Plan
	recovered bool
	out       lockedBuffer

	mu       sync.Mutex
	cond     *sync.Cond
	events   []JobEvent
	points   int
	terminal bool
}

func newDaemonJob(id string, spec CampaignSpec, plan *faultinject.Plan, recovered bool) *daemonJob {
	dj := &daemonJob{id: id, spec: spec, plan: plan, recovered: recovered}
	dj.cond = sync.NewCond(&dj.mu)
	return dj
}

// lockedBuffer is a mutex-guarded bytes.Buffer: the job's Runner writes
// figure output while result queries read it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// NewDaemon builds a Daemon. Call Recover (optionally), then Start.
func NewDaemon(cfg DaemonConfig) *Daemon {
	d := &Daemon{cfg: cfg, shared: NewSharedFlights(), jobs: make(map[string]*daemonJob)}
	d.q = jobqueue.New(jobqueue.Config{
		MaxQueue:     cfg.MaxQueue,
		MaxInflight:  cfg.MaxInflight,
		QuotaRate:    cfg.QuotaRate,
		QuotaBurst:   cfg.QuotaBurst,
		Execute:      d.execute,
		OnTransition: d.onTransition,
		Metrics:      cfg.Metrics,
	})
	return d
}

// Start launches the executors.
func (d *Daemon) Start() { d.q.Start() }

// Drain stops admissions and lets running jobs finish; queued jobs stay
// checkpointed in the journal for the next life. Wait blocks until the
// last running job completes. Abort is the crash-consistent hard stop.
func (d *Daemon) Drain()                         { d.q.Drain() }
func (d *Daemon) Wait(ctx context.Context) error { return d.q.Wait(ctx) }
func (d *Daemon) Abort()                         { d.q.Abort() }

// Draining, Depth, and Inflight feed /healthz.
func (d *Daemon) Draining() bool { return d.q.Draining() }
func (d *Daemon) Depth() int     { return d.q.Depth() }
func (d *Daemon) Inflight() int  { return d.q.Inflight() }

// nextID mints job-%06d identifiers, monotone across recoveries.
func (d *Daemon) nextID() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	return fmt.Sprintf("job-%06d", d.seq)
}

// Submit validates and admits one campaign, returning the minted job ID.
// A shed submission still gets an ID and a journaled shed record — the
// accounting invariant is accepted + shed == submitted — but is not
// retained: only the typed *jobqueue.ShedError survives.
func (d *Daemon) Submit(spec CampaignSpec) (string, error) {
	plan, err := spec.normalize()
	if err != nil {
		return "", err
	}
	if spec.Client == "" {
		spec.Client = "anonymous"
	}
	id := d.nextID()
	dj := newDaemonJob(id, spec, plan, false)
	d.mu.Lock()
	d.jobs[id] = dj
	d.mu.Unlock()

	var deadline time.Time
	if spec.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	} else if d.cfg.DefaultDeadline > 0 {
		deadline = time.Now().Add(d.cfg.DefaultDeadline)
	}
	job := &jobqueue.Job{
		ID: id, Client: spec.Client, Priority: spec.Priority,
		Deadline: deadline, Payload: dj,
	}
	if err := d.q.Submit(job); err != nil {
		d.mu.Lock()
		delete(d.jobs, id)
		d.mu.Unlock()
		ev := admissionEvent(id, "shed", spec)
		if se, ok := jobqueue.AsShed(err); ok {
			ev.Reason = se.Reason
		}
		if d.cfg.Journal != nil {
			_ = d.cfg.Journal.Record(ev)
		}
		d.logf("job %s shed: %v", id, err)
		return id, err
	}
	return id, nil
}

// Cancel cancels a queued or running job. Unknown IDs return false.
func (d *Daemon) Cancel(id string) bool { return d.q.Cancel(id) }

// JobStatus is the public view of one job, combining queue state with
// campaign identity and progress.
type JobStatus struct {
	ID        string   `json:"id"`
	Client    string   `json:"client"`
	State     string   `json:"state"`
	Reason    string   `json:"reason,omitempty"`
	Priority  int      `json:"priority,omitempty"`
	Figures   []string `json:"figures"`
	Seed      uint64   `json:"seed"`
	Quick     bool     `json:"quick,omitempty"`
	Faults    string   `json:"faults,omitempty"`
	Recovered bool     `json:"recovered,omitempty"`
	// Points counts completed points so far; Events the job-log length.
	Points int `json:"points"`
	Events int `json:"events"`
}

// Status returns one job's status.
func (d *Daemon) Status(id string) (JobStatus, bool) {
	d.mu.Lock()
	dj, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	qs, ok := d.q.Get(id)
	if !ok {
		return JobStatus{}, false
	}
	return d.status(dj, qs), true
}

// List returns every known job in admission order.
func (d *Daemon) List() []JobStatus {
	d.mu.Lock()
	jobs := make(map[string]*daemonJob, len(d.jobs))
	for id, dj := range d.jobs {
		jobs[id] = dj
	}
	d.mu.Unlock()
	var out []JobStatus
	for _, qs := range d.q.Jobs() {
		if dj, ok := jobs[qs.ID]; ok {
			out = append(out, d.status(dj, qs))
		}
	}
	return out
}

func (d *Daemon) status(dj *daemonJob, qs jobqueue.Status) JobStatus {
	dj.mu.Lock()
	points, events := dj.points, len(dj.events)
	dj.mu.Unlock()
	return JobStatus{
		ID: dj.id, Client: qs.Client, State: string(qs.State), Reason: qs.Reason,
		Priority: qs.Priority, Figures: dj.spec.Figures, Seed: dj.spec.Seed,
		Quick: dj.spec.Quick, Faults: dj.spec.Faults,
		Recovered: dj.recovered, Points: points, Events: events,
	}
}

// Result returns a completed job's figure output. The bool reports
// whether the job exists; the status lets callers distinguish "not done
// yet" from "done".
func (d *Daemon) Result(id string) (string, JobStatus, bool) {
	st, ok := d.Status(id)
	if !ok {
		return "", JobStatus{}, false
	}
	d.mu.Lock()
	dj := d.jobs[id]
	d.mu.Unlock()
	return dj.out.String(), st, true
}

// Events returns the job's event log from index `from`, plus whether the
// job has reached a terminal event. Used by the JSONL progress stream.
func (d *Daemon) Events(id string, from int) ([]JobEvent, bool, bool) {
	d.mu.Lock()
	dj, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	dj.mu.Lock()
	defer dj.mu.Unlock()
	if from > len(dj.events) {
		from = len(dj.events)
	}
	evs := make([]JobEvent, len(dj.events)-from)
	copy(evs, dj.events[from:])
	return evs, dj.terminal, true
}

// WaitEvents blocks until the job has events past `from`, reaches a
// terminal state, or ctx expires; then behaves as Events.
func (d *Daemon) WaitEvents(ctx context.Context, id string, from int) ([]JobEvent, bool, bool) {
	d.mu.Lock()
	dj, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	stop := context.AfterFunc(ctx, func() {
		dj.mu.Lock()
		dj.cond.Broadcast()
		dj.mu.Unlock()
	})
	defer stop()
	dj.mu.Lock()
	for len(dj.events) <= from && !dj.terminal && ctx.Err() == nil {
		dj.cond.Wait()
	}
	dj.mu.Unlock()
	return d.Events(id, from)
}

// execute renders one job's campaign on a fresh Runner. Each job gets
// its own seed, context, fault plan, and output buffer; the disk cache,
// metrics, supervisor, and cross-runner flight table are
// shared with every other job.
func (d *Daemon) execute(ctx context.Context, j *jobqueue.Job) error {
	dj := j.Payload.(*daemonJob)
	r := NewRunner(&dj.out)
	r.Seed = dj.spec.Seed
	r.Quick = dj.spec.Quick
	r.Faults = dj.plan
	r.PointTimeout = d.cfg.PointTimeout
	r.CacheDir = d.cfg.CacheDir
	r.Metrics = d.cfg.Metrics
	r.Supervisor = d.cfg.Supervisor
	r.Ctx = ctx
	r.Shared = d.shared
	// No Runner journal: the runner's PointEvents are journaled as
	// job-attributed "point" JobEvents instead, via OnPoint, so each
	// point is recorded exactly once.
	r.OnPoint = func(p Point, ev PointEvent) {
		d.record(dj, JobEvent{Event: "job", Job: dj.id, State: "point", Point: &ev})
	}
	d.logf("job %s started: figures=%v seed=%d client=%s", dj.id, dj.spec.Figures, dj.spec.Seed, j.Client)
	for _, fig := range dj.spec.Figures {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.RunFigure(fig); err != nil {
			return fmt.Errorf("figure %s: %w", fig, err)
		}
	}
	return nil
}

// onTransition is the jobqueue's state-change hook: it maps queue
// transitions onto journal records and the per-job event stream. Called
// under the queue mutex, so record order in the journal is exactly
// transition order; it must not call back into the queue.
func (d *Daemon) onTransition(j *jobqueue.Job, from, to jobqueue.State, reason string) {
	dj, ok := j.Payload.(*daemonJob)
	if !ok {
		return
	}
	var ev JobEvent
	switch {
	case to == jobqueue.Queued && from == "":
		state := "accepted"
		if reason == "recovered" {
			state = "recovered"
		}
		ev = admissionEvent(dj.id, state, dj.spec)
	case to == jobqueue.Running:
		ev = JobEvent{Event: "job", Job: dj.id, State: "started", Client: j.Client}
	default:
		ev = JobEvent{Event: "job", Job: dj.id, State: string(to), Client: j.Client, Reason: reason}
	}
	d.record(dj, ev)
	if to.Terminal() {
		d.logf("job %s %s%s", dj.id, to, reasonSuffix(reason))
	}
}

func reasonSuffix(reason string) string {
	if reason == "" {
		return ""
	}
	return ": " + reason
}

// admissionEvent builds the full-spec record shared by accepted,
// recovered, and shed transitions.
func admissionEvent(id, state string, spec CampaignSpec) JobEvent {
	return JobEvent{Event: "job", Job: id, State: state, Client: spec.Client, CampaignSpec: &spec}
}

// record journals ev and appends it to the job's event stream.
func (d *Daemon) record(dj *daemonJob, ev JobEvent) {
	if d.cfg.Journal != nil {
		_ = d.cfg.Journal.Record(ev)
	}
	dj.mu.Lock()
	dj.events = append(dj.events, ev)
	if ev.State == "point" {
		dj.points++
	}
	if terminalEvent(ev.State) {
		dj.terminal = true
	}
	dj.cond.Broadcast()
	dj.mu.Unlock()
}

func terminalEvent(state string) bool {
	switch state {
	case "completed", "failed", "cancelled", "expired", "shed":
		return true
	}
	return false
}

// Recover replays the job log and requeues every job that was admitted
// but never reached a terminal record — exactly the set a crash (or a
// drain, which checkpoints queued jobs the same way) left unfinished.
// Recovered jobs run with no deadline: the journal records no wall-clock
// time, so the original deadline cannot be reconstructed, and recovery
// exists to finish the work, not to re-litigate its budget. Their points
// land on the disk cache's fast path, so a mostly-done job finishes in
// roughly the time its remaining points need. Returns the number of
// requeued jobs. Call before Start.
func (d *Daemon) Recover() (int, error) {
	if d.cfg.JournalPath == "" {
		return 0, nil
	}
	f, err := os.Open(d.cfg.JournalPath)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("daemon recover: %w", err)
	}
	defer f.Close()
	evs, rep, err := metrics.DecodeJournalSalvage[JobEvent](f)
	if err != nil {
		return 0, fmt.Errorf("daemon recover: %w", err)
	}
	if rep.Dropped > 0 {
		d.logf("recover: journal salvage dropped %d corrupt line(s) (torn tail: %v)", rep.Dropped, rep.TornTail)
		if d.cfg.Metrics != nil {
			d.cfg.Metrics.Counter("daemon.recover.salvage_dropped").Add(int64(rep.Dropped))
		}
	}

	admitted := make(map[string]JobEvent)
	terminal := make(map[string]bool)
	var order []string
	maxSeq := 0
	for _, ev := range evs {
		if ev.Event != "job" || ev.Job == "" {
			continue
		}
		if n, ok := jobSeq(ev.Job); ok && n > maxSeq {
			maxSeq = n
		}
		switch ev.State {
		case "accepted", "recovered":
			if _, seen := admitted[ev.Job]; !seen {
				order = append(order, ev.Job)
			}
			admitted[ev.Job] = ev
		case "completed", "failed", "cancelled", "expired", "shed":
			terminal[ev.Job] = true
		}
	}
	d.mu.Lock()
	if maxSeq > d.seq {
		d.seq = maxSeq
	}
	d.mu.Unlock()

	requeued := 0
	for _, id := range order {
		if terminal[id] {
			continue
		}
		ev := admitted[id]
		var spec CampaignSpec
		if ev.CampaignSpec != nil {
			spec = *ev.CampaignSpec
		}
		spec.Client, spec.DeadlineMS = ev.Client, 0
		plan, err := spec.normalize()
		if err != nil {
			// The spec was valid when first admitted; a parse failure here
			// means the journal record itself is suspect. Log and skip
			// rather than poison the restart.
			d.logf("recover: job %s has unreplayable spec, skipping: %v", id, err)
			continue
		}
		dj := newDaemonJob(id, spec, plan, true)
		d.mu.Lock()
		d.jobs[id] = dj
		d.mu.Unlock()
		job := &jobqueue.Job{ID: id, Client: spec.Client, Priority: spec.Priority, Payload: dj}
		if err := d.q.Requeue(job); err != nil {
			d.mu.Lock()
			delete(d.jobs, id)
			d.mu.Unlock()
			return requeued, fmt.Errorf("daemon recover: requeue %s: %w", id, err)
		}
		requeued++
	}
	if requeued > 0 {
		d.logf("recover: requeued %d incomplete job(s) from %s", requeued, d.cfg.JournalPath)
	}
	return requeued, nil
}

// jobSeq extracts the numeric suffix of a job-%06d identifier.
func jobSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Log != nil {
		fmt.Fprintf(d.cfg.Log, "daemon: "+format+"\n", args...)
	}
}
