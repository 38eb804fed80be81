package experiments

// Daemon gate tests: the overload-and-crash contract from the
// characterization-service PR. Under a submission burst against capped
// queue depth and quotas, (a) every accepted job completes with figure
// output byte-identical to a one-shot Runner at the same spec, (b) every
// rejected job gets a typed shed error and a journaled shed record —
// accepted + shed == submitted — and (c) an abort mid-campaign followed
// by a restart recovers every incomplete job to byte-identical results
// through WAL salvage plus the content-addressed point cache.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/jobqueue"
	"jvmpower/internal/metrics"
	"jvmpower/internal/units"
)

// fig6Reference renders the reference output a daemon job must match.
func fig6Reference(t *testing.T, seed uint64) string {
	t.Helper()
	var ref strings.Builder
	r := quickRunner(&ref)
	r.Seed = seed
	if err := r.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}
	return ref.String()
}

// quickSpec is the campaign every daemon test submits.
func quickSpec(seed uint64, client string) CampaignSpec {
	return CampaignSpec{Figures: []string{"fig6"}, Seed: seed, Quick: true, Client: client}
}

// openTestJournal opens (or reopens, appending) the daemon's job log.
// SyncClose keeps fsync off the test's critical path; Close flushes
// everything the recovery step reads.
func openTestJournal(t *testing.T, path string, resume bool) *metrics.Journal {
	t.Helper()
	open := metrics.OpenJournal
	if resume {
		open = metrics.OpenJournalAppend
	}
	j, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSync(metrics.SyncClose, 0)
	return j
}

// waitJobTerminal blocks until the job reaches a terminal event.
func waitJobTerminal(t *testing.T, d *Daemon, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	from := 0
	for {
		evs, terminal, ok := d.WaitEvents(ctx, id, from)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		from += len(evs)
		if terminal {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("job %s did not reach a terminal state", id)
		}
	}
	st, ok := d.Status(id)
	if !ok {
		t.Fatalf("job %s has no status after terminal event", id)
	}
	return st
}

// waitJobEvent blocks until the job's log contains an event in `state`.
func waitJobEvent(t *testing.T, d *Daemon, id, state string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	from := 0
	for {
		evs, terminal, ok := d.WaitEvents(ctx, id, from)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		for _, ev := range evs {
			if ev.State == state {
				return
			}
		}
		from += len(evs)
		if terminal || ctx.Err() != nil {
			t.Fatalf("job %s never reached event %q", id, state)
		}
	}
}

// jobLog salvage-decodes the job records from a journal file.
func jobLog(t *testing.T, path string) []JobEvent {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, rep, err := metrics.DecodeJournalSalvage[JobEvent](f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("job log salvage dropped %d line(s)", rep.Dropped)
	}
	var jobs []JobEvent
	for _, ev := range evs {
		if ev.Event == "job" {
			jobs = append(jobs, ev)
		}
	}
	return jobs
}

// TestDaemonJobLifecycle: one accepted campaign runs to completion with
// byte-identical figure output, and the journal records the full
// accepted -> started -> point* -> completed history for it.
func TestDaemonJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.jsonl")
	j := openTestJournal(t, jpath, false)
	d := NewDaemon(DaemonConfig{
		Journal: j, JournalPath: jpath, Metrics: metrics.NewRegistry(),
		CacheDir: filepath.Join(dir, "points"), MaxInflight: 1,
	})
	d.Start()
	id, err := d.Submit(quickSpec(7, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJobTerminal(t, d, id)
	if st.State != "completed" {
		t.Fatalf("job state = %s (%s), want completed", st.State, st.Reason)
	}
	if st.Points == 0 {
		t.Fatalf("completed job reports 0 points")
	}
	out, _, ok := d.Result(id)
	if !ok {
		t.Fatalf("no result for %s", id)
	}
	if want := fig6Reference(t, 7); out != want {
		t.Fatalf("daemon output differs from one-shot reference:\n got %d bytes\nwant %d bytes", len(out), len(want))
	}
	d.Drain()
	if err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	states := make(map[string]int)
	for _, ev := range jobLog(t, jpath) {
		if ev.Job != id {
			t.Fatalf("unexpected job %q in log", ev.Job)
		}
		states[ev.State]++
	}
	for _, want := range []string{"accepted", "started", "completed"} {
		if states[want] != 1 {
			t.Fatalf("journal has %d %q record(s), want 1 (states: %v)", states[want], want, states)
		}
	}
	if states["point"] != st.Points {
		t.Fatalf("journal has %d point records, job reported %d", states["point"], st.Points)
	}
}

// TestDaemonOverloadGate: a burst against MaxQueue=1/MaxInflight=1 sheds
// the overflow with typed queue_full errors, every accepted job still
// completes byte-identically, and the journal accounts for every
// submission: accepted + shed == submitted, one terminal record each.
func TestDaemonOverloadGate(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.jsonl")
	j := openTestJournal(t, jpath, false)
	d := NewDaemon(DaemonConfig{
		Journal: j, JournalPath: jpath, Metrics: metrics.NewRegistry(),
		CacheDir: filepath.Join(dir, "points"), MaxInflight: 1, MaxQueue: 1,
	})
	d.Start()

	// The first job must be running (not merely queued) before the burst,
	// so the depth cap bites deterministically: one slot running, one
	// queued, everything else shed.
	first, err := d.Submit(quickSpec(7, "burst"))
	if err != nil {
		t.Fatal(err)
	}
	waitJobEvent(t, d, first, "started")

	const submitted = 6
	accepted := []string{first}
	shed := 0
	for i := 1; i < submitted; i++ {
		id, err := d.Submit(quickSpec(7, "burst"))
		if err == nil {
			accepted = append(accepted, id)
			continue
		}
		se, ok := jobqueue.AsShed(err)
		if !ok {
			t.Fatalf("submission %d: untyped rejection %v", i, err)
		}
		if se.Reason != jobqueue.ReasonQueueFull {
			t.Fatalf("submission %d: shed reason %q, want %q", i, se.Reason, jobqueue.ReasonQueueFull)
		}
		if id == "" {
			t.Fatalf("submission %d: shed without a job ID", i)
		}
		shed++
	}
	// The first submission runs, the second queues; with fig6 lasting far
	// longer than four Submit calls, the rest must hit the depth cap.
	if len(accepted) != 2 {
		t.Fatalf("accepted %d jobs, want 2 (shed %d)", len(accepted), shed)
	}

	want := fig6Reference(t, 7)
	for _, id := range accepted {
		st := waitJobTerminal(t, d, id)
		if st.State != "completed" {
			t.Fatalf("accepted job %s ended %s (%s)", id, st.State, st.Reason)
		}
		out, _, _ := d.Result(id)
		if out != want {
			t.Fatalf("job %s output differs from reference", id)
		}
	}
	d.Drain()
	if err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	admitted, shedded := make(map[string]bool), make(map[string]bool)
	terminals := make(map[string]int)
	for _, ev := range jobLog(t, jpath) {
		switch ev.State {
		case "accepted":
			admitted[ev.Job] = true
		case "shed":
			shedded[ev.Job] = true
			if ev.Reason != jobqueue.ReasonQueueFull {
				t.Fatalf("shed record for %s has reason %q", ev.Job, ev.Reason)
			}
		case "completed", "failed", "cancelled", "expired":
			terminals[ev.Job]++
		}
	}
	if len(admitted)+len(shedded) != submitted {
		t.Fatalf("journal: accepted %d + shed %d != submitted %d", len(admitted), len(shedded), submitted)
	}
	for id := range admitted {
		if terminals[id] != 1 {
			t.Fatalf("accepted job %s has %d terminal record(s), want 1", id, terminals[id])
		}
	}
	for id := range shedded {
		if admitted[id] || terminals[id] != 0 {
			t.Fatalf("shed job %s has lifecycle records", id)
		}
	}
}

// TestDaemonCrashRecovery: abort mid-campaign (the in-process SIGKILL
// stand-in — no terminal records), restart on the same journal and
// cache, and the recovered job finishes byte-identical to an unbroken
// run, with its first life's points served from the disk cache.
func TestDaemonCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.jsonl")
	cache := filepath.Join(dir, "points")

	j1 := openTestJournal(t, jpath, false)
	d1 := NewDaemon(DaemonConfig{
		Journal: j1, JournalPath: jpath, Metrics: metrics.NewRegistry(),
		CacheDir: cache, MaxInflight: 1,
	})
	d1.Start()
	id, err := d1.Submit(quickSpec(11, "carol"))
	if err != nil {
		t.Fatal(err)
	}
	// Let the campaign make real progress, then crash: at least one point
	// must land in the cache for recovery's fast path to be exercised.
	waitJobEvent(t, d1, id, "point")
	d1.Abort()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range jobLog(t, jpath) {
		if terminalEvent(ev.State) {
			t.Fatalf("aborted daemon journaled terminal record %q for %s", ev.State, ev.Job)
		}
	}

	j2 := openTestJournal(t, jpath, true)
	d2 := NewDaemon(DaemonConfig{
		Journal: j2, JournalPath: jpath, Metrics: metrics.NewRegistry(),
		CacheDir: cache, MaxInflight: 1,
	})
	n, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d job(s), want 1", n)
	}
	d2.Start()
	st := waitJobTerminal(t, d2, id)
	if st.State != "completed" {
		t.Fatalf("recovered job ended %s (%s), want completed", st.State, st.Reason)
	}
	if !st.Recovered {
		t.Fatalf("job status does not mark recovery")
	}
	out, _, _ := d2.Result(id)
	if want := fig6Reference(t, 11); out != want {
		t.Fatalf("recovered output differs from unbroken reference")
	}
	// The second life reuses the first life's cached points: its event
	// log must show at least one disk-served point.
	evs, _, _ := d2.Events(id, 0)
	disk := 0
	for _, ev := range evs {
		if ev.State == "point" && ev.Point != nil && ev.Point.Source == "disk" {
			disk++
		}
	}
	if disk == 0 {
		t.Fatalf("recovered job recomputed every point; want disk-cache reuse")
	}
	d2.Drain()
	if err := d2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	// A second recovery pass over the now-complete log finds nothing.
	d3 := NewDaemon(DaemonConfig{JournalPath: jpath, CacheDir: cache})
	if n, err := d3.Recover(); err != nil || n != 0 {
		t.Fatalf("post-completion recover = %d, %v; want 0, nil", n, err)
	}
}

// TestDaemonSharedDedupe: two concurrent jobs with identical specs
// compute every point exactly once between them — the cross-runner
// flight table plus the disk cache keep total characterize runs at the
// single-campaign count — and both outputs match the reference.
func TestDaemonSharedDedupe(t *testing.T) {
	// Reference run with its own registry gives the single-campaign cost.
	refReg := metrics.NewRegistry()
	var ref strings.Builder
	r := quickRunner(&ref)
	r.Seed = 7
	r.Metrics = refReg
	if err := r.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}
	refRuns := refReg.Snapshot().Counters["core.characterize.runs"]

	dir := t.TempDir()
	reg := metrics.NewRegistry()
	d := NewDaemon(DaemonConfig{
		Metrics: reg, CacheDir: filepath.Join(dir, "points"), MaxInflight: 2,
	})
	d.Start()
	id1, err := d.Submit(quickSpec(7, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := d.Submit(quickSpec(7, "bob"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{id1, id2} {
		if st := waitJobTerminal(t, d, id); st.State != "completed" {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Reason)
		}
		out, _, _ := d.Result(id)
		if out != ref.String() {
			t.Fatalf("job %s output differs from reference", id)
		}
	}
	d.Drain()
	if err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if runs := reg.Snapshot().Counters["core.characterize.runs"]; runs != refRuns {
		t.Fatalf("two identical campaigns ran characterize %d times, single campaign needs %d", runs, refRuns)
	}
}

// TestSharedOwnerRechecksDiskCache: a point another job finished — stored
// to disk, its flight already published and forgotten — is served from
// disk by the runner that claims it next, not computed again. That window
// is how TestDaemonSharedDedupe once counted one run too many; a member is
// claimed before the disk is probed, so it cannot open.
func TestSharedOwnerRechecksDiskCache(t *testing.T) {
	path, p, _ := cacheEntryPath(t)
	var buf strings.Builder
	r := quickRunner(&buf)
	r.CacheDir = filepath.Dir(path)
	r.Metrics = metrics.NewRegistry()
	r.Shared = NewSharedFlights()
	var source string
	r.OnPoint = func(_ Point, ev PointEvent) { source = ev.Source }
	if res, err := r.Run(p); err != nil || res == nil {
		t.Fatalf("Run = %v, %v", res, err)
	}
	if source != "disk" {
		t.Fatalf("source = %q, want disk", source)
	}
	if n := r.Metrics.Counter("core.characterize.runs").Value(); n != 0 {
		t.Fatalf("characterize ran %d times for a point already on disk", n)
	}
	if _, own := r.Shared.claim(r.diskKey(p.ID())); !own {
		t.Fatal("the runner left its claim in the shared table")
	}
}

// TestSharedClaimsPerMember: the members of a group claim their shared
// flights one by one. While another runner holds member 2 of a 3-heap
// group, this runner computes members 1 and 3 in one lockstep run and then
// serves member 2 from the holder's outcome as "shared", so the two runners
// characterize 3 heaps between them. A member whose holder's job was
// cancelled is taken back and computed here, as a single point would be.
func TestSharedClaimsPerMember(t *testing.T) {
	group := javacSweep(t, 32, 64, 128)
	var pairs atomic.Int64 // lockstep runs of two heaps
	orig := characterizeSweep
	characterizeSweep = func(cfg core.RunConfig, heaps []units.ByteSize) ([]core.Result, []error) {
		if len(heaps) == 2 {
			pairs.Add(1)
		}
		return orig(cfg, heaps)
	}
	t.Cleanup(func() { characterizeSweep = orig })
	for _, cancelled := range []bool{false, true} {
		pairs.Store(0)
		reg := metrics.NewRegistry()
		var bufA, bufB strings.Builder
		a := quickRunner(&bufA) // the holder, computing outside the table
		a.Metrics = reg
		b := quickRunner(&bufB)
		b.Metrics = reg
		b.Shared = NewSharedFlights()
		key := b.diskKey(group[1].ID())
		held, own := b.Shared.claim(key)
		if !own {
			t.Fatal("a fresh table did not give the first claim")
		}
		events := make(chan PointEvent, len(group))
		b.OnPoint = func(_ Point, ev PointEvent) { events <- ev }
		done := make(chan error, 1)
		go func() { done <- b.RunAll(group) }()
		for range 2 {
			if ev := <-events; ev.HeapMB == 64 || ev.Source != "computed" || ev.Outcome != "ok" {
				t.Fatalf("cancelled=%v: record %+v before the held member was published", cancelled, ev)
			}
		}
		var want *core.Result
		if cancelled {
			b.Shared.publish(key, held, nil, fmt.Errorf("experiments: %s: %w", group[1], context.Canceled))
		} else {
			res, err := a.Run(group[1])
			if err != nil {
				t.Fatal(err)
			}
			want = res
			b.Shared.publish(key, held, res, nil)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		wantSource := "shared"
		if cancelled {
			wantSource = "computed"
		}
		if ev := <-events; ev.HeapMB != 64 || ev.Source != wantSource || ev.Outcome != "ok" {
			t.Fatalf("cancelled=%v: held member recorded %+v, want source %q", cancelled, ev, wantSource)
		}
		if runs := reg.Counter("core.characterize.runs").Value(); runs != 3 || pairs.Load() != 1 {
			t.Fatalf("cancelled=%v: %d characterize runs, %d of them two-heap lockstep runs, for a 3-heap group; want 3 and 1",
				cancelled, runs, pairs.Load())
		}
		got, err := b.Run(group[1])
		if err != nil {
			t.Fatal(err)
		}
		if want != nil {
			samePoint(t, group[1].String(), got, want)
		}
		if _, own := b.Shared.claim(key); !own {
			t.Fatalf("cancelled=%v: the table kept a published flight", cancelled)
		}
	}
}
