package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jvmpower/internal/jobqueue"
	"jvmpower/internal/metrics"
)

// startDaemonServer mounts a daemon on an httptest server the way
// cmd/experiments does: job API plus request-ID middleware on one mux.
func startDaemonServer(t *testing.T, cfg DaemonConfig) (*Daemon, *httptest.Server) {
	t.Helper()
	d := NewDaemon(cfg)
	d.Start()
	mux := http.NewServeMux()
	d.RegisterHTTP(mux)
	srv := httptest.NewServer(WithRequestID(mux))
	t.Cleanup(func() {
		srv.Close()
		d.Abort()
	})
	return d, srv
}

func postJob(t *testing.T, srv *httptest.Server, spec CampaignSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s body: %v", resp.Request.URL, err)
	}
	return v
}

// TestDaemonHTTPLifecycle drives one campaign end to end over HTTP:
// submit, poll, stream progress as JSONL, fetch the byte-identical
// result, and observe /healthz flip to draining.
func TestDaemonHTTPLifecycle(t *testing.T) {
	dir := t.TempDir()
	d, srv := startDaemonServer(t, DaemonConfig{
		Metrics: metrics.NewRegistry(), CacheDir: filepath.Join(dir, "points"),
		MaxInflight: 1,
	})

	// Bad spec: unknown figure, structured 400 with a request ID.
	resp := postJob(t, srv, CampaignSpec{Figures: []string{"zorch"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad figure: status %d, want 400", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("error response missing X-Request-Id")
	}
	herr := decodeBody[httpError](t, resp)
	if herr.Reason != "bad_request" || herr.RequestID == "" {
		t.Fatalf("error body = %+v", herr)
	}
	// A field the spec does not declare, such as the retired "reps", is
	// refused rather than silently ignored.
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"figures":["fig6"],"quick":true,"reps":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if herr := decodeBody[httpError](t, resp); herr.Reason != "bad_request" || herr.RequestID == "" ||
		!strings.Contains(herr.Error, `unknown field "reps"`) {
		t.Fatalf("unknown field: error body = %+v", herr)
	}

	resp = postJob(t, srv, quickSpec(7, "alice"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	st := decodeBody[JobStatus](t, resp)
	if st.ID == "" || st.Client != "alice" {
		t.Fatalf("accepted status = %+v", st)
	}

	// Stream progress: one JSONL JobEvent per line, ending at terminal.
	sresp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var last JobEvent
	points := 0
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if last.State == "point" {
			points++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.State != "completed" || points == 0 {
		t.Fatalf("stream ended at %q with %d points", last.State, points)
	}

	resp, err = http.Get(srv.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBody[JobStatus](t, resp); got.State != "completed" {
		t.Fatalf("status after stream = %+v", got)
	}

	rresp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	out, err := io.ReadAll(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fig6Reference(t, 7); string(out) != want {
		t.Fatalf("HTTP result differs from one-shot reference (%d vs %d bytes)", len(out), len(want))
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeBody[Health](t, hresp); h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
	d.Drain()
	hresp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeBody[Health](t, hresp); h.Status != "draining" {
		t.Fatalf("healthz after drain = %+v", h)
	}
	resp = postJob(t, srv, quickSpec(7, "late"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if herr := decodeBody[httpError](t, resp); herr.Reason != jobqueue.ReasonDraining {
		t.Fatalf("draining shed body = %+v", herr)
	}
}

// TestDaemonHTTPShedding exercises the typed quota and queue_full
// rejections over HTTP: 429 with a retry hint for an over-quota client,
// 503 for a full queue, each with a machine-readable reason.
func TestDaemonHTTPShedding(t *testing.T) {
	dir := t.TempDir()
	d, srv := startDaemonServer(t, DaemonConfig{
		Metrics: metrics.NewRegistry(), CacheDir: filepath.Join(dir, "points"),
		MaxInflight: 1, MaxQueue: 1,
		// One token per client, refilled over ~17 minutes: the second
		// same-client submission inside the test is deterministically
		// over quota.
		QuotaRate: 0.001, QuotaBurst: 1,
	})

	resp := postJob(t, srv, quickSpec(7, "alice"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}
	first := decodeBody[JobStatus](t, resp)
	waitJobEvent(t, d, first.ID, "started")

	// Same client again: the queue has room (job is running, not
	// pending), so the quota is what rejects.
	resp = postJob(t, srv, quickSpec(7, "alice"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	herr := decodeBody[httpError](t, resp)
	if herr.Reason != jobqueue.ReasonQuota || herr.RetryMS <= 0 {
		t.Fatalf("quota shed body = %+v", herr)
	}

	// A different client fills the one queue slot...
	resp = postJob(t, srv, quickSpec(7, "bob"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second client submit: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	// ...and a third hits the depth cap: queue_full precedes the quota
	// check, so carol's token is not burned by a doomed submission.
	resp = postJob(t, srv, quickSpec(7, "carol"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, want 503", resp.StatusCode)
	}
	if herr := decodeBody[httpError](t, resp); herr.Reason != jobqueue.ReasonQueueFull {
		t.Fatalf("queue-full shed body = %+v", herr)
	}

	// Cancellation over HTTP: DELETE the running job; its terminal state
	// is cancelled, and the result endpoint reports the conflict.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+first.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if st := waitJobTerminal(t, d, first.ID); st.State != "cancelled" {
		t.Fatalf("cancelled job ended %s (%s)", st.State, st.Reason)
	}
	rresp, err := http.Get(srv.URL + "/jobs/" + first.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", rresp.StatusCode)
	}
	if herr := decodeBody[httpError](t, rresp); herr.Reason != "not_completed" {
		t.Fatalf("conflict body = %+v", herr)
	}
}

// TestDaemonHTTPDeadline: a job whose deadline lapses while queued is
// expired, not run, and reports so over HTTP.
func TestDaemonHTTPDeadline(t *testing.T) {
	dir := t.TempDir()
	d, srv := startDaemonServer(t, DaemonConfig{
		Metrics: metrics.NewRegistry(), CacheDir: filepath.Join(dir, "points"),
		MaxInflight: 1, MaxQueue: 2,
	})
	resp := postJob(t, srv, quickSpec(7, "alice"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	blocker := decodeBody[JobStatus](t, resp)
	waitJobEvent(t, d, blocker.ID, "started")

	spec := quickSpec(7, "bob")
	spec.DeadlineMS = 1 // lapses behind the running job
	resp = postJob(t, srv, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline submit: status %d", resp.StatusCode)
	}
	doomed := decodeBody[JobStatus](t, resp)
	time.Sleep(5 * time.Millisecond)
	if st := waitJobTerminal(t, d, doomed.ID); st.State != "expired" {
		t.Fatalf("deadlined job ended %s (%s), want expired", st.State, st.Reason)
	}
	if st := waitJobTerminal(t, d, blocker.ID); st.State != "completed" {
		t.Fatalf("blocker ended %s (%s)", st.State, st.Reason)
	}
}
