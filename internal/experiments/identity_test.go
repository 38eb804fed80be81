package experiments

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"jvmpower/internal/faultinject"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

func benchByName(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJournalBytesGolden pins the journal's bytes: the PointEvents
// observePoint records for points with and without a collector, S10,
// FanOff and an error, and the daemon's job records for an admission with
// every spec field set, a point and a terminal transition. The journal is
// a campaign's regression record, so a change to how a point's identity or
// a campaign is declared must not move a byte of it.
func TestJournalBytesGolden(t *testing.T) {
	db, javac := benchByName(t, "_209_db"), benchByName(t, "_213_javac")
	var buf bytes.Buffer
	r := NewRunner(io.Discard)
	r.Journal = metrics.NewJournal(&buf)
	for _, c := range []struct {
		p        Point
		source   string
		d        time.Duration
		attempts int
		err      error
	}{
		{Point{Bench: db, Flavor: vm.Jikes, Collector: "GenMS", HeapMB: 64, Platform: platform.P6()},
			"computed", 1500 * time.Microsecond, 1, nil},
		{Point{Bench: javac, Flavor: vm.Kaffe, HeapMB: 16, Platform: platform.DBPXA255(), S10: true},
			"disk", 250 * time.Microsecond, 0, nil},
		{Point{Bench: javac, Flavor: vm.Jikes, Collector: "SemiSpace", HeapMB: 32, Platform: platform.P6(), FanOff: true},
			"isolated", 2 * time.Millisecond, 3, errors.New("experiments: injected failure")},
	} {
		r.observePoint(c.p, c.source, c.d, c.attempts, c.err)
	}
	spec := CampaignSpec{Figures: []string{"fig6", "mem"}, Seed: 7, Quick: true,
		Faults: "drop=0.05,seed=3", Priority: 2, DeadlineMS: 60000, Client: "alice"}
	pe := PointEvent{PointID: PointID{Bench: "_209_db", Flavor: "JikesRVM", Collector: "GenMS", HeapMB: 64, Platform: "P6"},
		Outcome: "ok", Source: "computed", DurationMS: 1.5, Attempts: 1}
	for _, ev := range []JobEvent{
		admissionEvent("job-000001", "accepted", spec),
		{Event: "job", Job: "job-000001", State: "point", Point: &pe},
		{Event: "job", Job: "job-000001", State: "completed", Client: "alice"},
	} {
		if err := r.Journal.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	wantJournal := `{"bench":"_209_db","flavor":"JikesRVM","collector":"GenMS","heap_mb":64,"platform":"P6","outcome":"ok","source":"computed","duration_ms":1.5,"attempts":1,"crc":"c1:b851fbbf"}
{"bench":"_213_javac","flavor":"Kaffe","heap_mb":16,"platform":"DBPXA255","s10":true,"outcome":"ok","source":"disk","duration_ms":0.25,"crc":"c1:e8f5e8a8"}
{"bench":"_213_javac","flavor":"JikesRVM","collector":"SemiSpace","heap_mb":32,"platform":"P6","fan_off":true,"outcome":"error","source":"isolated","duration_ms":2,"error":"experiments: injected failure","attempts":3,"crc":"c1:cf215643"}
{"event":"job","job":"job-000001","state":"accepted","client":"alice","figures":["fig6","mem"],"seed":7,"quick":true,"faults":"drop=0.05,seed=3","priority":2,"deadline_ms":60000,"crc":"c1:357eb7fa"}
{"event":"job","job":"job-000001","state":"point","point":{"bench":"_209_db","flavor":"JikesRVM","collector":"GenMS","heap_mb":64,"platform":"P6","outcome":"ok","source":"computed","duration_ms":1.5,"attempts":1},"crc":"c1:05b0d3c9"}
{"event":"job","job":"job-000001","state":"completed","client":"alice","crc":"c1:cfbc8ca9"}
`
	diffLines(t, "journal", buf.String(), wantJournal)
}

// diffLines reports every line of got that differs from want.
func diffLines(t *testing.T, what, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		t.Errorf("%s has %d lines, want %d:\n%s", what, len(g), len(w), got)
		return
	}
	for i := range w {
		if g[i] != w[i] {
			t.Errorf("%s line %d:\n got %s\nwant %s", what, i+1, g[i], w[i])
		}
	}
}

// TestDiskKeyCompleteness: the disk key changes when anything that
// determines a point's bytes changes — each identity field, the seed, the
// quick flag, the fault plan — and is equal for equal inputs. A field left
// out of the key would serve one point's result for another. The base
// point's key is pinned too: a key that moves orphans every cache written
// before the change.
func TestDiskKeyCompleteness(t *testing.T) {
	javac := benchByName(t, "_213_javac")
	base := Point{Bench: javac, Flavor: vm.Jikes, Collector: "GenCopy", HeapMB: 48, Platform: platform.P6()}
	runner := func() *Runner {
		r := NewRunner(io.Discard)
		r.Quick = true
		return r
	}
	key := func(r *Runner, p Point) string { return r.diskKey(p.ID()) }
	ref := key(runner(), base)
	if want := "caa40d2db01c5d7d7eea5def.point"; ref != want {
		t.Fatalf("base point's disk key = %s, want %s", ref, want)
	}
	same := base
	same.Bench, same.Platform = benchByName(t, "_213_javac"), platform.P6()
	if got := key(runner(), same); got != ref {
		t.Fatalf("equal inputs gave disk keys %s and %s", got, ref)
	}
	plan, err := faultinject.Parse("drop=0.01,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{ref: "the base point"}
	for _, c := range []struct {
		name   string
		point  func(*Point)
		runner func(*Runner)
	}{
		{"bench", func(p *Point) { p.Bench = benchByName(t, "_209_db") }, nil},
		{"flavor", func(p *Point) { p.Flavor = vm.Kaffe }, nil},
		{"collector", func(p *Point) { p.Collector = "MarkSweep" }, nil},
		{"heap", func(p *Point) { p.HeapMB = 64 }, nil},
		{"platform", func(p *Point) { p.Platform = platform.DBPXA255() }, nil},
		{"s10", func(p *Point) { p.S10 = true }, nil},
		{"fan_off", func(p *Point) { p.FanOff = true }, nil},
		{"seed", nil, func(r *Runner) { r.Seed = 2 }},
		{"quick", nil, func(r *Runner) { r.Quick = false }},
		{"faults", nil, func(r *Runner) { r.Faults = plan }},
	} {
		p, r := base, runner()
		if c.point != nil {
			c.point(&p)
		}
		if c.runner != nil {
			c.runner(r)
		}
		k := key(r, p)
		if prev, ok := seen[k]; ok {
			t.Errorf("changing %s gave the disk key of %s (%s)", c.name, prev, k)
		}
		seen[k] = "a changed " + c.name
	}
}
