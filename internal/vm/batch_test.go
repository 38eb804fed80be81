package vm

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"jvmpower/internal/classfile"
	"jvmpower/internal/component"
	"jvmpower/internal/heap"
	"jvmpower/internal/heap/heaptest"
	"jvmpower/internal/isa"
	"jvmpower/internal/units"
)

// smallProfile is a fast profile exercising every engine path.
func smallProfile() BehaviorProfile {
	return BehaviorProfile{
		Name:              "test",
		TotalBytecodes:    2_000_000,
		AllocBytes:        24 * units.MB,
		AvgObjectBytes:    64,
		RefsPerObject:     1.5,
		LongLivedFrac:     0.05,
		LiveTarget:        1 * units.MB,
		PtrStoresPerKBC:   4,
		AccessesPerInstr:  0.38,
		Locality:          0.9,
		HotWorkingSet:     512 * units.KB,
		HotMethodFrac:     0.1,
		HotBytecodeShare:  0.85,
		StartupMethodFrac: 0.3,
		PowerPhaseAmp:     0.06,
		PowerPhasePeriod:  10,
	}
}

// smallProgram builds a compact program with system and app classes.
func smallProgram() *classfile.Program {
	b := classfile.NewBuilder("small")
	b.AddClass(classfile.ClassSpec{Name: "Object", System: true, FileBytes: 800})
	for i := 0; i < 12; i++ {
		name := "Sys" + string(rune('A'+i))
		c := b.AddClass(classfile.ClassSpec{Name: name, Super: "Object", System: true, FileBytes: 2000})
		b.AddMethod(classfile.MethodSpec{Class: c, Name: "m",
			Code: classfile.Asm(classfile.I(isa.NOP), classfile.I(isa.RETURN))})
	}
	for i := 0; i < 12; i++ {
		name := "App" + string(rune('A'+i))
		c := b.AddClass(classfile.ClassSpec{Name: name, Super: "Object", FileBytes: 3000})
		for j := 0; j < 3; j++ {
			b.AddMethod(classfile.MethodSpec{Class: c, Name: "m" + string(rune('0'+j)),
				Code: classfile.Asm(classfile.I(isa.NOP), classfile.I(isa.NOP), classfile.I(isa.RETURN))})
		}
	}
	mainC := b.AddClass(classfile.ClassSpec{Name: "Main", Super: "Object", FileBytes: 1000})
	m := b.AddMethod(classfile.MethodSpec{Class: mainC, Name: "main", Code: classfile.Asm(classfile.I(isa.HALT))})
	b.SetEntry(m)
	return b.MustBuild()
}

func TestRunProfileAllCollectors(t *testing.T) {
	for _, col := range []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS"} {
		t.Run(col, func(t *testing.T) {
			v, exec := newTestVM(t, smallProgram(), Jikes, col, 8*units.MB)
			if err := v.RunProfile(smallProfile()); err != nil {
				t.Fatal(err)
			}
			if exec.instr[component.App] == 0 {
				t.Fatal("no application execution")
			}
			if v.GCEmitted() == 0 {
				t.Fatal("no collections from 24MB churn in an 8MB heap")
			}
			if exec.slices[component.BaseCompiler] == 0 {
				t.Fatal("no baseline compiles")
			}
			if exec.slices[component.ClassLoader] == 0 {
				t.Fatal("no class loads")
			}
			if exec.slices[component.Scheduler] == 0 {
				t.Fatal("no controller ticks")
			}
		})
	}
}

func TestRunProfileKaffe(t *testing.T) {
	v, exec := newTestVM(t, smallProgram(), Kaffe, "", 8*units.MB)
	if err := v.RunProfile(smallProfile()); err != nil {
		t.Fatal(err)
	}
	if exec.slices[component.JITCompiler] == 0 {
		t.Fatal("Kaffe run did not JIT")
	}
	if exec.slices[component.BaseCompiler] != 0 || exec.slices[component.OptCompiler] != 0 {
		t.Fatal("Kaffe run used Jikes compilers")
	}
	if exec.slices[component.Scheduler] != 0 {
		t.Fatal("Kaffe has no Jikes controller thread")
	}
	// Kaffe loads system classes; Jikes does not.
	jv, jexec := newTestVM(t, smallProgram(), Jikes, "GenCopy", 8*units.MB)
	if err := jv.RunProfile(smallProfile()); err != nil {
		t.Fatal(err)
	}
	kaffeLoads := v.Loader().Stats().ClassesLoaded
	jikesLoads := jv.Loader().Stats().ClassesLoaded
	if kaffeLoads <= jikesLoads {
		t.Fatalf("Kaffe loaded %d classes, Jikes %d; Kaffe must load more (unmerged system classes)",
			kaffeLoads, jikesLoads)
	}
	_ = jexec
}

func TestAOSPromotesHotMethods(t *testing.T) {
	v, exec := newTestVM(t, smallProgram(), Jikes, "GenCopy", 8*units.MB)
	if err := v.RunProfile(smallProfile()); err != nil {
		t.Fatal(err)
	}
	_, opt := v.AOS().Compiles()
	if opt == 0 {
		t.Fatal("no optimizing recompilations despite hot methods")
	}
	if exec.slices[component.OptCompiler] == 0 {
		t.Fatal("no opt-compiler slices emitted")
	}
	if v.AOS().PendingCompiles() != 0 {
		t.Fatal("compile queue not drained at exit")
	}
}

func TestGenerationalBarrierTraffic(t *testing.T) {
	v, _ := newTestVM(t, smallProgram(), Jikes, "GenCopy", 8*units.MB)
	if err := v.RunProfile(smallProfile()); err != nil {
		t.Fatal(err)
	}
	st := v.Collector().Stats()
	if st.BarrierStores == 0 {
		t.Fatal("no barrier activity")
	}
	if st.RemsetRecorded == 0 {
		t.Fatal("no remembered-set entries despite pointer mutations")
	}
	if st.NurseryCollections == 0 {
		t.Fatal("no nursery collections")
	}
}

func TestLiveSetBounded(t *testing.T) {
	v, _ := newTestVM(t, smallProgram(), Jikes, "SemiSpace", 8*units.MB)
	p := smallProfile()
	if err := v.RunProfile(p); err != nil {
		t.Fatal(err)
	}
	v.Collector().Collect("final")
	if live := v.Heap().LiveBytes(); live > p.LiveTarget+p.LiveTarget/2 {
		t.Fatalf("live set %v exceeds target %v by >50%%", live, p.LiveTarget)
	}
}

// TestCollectorWorkPinned pins each Jikes plan's collector work over one
// batch run (smallProfile in an 8 MB heap): collections by kind, objects
// scanned, copied and freed, and bytes copied and freed. A run is
// deterministic, so the counts are exact. A change to what the VM
// allocates, roots or links, or to what a collector traces, copies or
// frees, moves them. A Ref held across a SemiSpace allocation usually
// does not; TestCohortLinkAfterCollectingAlloc checks that case.
func TestCollectorWorkPinned(t *testing.T) {
	type work struct {
		Collections, Nursery, Full, Increments int64
		Scanned, Copied, Freed                 int64
		BytesCopied, BytesFreed                units.ByteSize
	}
	for _, c := range []struct {
		col  string
		want work
	}{
		{"SemiSpace", work{7, 0, 7, 0, 63939, 63939, 374630, 4048296, 23779178}},
		{"MarkSweep", work{4, 0, 4, 0, 33733, 0, 319909, 0, 20308454}},
		{"GenCopy", work{13, 13, 0, 0, 19206, 19206, 374690, 1217396, 23782794}},
		{"GenMS", work{12, 12, 0, 0, 18240, 18240, 357556, 1155404, 22696231}},
	} {
		t.Run(c.col, func(t *testing.T) {
			v, _ := newTestVM(t, smallProgram(), Jikes, c.col, 8*units.MB)
			if err := v.RunProfile(smallProfile()); err != nil {
				t.Fatal(err)
			}
			st := v.Collector().Stats()
			got := work{st.Collections, st.NurseryCollections, st.FullCollections, st.Increments,
				st.ObjectsScanned, st.ObjectsCopied, st.ObjectsFreed, st.BytesCopied, st.BytesFreed}
			if got != c.want {
				t.Errorf("collector work\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// TestCohortLinkAfterCollectingAlloc allocates application objects under
// SemiSpace until 16 allocations have collected, and checks the cohort
// link each of them made: it must name the object the ring's previous
// newest slot holds after the collection. SemiSpace renumbers survivors,
// so a previous-object Ref read before Alloc names whatever object took
// its old number. Collector counts rarely show such a link, because the
// new object usually dies before the next collection.
func TestCohortLinkAfterCollectingAlloc(t *testing.T) {
	v, _ := newTestVM(t, smallProgram(), Jikes, "SemiSpace", 2*units.MB)
	linked := 0
	for collecting := 0; collecting < 16; {
		before := v.Collector().Stats().Collections
		r, err := v.allocAppObject(64, 2, 0, 0) // no long-lived chains
		if err != nil {
			t.Fatal(err)
		}
		if v.Collector().Stats().Collections == before {
			continue
		}
		collecting++
		link := v.heap.Get(r).RefsIn(v.heap)[0]
		if link == heap.Null {
			continue
		}
		linked++
		if want := v.stackRing[(v.ringPos+ringSlots-1)%ringSlots]; link != want {
			t.Fatalf("collecting allocation linked Ref %d, want the previous object's Ref %d", link, want)
		}
	}
	if linked == 0 {
		t.Fatal("no collecting allocation made a cohort link")
	}
}

// TestCollectionPreservesRootedGraph forces a full collection after a
// batch run and compares the graph the VM's roots (chain anchors, tables,
// stack ring) reach before and after it, read back through the root
// slots. SemiSpace renumbers every survivor, so a root slot the VM does not
// pass by address, or the collector does not rewrite, shows as a changed
// graph; and its table must then hold exactly that graph.
func TestCollectionPreservesRootedGraph(t *testing.T) {
	for _, col := range []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS"} {
		t.Run(col, func(t *testing.T) {
			v, _ := newTestVM(t, smallProgram(), Jikes, col, 8*units.MB)
			if err := v.RunProfile(smallProfile()); err != nil {
				t.Fatal(err)
			}
			before := rootShape(t, v)
			if len(before.Sizes) == 0 {
				t.Fatal("the roots reach no objects")
			}
			v.Collector().Collect("test")
			after := rootShape(t, v)
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("rooted graph changed across the collection: %d objects before, %d after",
					len(before.Sizes), len(after.Sizes))
			}
			if col == "SemiSpace" && v.Heap().LiveCount() != int64(len(after.Sizes)) {
				t.Fatalf("%d live objects, want the %d reachable ones", v.Heap().LiveCount(), len(after.Sizes))
			}
		})
	}
}

// rootShape is the shape of the graph the VM's root slots reach.
func rootShape(t *testing.T, v *VM) heaptest.Shape {
	t.Helper()
	var roots []heap.Ref
	(*vmRoots)(v).Roots(func(slot *heap.Ref) { roots = append(roots, *slot) })
	s, err := heaptest.ShapeOf(v.Heap(), roots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunProfileDeterministic(t *testing.T) {
	run := func() [component.N]int64 {
		v, exec := newTestVM(t, smallProgram(), Jikes, "GenMS", 8*units.MB)
		if err := v.RunProfile(smallProfile()); err != nil {
			t.Fatal(err)
		}
		return exec.instr
	}
	if run() != run() {
		t.Fatal("batch engine not deterministic")
	}
}

func TestRunProfileValidation(t *testing.T) {
	v, _ := newTestVM(t, smallProgram(), Jikes, "GenCopy", 8*units.MB)
	bad := smallProfile()
	bad.TotalBytecodes = 0
	if err := v.RunProfile(bad); err == nil {
		t.Fatal("invalid profile accepted")
	}
	bad = smallProfile()
	bad.Locality = 2
	if err := v.RunProfile(bad); err == nil {
		t.Fatal("locality > 1 accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	exec := &countingExec{}
	prog := smallProgram()
	if _, err := New(Config{Flavor: Kaffe, Collector: "SemiSpace", HeapSize: 8 * units.MB}, prog, exec); err == nil {
		t.Fatal("Kaffe with a Jikes collector accepted")
	}
	if _, err := New(Config{Flavor: Jikes, Collector: "KaffeMS", HeapSize: 8 * units.MB}, prog, exec); err == nil {
		t.Fatal("Jikes with the Kaffe collector accepted")
	}
	if _, err := New(Config{Flavor: Jikes, HeapSize: 8 * units.MB}, nil, exec); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := New(Config{Flavor: Jikes, HeapSize: 8 * units.MB}, prog, nil); err == nil {
		t.Fatal("nil executor accepted")
	}
	if _, err := New(Config{Flavor: Flavor(9), HeapSize: 8 * units.MB}, prog, exec); err == nil {
		t.Fatal("unknown flavor accepted")
	}
}

// pastDeadline is a context whose deadline has passed but whose Done
// channel never closes: a runtime busy simulating has not yet fired the
// deadline's timer.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestRunProfileStopsPastDeadline checks the segment poll reads the
// deadline off the clock: past it, RunProfile stops at the first segment
// boundary, before any application slice, without waiting for Done.
func TestRunProfileStopsPastDeadline(t *testing.T) {
	v, exec := newTestVM(t, smallProgram(), Jikes, "SemiSpace", 8*units.MB)
	v.SetCancel(pastDeadline{context.Background()})
	if err := v.RunProfile(smallProfile()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("RunProfile past its deadline returned %v, want ErrCancelled", err)
	}
	if n := exec.slices[component.App]; n != 0 {
		t.Fatalf("%d application slices ran past the deadline", n)
	}
}

func TestOOMSurfacesBenchmarkContext(t *testing.T) {
	v, _ := newTestVM(t, smallProgram(), Jikes, "SemiSpace", 1*units.MB)
	p := smallProfile()
	p.LiveTarget = 4 * units.MB // live cannot fit half of a 1MB heap
	err := v.RunProfile(p)
	if err == nil {
		t.Fatal("expected OOM")
	}
	if !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("error lacks cause: %v", err)
	}
}

func TestFlavorString(t *testing.T) {
	if Jikes.String() != "JikesRVM" || Kaffe.String() != "Kaffe" {
		t.Fatal("flavor names wrong")
	}
}
