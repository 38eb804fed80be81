package component

import "testing"

func TestNames(t *testing.T) {
	cases := map[ID]string{
		Idle: "idle", App: "App", GC: "GC", ClassLoader: "CL",
		BaseCompiler: "Base", OptCompiler: "Opt", JITCompiler: "JIT",
		Scheduler: "Sched",
	}
	for id, want := range cases {
		if got := id.String(); got != want {
			t.Errorf("%d: got %q want %q", id, got, want)
		}
	}
	if ID(200).String() != "?" {
		t.Error("unknown id should print ?")
	}
}

func TestComponentSets(t *testing.T) {
	if len(JikesComponents()) != 5 {
		t.Error("Jikes decomposition has five stacked components (Fig. 6)")
	}
	if len(KaffeComponents()) != 4 {
		t.Error("Kaffe decomposition has four stacked components (Fig. 9)")
	}
	for _, id := range VMComponents() {
		if id == App || id == Idle {
			t.Error("VM components must exclude App and Idle")
		}
	}
}
