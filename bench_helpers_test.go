package jvmpower_test

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"jvmpower/internal/daq"
)

// -iters appends one JSONL record per benchmark iteration — the
// in-process wall-clock series benchgate segments into warmup and steady
// state. Invoke it through go test's pass-through:
//
//	go test -run '^$' -bench 'BenchmarkFig7EDP$' -benchtime=12x -count=1 . -args -iters iters.jsonl
//
// The per-iteration cost when the flag is set is one buffered write
// (~µs) against iterations of ~seconds; when unset the logger is a nil
// func comparison away from free.
var itersPath = flag.String("iters", "", "append per-iteration timings as JSONL ({benchmark,iter,ns}) to this file")

var (
	itersMu   sync.Mutex
	itersFile *os.File
	itersSeq  = map[string]int{}
)

// logIter records one iteration of the named benchmark. Iteration indices
// are assigned per benchmark in emission order, so the JSONL stream
// preserves the in-process ordering that makes warmup segmentation
// meaningful even across -count repetitions.
func logIter(b *testing.B, d time.Duration) {
	if *itersPath == "" {
		return
	}
	itersMu.Lock()
	defer itersMu.Unlock()
	if itersFile == nil {
		f, err := os.OpenFile(*itersPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			b.Fatalf("opening -iters file: %v", err)
		}
		itersFile = f
	}
	name := b.Name()
	n := itersSeq[name]
	itersSeq[name] = n + 1
	if _, err := fmt.Fprintf(itersFile, "{\"benchmark\":%q,\"iter\":%d,\"ns\":%d}\n", name, n, d.Nanoseconds()); err != nil {
		b.Fatalf("writing -iters record: %v", err)
	}
}

// discardSink drops DAQ samples (benchmarks measure simulation cost, not
// analysis cost).
type discardSink struct{}

func (discardSink) Sample(daq.Sample) {}
