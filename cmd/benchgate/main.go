// benchgate turns raw `go test -bench` output into statistically sound
// BENCH_*.json evidence and gates CI on significant regressions.
//
//	go test -bench ... | benchgate report -mode fleet -count 5 -out BENCH_7.json
//	benchgate report -mode gate -count 1 -iters iters.jsonl -out BENCH_GATE.json < bench.out
//	benchgate diff old.json new.json -budget 2 -alpha 0.05
//
// report parses benchmark output strictly (malformed lines and short
// repetition counts are errors, never silent zeros), optionally joins the
// per-iteration JSONL series the harness emits under -iters — segmenting
// each into warmup and steady state and bootstrapping a CI on the steady
// median — and stamps the machine/build environment into the file so a
// later reader can tell a controlled comparison from a cross-machine one.
//
// diff compares two reports benchmark-by-benchmark with a Mann–Whitney U
// test and a bootstrap CI on the effect. It exits nonzero only when a
// regression is statistically significant AND larger than the budget, and
// never gates across differing environments — those rows are labeled
// context, not claims.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = runReport(os.Args[2:])
	case "diff":
		var failed bool
		failed, err = runDiff(os.Args[2:])
		if err == nil && failed {
			os.Exit(1)
		}
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "benchgate: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  benchgate report -mode MODE [-count N] [-iters FILE] [-out FILE] [-command CMD] < bench-output
  benchgate diff OLD.json NEW.json [-budget PCT] [-alpha A] [-seed N]

report modes: figures overhead faults isolate fleet sync gate
diff exits 1 when a same-environment regression is statistically
significant and above budget, 2 on usage/parse errors, 0 otherwise.
`)
}
