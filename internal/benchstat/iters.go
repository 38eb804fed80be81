package benchstat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// IterRecord is what ParseIters reads of one line of the per-iteration
// JSONL stream the benchmark harness emits under its -iters flag: the
// wall-clock nanoseconds of one in-process iteration of one benchmark.
// The line's "iter" index is not decoded: emission order carries it, and
// the in-process ordering is what makes warmup segmentation meaningful —
// across processes every iteration starts cold.
type IterRecord struct {
	Benchmark string  `json:"benchmark"`
	Ns        float64 `json:"ns"`
}

// ParseIters reads a -iters JSONL stream into per-benchmark series in
// emission order. Malformed lines and non-finite or non-positive timings
// are errors: a corrupted timing stream must not silently become a
// shorter (or zero-padded) series.
func ParseIters(r io.Reader) (map[string][]float64, error) {
	series := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec IterRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("benchstat: iters line %d: %w", lineno, err)
		}
		if rec.Benchmark == "" {
			return nil, fmt.Errorf("benchstat: iters line %d: missing benchmark name", lineno)
		}
		if math.IsNaN(rec.Ns) || math.IsInf(rec.Ns, 0) || rec.Ns <= 0 {
			return nil, fmt.Errorf("benchstat: iters line %d: invalid ns %v", lineno, rec.Ns)
		}
		series[rec.Benchmark] = append(series[rec.Benchmark], rec.Ns)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchstat: reading iters: %w", err)
	}
	return series, nil
}
