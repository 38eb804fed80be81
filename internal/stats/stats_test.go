package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Min() != 0 || r.Max() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	for _, x := range []float64{2, 4, 6} {
		r.Add(x)
	}
	if r.Count() != 3 {
		t.Fatalf("count = %d, want 3", r.Count())
	}
	if r.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", r.Mean())
	}
	if r.Min() != 2 || r.Max() != 6 {
		t.Fatalf("min/max = %v/%v, want 2/6", r.Min(), r.Max())
	}
	wantVar := ((2.-4)*(2.-4) + 0 + (6.-4)*(6.-4)) / 2
	if math.Abs(r.SampleVariance()-wantVar) > 1e-12 {
		t.Fatalf("sample variance = %v, want %v", r.SampleVariance(), wantVar)
	}
}

func TestSampleVariance(t *testing.T) {
	var r Running
	if r.SampleVariance() != 0 || r.SampleStdDev() != 0 {
		t.Fatal("empty accumulator should report zero sample variance")
	}
	r.Add(2)
	if r.SampleVariance() != 0 {
		t.Fatal("single sample has no sample variance")
	}
	for _, x := range []float64{4, 6} {
		r.Add(x)
	}
	// {2,4,6}: sum of squared deviations 8, sample variance 8/2 = 4.
	if math.Abs(r.SampleVariance()-4) > 1e-12 {
		t.Fatalf("sample variance = %v, want 4", r.SampleVariance())
	}
	if math.Abs(r.SampleStdDev()-2) > 1e-12 {
		t.Fatalf("sample stddev = %v, want 2", r.SampleStdDev())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	if got := Percentile(xs, 50); got != 2.5 {
		t.Fatalf("p50 = %v, want 2.5", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("p50 of empty = %v, want 0", got)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}

// Property: percentile is always within [min, max] and monotone in p.
func TestPercentileProperties(t *testing.T) {
	f := func(xs []float64, p1, p2 float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 >= lo && v2 <= hi && v1 <= v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Regression: one NaN sample must not corrupt the order statistics of the
// remaining samples. sort.Float64s leaves NaNs in unspecified positions,
// so before the explicit filter a single poisoned sample could silently
// shift the median.
func TestNaNPoisoning(t *testing.T) {
	nan := math.NaN()
	clean := []float64{1, 2, 3, 4, 5}
	poisoned := []float64{1, 2, nan, 3, 4, 5}
	if got, want := Median(poisoned), Median(clean); got != want {
		t.Fatalf("Median with NaN = %v, want %v", got, want)
	}
	if got, want := Percentile(poisoned, 75), Percentile(clean, 75); got != want {
		t.Fatalf("Percentile with NaN = %v, want %v", got, want)
	}
	// NaN-leading input exercises the unspecified sort placement directly.
	if got := Median([]float64{nan, nan, 7}); got != 7 {
		t.Fatalf("Median of {NaN,NaN,7} = %v, want 7", got)
	}
	if got := Median([]float64{nan, nan}); got != 0 {
		t.Fatalf("Median of all-NaN = %v, want 0", got)
	}
	if got := Percentile([]float64{nan}, 50); got != 0 {
		t.Fatalf("Percentile of all-NaN = %v, want 0", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("mean of empty = %v", got)
	}
}
