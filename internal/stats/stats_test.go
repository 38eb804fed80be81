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
// so before the explicit filter a single poisoned rep could silently shift
// the median and every MAD-based quorum decision built on it.
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
	if got, want := MAD(poisoned), MAD(clean); got != want {
		t.Fatalf("MAD with NaN = %v, want %v", got, want)
	}
	// NaN-leading input exercises the unspecified sort placement directly.
	if got := Median([]float64{nan, nan, 7}); got != 7 {
		t.Fatalf("Median of {NaN,NaN,7} = %v, want 7", got)
	}
	if got := Median([]float64{nan, nan}); got != 0 {
		t.Fatalf("Median of all-NaN = %v, want 0", got)
	}
	if got := MAD([]float64{nan}); got != 0 {
		t.Fatalf("MAD of all-NaN = %v, want 0", got)
	}
	if got := Percentile([]float64{nan}, 50); got != 0 {
		t.Fatalf("Percentile of all-NaN = %v, want 0", got)
	}
}

func TestFilterOutliersMADRejectsNaN(t *testing.T) {
	nan := math.NaN()
	keep := FilterOutliersMAD([]float64{10, nan, 11, 12, 11, 400}, 3.5)
	for _, i := range keep {
		if i == 1 {
			t.Fatal("NaN sample survived the quorum filter")
		}
		if i == 5 {
			t.Fatal("outlier survived alongside NaN")
		}
	}
	if len(keep) != 4 {
		t.Fatalf("keep = %v, want the four clean samples", keep)
	}
	if got := FilterOutliersMAD([]float64{nan, nan}, 3.5); got != nil {
		t.Fatalf("all-NaN input kept %v, want nil", got)
	}
	// NaN in slot 0 used to make closestIndex return the NaN itself.
	keep = FilterOutliersMAD([]float64{nan, 5}, 3.5)
	if len(keep) != 1 || keep[0] != 1 {
		t.Fatalf("keep = %v, want [1]", keep)
	}
}

func TestFilterOutliersMADZeroMADExactMedian(t *testing.T) {
	// Half or more identical → MAD 0 → only exact-median matches survive.
	keep := FilterOutliersMAD([]float64{5, 5, 5, 9}, 3.5)
	if len(keep) != 3 {
		t.Fatalf("keep = %v, want the three exact-median samples", keep)
	}
	for _, i := range keep {
		if i == 3 {
			t.Fatal("non-median sample survived the zero-MAD path")
		}
	}
	// All-identical: everything survives.
	if keep := FilterOutliersMAD([]float64{2, 2, 2}, 3.5); len(keep) != 3 {
		t.Fatalf("identical samples: keep = %v, want all three", keep)
	}
}

func TestFilterOutliersMADAllRejectedFallback(t *testing.T) {
	// Interpolated median (2) matches no sample and an aggressive k shrinks
	// the cut below every deviation: rejection would discard everything, so
	// the single sample closest to the median is kept instead.
	xs := []float64{1, 1, 3, 3}
	keep := FilterOutliersMAD(xs, 0.4)
	if len(keep) != 1 {
		t.Fatalf("keep = %v, want exactly one fallback sample", keep)
	}
	if x := xs[keep[0]]; x != 1 && x != 3 {
		t.Fatalf("fallback kept %v", x)
	}
}

func TestFilterOutliersMADTies(t *testing.T) {
	// Ties at the cut boundary: |x-med| == k*MAD is kept (<=, not <).
	// {0,10,20}: med 10, MAD 10; k=1 keeps everything.
	if keep := FilterOutliersMAD([]float64{0, 10, 20}, 1); len(keep) != 3 {
		t.Fatalf("boundary ties rejected: keep = %v", keep)
	}
	// Duplicated outliers must all be rejected together.
	keep := FilterOutliersMAD([]float64{10, 11, 12, 11, 10, 500, 500}, 3.5)
	for _, i := range keep {
		if i >= 5 {
			t.Fatalf("tied outlier survived: keep = %v", keep)
		}
	}
	if len(keep) != 5 {
		t.Fatalf("keep = %v, want the five clean samples", keep)
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
