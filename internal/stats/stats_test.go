package stats

import (
	"math"
	"testing"
	"testing/quick"

	"admission/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEq(s.Mean(), 3, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if !almostEq(s.Var(), 2.5, 1e-12) {
		t.Fatalf("Var = %v", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("extrema = %v, %v", s.Min(), s.Max())
	}
	if !almostEq(s.Sum(), 15, 1e-12) {
		t.Fatalf("Sum = %v", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary must report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(7)
	if s.Var() != 0 {
		t.Fatalf("variance of single point = %v", s.Var())
	}
	if s.Min() != 7 || s.Max() != 7 {
		t.Fatal("extrema of single point wrong")
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(-1)
	if s.Min() != -5 || s.Max() != -1 {
		t.Fatalf("extrema = %v, %v", s.Min(), s.Max())
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	r := rng.New(1)
	check := func(seed uint64) bool {
		rr := rng.New(seed)
		n := rr.Intn(50) + 2
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = rr.Float64()*100 - 50
			s.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return almostEq(s.Mean(), mean, 1e-9) && almostEq(s.Var(), variance, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	_ = r
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("empty sample must error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Fatal("q < 0 must error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Fatal("q > 1 must error")
	}
}

func TestQuantileSingleton(t *testing.T) {
	got, err := Quantile([]float64{42}, 0.99)
	if err != nil || got != 42 {
		t.Fatalf("singleton quantile = %v, %v", got, err)
	}
}

func TestMedian(t *testing.T) {
	got, err := Median([]float64{1, 9, 5})
	if err != nil || got != 5 {
		t.Fatalf("Median = %v, %v", got, err)
	}
}

func TestFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, 2, 1e-12) || !almostEq(f.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
	if !almostEq(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestFitConstantY(t *testing.T) {
	f, err := Fit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, 0, 1e-12) || !almostEq(f.Intercept, 5, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
	if f.R2 != 1 {
		t.Fatalf("constant-y fit should report R2 = 1, got %v", f.R2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := Fit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point must error")
	}
	if _, err := Fit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("constant x must error")
	}
}

func TestFitNoisyRecovers(t *testing.T) {
	r := rng.New(99)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] + 10 + (r.Float64()-0.5)*0.1
	}
	f, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, 3, 0.01) || !almostEq(f.Intercept, 10, 0.5) {
		t.Fatalf("noisy fit = %+v", f)
	}
	if f.R2 < 0.999 {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 2, 1e-12) {
		t.Fatalf("GeoMean = %v", got)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Fatal("empty must error")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Fatal("zero value must error")
	}
	if _, err := GeoMean([]float64{1, -2}); err == nil {
		t.Fatal("negative value must error")
	}
}

func TestLog2(t *testing.T) {
	if Log2(8) != 3 {
		t.Fatalf("Log2(8) = %v", Log2(8))
	}
}

func TestSummaryStringNonEmpty(t *testing.T) {
	var s Summary
	s.Add(1)
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestFitStringNonEmpty(t *testing.T) {
	f, _ := Fit([]float64{1, 2}, []float64{1, 2})
	if f.String() == "" {
		t.Fatal("String empty")
	}
}
