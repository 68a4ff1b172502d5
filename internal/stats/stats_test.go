package stats

import (
	"maps"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.CI95() <= 0 {
		t.Fatal("CI95 not positive")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.StdDev != 0 || s.CI95() != 0 {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if q := Quantile(xs, 0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 40 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); math.Abs(q-25) > 1e-12 {
		t.Fatalf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	// Input must not be mutated.
	orig := []float64{3, 1, 2}
	Quantile(orig, 0.5)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestWilson(t *testing.T) {
	lo, hi := Wilson(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v,%v] excludes 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("interval too wide: %v", hi-lo)
	}
	lo, hi = Wilson(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty trials interval = [%v,%v]", lo, hi)
	}
	lo, hi = Wilson(0, 20)
	if lo != 0 || hi < 0.05 {
		t.Fatalf("zero successes interval = [%v,%v]", lo, hi)
	}
	lo, hi = Wilson(20, 20)
	if hi != 1 || lo > 0.95 {
		t.Fatalf("all successes interval = [%v,%v]", lo, hi)
	}
}

// TestWilsonReferenceValues pins the Wilson 95% interval against
// externally computed reference values (z = 1.96; cf. R binom::
// binom.wilson and the worked examples in Brown–Cai–DasGupta 2001).
// These are the small-count regimes the probe threshold experiments
// (E3/E4/E6) live in, where the normal approximation collapses to empty
// or out-of-range intervals near rates 0 and 1.
func TestWilsonReferenceValues(t *testing.T) {
	cases := []struct {
		successes, trials int
		lo, hi            float64
	}{
		{0, 10, 0.0000, 0.2775},
		{1, 10, 0.0179, 0.4042},
		{5, 10, 0.2366, 0.7634},
		{8, 10, 0.4902, 0.9433},
		{10, 10, 0.7225, 1.0000},
		{20, 40, 0.3520, 0.6480},
		{1, 20, 0.0089, 0.2359},
	}
	const tol = 5e-4
	for _, c := range cases {
		lo, hi := Wilson(c.successes, c.trials)
		if math.Abs(lo-c.lo) > tol || math.Abs(hi-c.hi) > tol {
			t.Errorf("Wilson(%d,%d) = [%.4f, %.4f], want [%.4f, %.4f]",
				c.successes, c.trials, lo, hi, c.lo, c.hi)
		}
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("Wilson(%d,%d) = [%v, %v] malformed", c.successes, c.trials, lo, hi)
		}
	}
}

func TestTrialAggregator(t *testing.T) {
	a := NewTrialAggregator(4)
	a.Add(100, 10, true, maps.All(map[string]int64{"edges": 40, "candidates": 60}))
	a.Add(200, 20, false, maps.All(map[string]int64{"edges": 80, "candidates": 120}))
	a.Add(300, 1, true, nil)
	a.Add(400, 5, true, maps.All(map[string]int64{"edges": 120}))
	if a.Found != 3 {
		t.Fatalf("Found = %d, want 3", a.Found)
	}
	if got := a.MeanRounds; math.Abs(got-9) > 1e-12 {
		t.Fatalf("mean rounds = %v, want 9", got)
	}
	if got := a.Summary().Mean; got != 250 {
		t.Fatalf("mean = %v, want 250", got)
	}
	if got := a.PhaseMeans["edges"]; math.Abs(got-60) > 1e-12 {
		t.Fatalf("edges mean = %v, want 60", got)
	}
	if got := a.PhaseMeans["candidates"]; math.Abs(got-45) > 1e-12 {
		t.Fatalf("candidates mean = %v, want 45", got)
	}
}

// TestTrialAggregatorMatchesSequentialFold checks that the aggregator's
// phase means reproduce bit-for-bit the harness's historical running-sum
// fold (v/trials added in trial order) — the determinism contract the
// parallel runner relies on.
func TestTrialAggregatorMatchesSequentialFold(t *testing.T) {
	const trials = 7
	vals := []int64{313, 11, 271828, 9, 65537, 42, 1}
	want := 0.0
	for _, v := range vals {
		want += float64(v) / float64(trials)
	}
	a := NewTrialAggregator(trials)
	for _, v := range vals {
		a.Add(v, 0, false, maps.All(map[string]int64{"p": v}))
	}
	if got := a.PhaseMeans["p"]; got != want {
		t.Fatalf("fold mismatch: %v != %v", got, want)
	}
}

func TestRateAggregator(t *testing.T) {
	a := NewRateAggregator(4)
	a.Add(true, 10)
	a.Add(false, 20)
	a.Add(true, 30)
	a.Add(false, 40)
	if a.Successes != 2 {
		t.Fatalf("successes = %d", a.Successes)
	}
	if math.Abs(a.MeanBits-25) > 1e-12 {
		t.Fatalf("mean bits = %v", a.MeanBits)
	}
	lo, hi := a.Wilson()
	wlo, whi := Wilson(2, 4)
	if lo != wlo || hi != whi {
		t.Fatalf("Wilson mismatch: [%v,%v] vs [%v,%v]", lo, hi, wlo, whi)
	}
}

func TestFitPowerExact(t *testing.T) {
	// y = 2·x^1.5 exactly.
	var xs, ys []float64
	for _, x := range []float64{1, 2, 4, 8, 16, 100} {
		xs = append(xs, x)
		ys = append(ys, 2*math.Pow(x, 1.5))
	}
	f, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Exponent-1.5) > 1e-9 {
		t.Fatalf("exponent = %v", f.Exponent)
	}
	if math.Abs(f.A()-2) > 1e-9 {
		t.Fatalf("A = %v", f.A())
	}
	if f.R2 < 0.999999 {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestFitPowerNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for x := 10.0; x <= 1e5; x *= 2 {
		noise := 1 + 0.1*(rng.Float64()-0.5)
		xs = append(xs, x)
		ys = append(ys, 5*math.Pow(x, 0.25)*noise)
	}
	f, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Exponent-0.25) > 0.03 {
		t.Fatalf("exponent = %v, want ~0.25", f.Exponent)
	}
	if f.R2 < 0.98 {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestFitPowerErrors(t *testing.T) {
	if _, err := FitPower([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitPower([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitPower([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
	// Non-positive points are skipped; if too few remain, error.
	if _, err := FitPower([]float64{-1, 0, 5}, []float64{1, 1, 1}); err == nil {
		t.Fatal("insufficient positive points accepted")
	}
	// But skipping still fits when enough remain.
	f, err := FitPower([]float64{-1, 1, 2, 4}, []float64{9, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Exponent-1) > 1e-9 {
		t.Fatalf("exponent = %v", f.Exponent)
	}
}

func TestQuickSummaryBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				xs = append(xs, v)
			}
		}
		s := Summarize(xs)
		if s.N != len(xs) {
			return false
		}
		if s.N > 0 && (s.Mean < s.Min || s.Mean > s.Max) {
			return false
		}
		return s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonMonotoneInTrials(t *testing.T) {
	// More trials at the same rate narrow the interval.
	lo1, hi1 := Wilson(10, 20)
	lo2, hi2 := Wilson(100, 200)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatalf("interval did not narrow: %v vs %v", hi2-lo2, hi1-lo1)
	}
}
