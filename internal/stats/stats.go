// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics, success-rate confidence
// intervals, and log-log power-law fits for scaling exponents.
//
// The paper's evaluation artifacts are asymptotic bounds (Table 1); the
// reproduction measures communication over parameter sweeps and fits
// bits ≈ a·x^b to compare the measured exponent b against the predicted
// one (e.g. 1/3 for the high-degree simultaneous tester against x = nd).
package stats

import (
	"fmt"
	"iter"
	"math"
	"sort"
)

// Summary holds the moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes sample statistics (StdDev uses the n-1 estimator;
// it is 0 for n < 2).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval for the mean. It is meant for the continuous bit-count
// samples; for success *rates* with small counts (the probe threshold
// experiments) the normal approximation misbehaves near 0 and 1 — use
// Wilson there, which stays inside [0,1].
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.3g ±%.2g (n=%d, min=%.3g, max=%.3g)",
		s.Mean, s.CI95(), s.N, s.Min, s.Max)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation. It returns NaN for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Wilson returns the Wilson-score 95% confidence interval for a binomial
// proportion with successes out of trials.
func Wilson(successes, trials int) (lo, hi float64) {
	return WilsonZ(successes, trials, 1.96)
}

// WilsonZ is Wilson at the confidence of normal quantile z (3.29: 99.9%).
func WilsonZ(successes, trials int, z float64) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	p := float64(successes) / float64(trials)
	n := float64(trials)
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo, hi = center-half, center+half
	// At the boundaries center and half are equal by construction; clamp
	// exactly so 0/n reports lo = 0 (not a ±1-ulp residual) and n/n hi = 1.
	if successes == 0 || lo < 0 {
		lo = 0
	}
	if successes == trials || hi > 1 {
		hi = 1
	}
	return lo, hi
}

// TrialAggregator folds one tester's per-trial outcomes over a sweep
// point into the aggregates the experiment tables report: the per-trial
// total bits (for Summarize), the detection count, and the mean per-phase
// bit attribution. Trials must be added in trial order — the phase means
// are running sums of v/trials, so the floating-point result depends on
// fold order, and trial order is what the harness's determinism contract
// (identical tables at any worker count) pins down.
type TrialAggregator struct {
	trials int
	// Bits is the per-trial total communication, in trial order.
	Bits []float64
	// Found counts the trials that exhibited a triangle.
	Found int
	// PhaseMeans is the mean per-phase bit attribution across trials.
	PhaseMeans map[string]float64
}

// NewTrialAggregator returns an aggregator expecting the given number of
// trials (the divisor for phase means).
func NewTrialAggregator(trials int) *TrialAggregator {
	return &TrialAggregator{trials: trials, PhaseMeans: map[string]float64{}}
}

// Add folds one trial's outcome. phases may be nil; protocols hand their
// fixed-slot phase tables over as an iterator, so no per-trial map is
// materialized on the way into the aggregator.
func (a *TrialAggregator) Add(totalBits int64, found bool, phases iter.Seq2[string, int64]) {
	a.Bits = append(a.Bits, float64(totalBits))
	if found {
		a.Found++
	}
	if phases != nil {
		for name, v := range phases {
			a.PhaseMeans[name] += float64(v) / float64(a.trials)
		}
	}
}

// Summary summarizes the per-trial totals.
func (a *TrialAggregator) Summary() Summary { return Summarize(a.Bits) }

// RateAggregator folds per-trial successes and costs for the probe
// experiments: a success count (for Wilson intervals) and a running mean
// of per-trial bits, accumulated in trial order as sum of v/trials.
type RateAggregator struct {
	trials int
	// Successes counts successful trials.
	Successes int
	// MeanBits is the mean per-trial cost.
	MeanBits float64
}

// NewRateAggregator returns an aggregator expecting the given number of
// trials.
func NewRateAggregator(trials int) *RateAggregator {
	return &RateAggregator{trials: trials}
}

// Add folds one trial's outcome.
func (a *RateAggregator) Add(success bool, bits float64) {
	if success {
		a.Successes++
	}
	a.MeanBits += bits / float64(a.trials)
}

// Wilson returns the Wilson-score 95% interval for the success rate.
func (a *RateAggregator) Wilson() (lo, hi float64) {
	return Wilson(a.Successes, a.trials)
}

// PowerFit is the result of fitting y ≈ A·x^Exponent on log-log axes.
type PowerFit struct {
	// Exponent is the fitted power b.
	Exponent float64
	// LogA is ln A, the fitted intercept.
	LogA float64
	// R2 is the coefficient of determination of the log-log regression.
	R2 float64
	// N is the number of points used.
	N int
}

// A returns the multiplicative constant of the fit.
func (f PowerFit) A() float64 { return math.Exp(f.LogA) }

// String implements fmt.Stringer.
func (f PowerFit) String() string {
	return fmt.Sprintf("y ≈ %.3g·x^%.3f (R²=%.3f, n=%d)", f.A(), f.Exponent, f.R2, f.N)
}

// FitPower fits y = A·x^b by ordinary least squares on (ln x, ln y). All
// points must be strictly positive; violating points are skipped. It
// returns an error if fewer than two usable points remain or all x are
// equal.
func FitPower(xs, ys []float64) (PowerFit, error) {
	if len(xs) != len(ys) {
		return PowerFit{}, fmt.Errorf("stats: FitPower length mismatch %d vs %d", len(xs), len(ys))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := len(lx)
	if n < 2 {
		return PowerFit{}, fmt.Errorf("stats: FitPower needs ≥ 2 positive points, have %d", n)
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += lx[i]
		sy += ly[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := lx[i]-mx, ly[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return PowerFit{}, fmt.Errorf("stats: FitPower requires varying x")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		var ssRes float64
		for i := 0; i < n; i++ {
			resid := ly[i] - (a + b*lx[i])
			ssRes += resid * resid
		}
		r2 = 1 - ssRes/syy
	}
	return PowerFit{Exponent: b, LogA: a, R2: r2, N: n}, nil
}
