package main

import (
	"math"
	"math/rand"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5.36, 5.68, 4.82}, 4.82, 5.68},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTopPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v, ok := topPercentile(xs, 10)
	if !ok || pct != 97.5 || v != 390 {
		t.Fatalf("topPercentile(1..400) = %v, %v, %v; want 97.5, 390, true", pct, v, ok)
	}
	if beyond := 400 - int(v); beyond < 10 {
		t.Fatalf("only %d samples beyond the reported percentile", beyond)
	}
	pct, _, ok = topPercentile(xs[:20], 10)
	if !ok || pct != 50 {
		t.Fatalf("20 samples: percentile %v ok=%v, want the median", pct, ok)
	}
	if _, _, ok := topPercentile(xs[:19], 10); ok {
		t.Fatal("19 samples cannot leave ten beyond the median")
	}
}

// samples draws n timings around mean with relative standard deviation
// rel.
func samples(rng *rand.Rand, n int, mean, rel float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean * (1 + rel*rng.NormFloat64())
	}
	return out
}

// flagged counts the trials in which compare flags head samples drawn with
// the given slowdown against base samples of the same noise.
func flagged(seed int64, trials, n int, rel, slowdown float64, higherIsBetter bool) int {
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	for i := 0; i < trials; i++ {
		base := samples(rng, n, 5.0, rel)
		head := samples(rng, n, 5.0*(1+slowdown), rel)
		if compare(base, head, higherIsBetter).Regressed {
			hits++
		}
	}
	return hits
}

// TestCompareFlagsInjectedSlowdown: with ten runs a side and 1% run-to-run
// noise, the gate's own constants flag every 5% slowdown.
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	if hits := flagged(1, 200, 10, 0.01, 0.05, false); hits != 200 {
		t.Fatalf("5%% slowdown flagged in %d of 200 trials", hits)
	}
}

// TestComparePassesSameCode: two sample sets of the same code pass, but
// for one trial in a few hundred when the noise is large and the spread is
// estimated from ten runs.
func TestComparePassesSameCode(t *testing.T) {
	for _, rel := range []float64{0.01, 0.10} {
		if hits := flagged(2, 1000, 10, rel, 0, false); hits > 10 {
			t.Fatalf("noise %v: same code flagged in %d of 1000 trials", rel, hits)
		}
	}
}

// TestCompareResolutionFollowsNoise: with 10% noise, as on a small shared
// host, ten runs a side cannot resolve 5% and the verdict says so, while
// 800 runs a side flag it nearly every time.
func TestCompareResolutionFollowsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := compare(samples(rng, 10, 5, 0.10), samples(rng, 10, 5.25, 0.10), false)
	if c.resolves() <= 0.05 {
		t.Fatalf("10 runs at 10%% noise claim to resolve %.1f%%", c.resolves()*100)
	}
	if hits := flagged(4, 200, 800, 0.10, 0.05, false); hits < 196 {
		t.Fatalf("800 runs a side at 10%% noise flagged a 5%% slowdown in %d of 200 trials", hits)
	}
}

func TestCompareFollowsDirection(t *testing.T) {
	// A 5% drop of a higher-is-better metric regresses; a 5% rise does not.
	if hits := flagged(5, 200, 10, 0.01, -0.05, true); hits != 200 {
		t.Fatalf("5%% drop of a higher-is-better metric flagged in %d of 200 trials", hits)
	}
	if hits := flagged(6, 200, 10, 0.01, 0.05, true); hits != 0 {
		t.Fatalf("5%% rise of a higher-is-better metric flagged in %d of 200 trials", hits)
	}
}
