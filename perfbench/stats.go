package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads printed here match the ones an external checker computes.
// Fewer than two samples give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	// Python's integer arithmetic, clamp included: at the edges delta
	// leaves [0, 4] and the result extrapolates, as Python's does.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

// topPercentile returns the highest percentile of xs, in steps of 0.5
// from the 50th, that still has at least minBeyond samples above its
// nearest-rank value, and that value. ok is false when even the median
// lacks minBeyond samples beyond it.
func topPercentile(xs []float64, minBeyond int) (pct, value float64, ok bool) {
	n := len(xs)
	s := sorted(xs)
	for halfPct := 199; halfPct >= 100; halfPct-- { // percentile × 2
		rank := (halfPct*n + 199) / 200 // ceil(pct/100 × n)
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return float64(halfPct) / 2, s[rank-1], true
		}
	}
	return 0, 0, false
}

// The A/B gate's rule: a head median regresses when it is worse than the
// base median by more than abFloor of it and by more than abZ standard
// errors of the difference between the two medians. The standard error
// comes from the samples' interquartile range, so the gate resolves
// smaller shifts the more runs each side has and the steadier they are.
const (
	abFloor = 0.03
	abZ     = 3
)

// comparison is the verdict of compare on one metric.
type comparison struct {
	BaseMedian, HeadMedian float64
	// Ratio is HeadMedian / BaseMedian.
	Ratio float64
	// Threshold is the smallest worsening the gate flags for these
	// samples, in the metric's unit.
	Threshold float64
	// Regressed reports a worsening of more than Threshold.
	Regressed bool
}

func (c comparison) String() string {
	verdict := "ok"
	if c.Regressed {
		verdict = "REGRESSED"
	}
	return fmt.Sprintf("base %.6g head %.6g ratio %.4f (flags a worsening past %.1f%%) %s",
		c.BaseMedian, c.HeadMedian, c.Ratio, c.resolves()*100, verdict)
}

// resolves is Threshold as a share of the base median.
func (c comparison) resolves() float64 {
	return c.Threshold / math.Abs(c.BaseMedian)
}

// medianDiffSE estimates the standard error of median(head) -
// median(base). Both sides are taken to share one spread, estimated from
// the interquartile range of their deviations from their own medians
// (sigma is IQR/1.349 for normal samples); a median's standard error is
// 1.253 sigma / sqrt(n).
func medianDiffSE(base, head []float64) float64 {
	var dev []float64
	for _, side := range [][]float64{base, head} {
		m := median(side)
		for _, x := range side {
			dev = append(dev, x-m)
		}
	}
	q1, q3 := quartiles(dev)
	sigma := (q3 - q1) / 1.349
	return 1.253 * sigma * math.Sqrt(1/float64(len(base))+1/float64(len(head)))
}

// compare gates two sample sets of one metric, taken on the same host with
// identical benchmark code, settings and inputs. higherIsBetter gives the
// metric's direction.
func compare(base, head []float64, higherIsBetter bool) comparison {
	b, h := median(base), median(head)
	c := comparison{BaseMedian: b, HeadMedian: h, Ratio: h / b,
		Threshold: math.Max(abFloor*math.Abs(b), abZ*medianDiffSE(base, head))}
	worse := h - b
	if higherIsBetter {
		worse = b - h
	}
	c.Regressed = worse > c.Threshold && worse > 0
	return c
}
