package main

import (
	"fmt"
	"math"
	"sort"
)

// minSamples is the least number of timed runs a window must yield before
// the harness reports a p95 from it: the percentile needs at least ten
// samples beyond it (choosing-metrics §1), and 200 × 0.05 = 10.
const minSamples = 200

// sliceSamples is how many consecutive samples one slice of a window holds
// when a percentile is taken slice by slice (see slicedQuantile): 50 samples
// beyond a p95.
const sliceSamples = 1000

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

// slicedQuantile is the harness's percentile rule. Values are in completion
// order. The window is cut into consecutive slices of sliceSamples values
// (the last slice absorbs the remainder), the q-quantile is taken inside each
// slice, and the median over slices is reported: one stall then moves one
// slice, not the figure for the whole run. A window too short for two slices
// is one slice. Fewer than minSamples values is an error, never a thinner
// percentile.
func slicedQuantile(values []float64, q float64) (float64, error) {
	if len(values) < minSamples {
		return 0, fmt.Errorf("%d samples, need at least %d for a percentile", len(values), minSamples)
	}
	n := len(values) / sliceSamples
	if n < 1 {
		n = 1
	}
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		end := (i + 1) * sliceSamples
		if i == n-1 {
			end = len(values)
		}
		per = append(per, quantile(sortedCopy(values[i*sliceSamples:end]), q))
	}
	return median(per), nil
}

// summary describes one metric across repeated sets.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize takes the quartiles the way the benchmark driver does (Python's
// statistics.quantiles(values, n=4), the exclusive method): the q-quantile
// sits at rank q·(n+1), clamped to the ends.
func summarize(values []float64) summary {
	s := sortedCopy(values)
	if len(s) == 0 {
		return summary{}
	}
	quartile := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		pos = math.Max(0, math.Min(pos, float64(len(s)-1)))
		return quantile(s, pos/math.Max(1, float64(len(s)-1)))
	}
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quartile(0.25),
		Median: quantile(s, 0.5),
		Q3:     quartile(0.75),
		Max:    s[len(s)-1],
	}
}

// iqrShare is the distance between the quartiles as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// maxDeviation is the largest relative distance of any value from the median.
func (s summary) maxDeviation() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Max(s.Max-s.Median, s.Median-s.Min) / math.Abs(s.Median)
}
