package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the highest percentile of a sample with at least ten samples
// beyond it, the reporting rule for latency tails. OK is false when the
// sample holds fewer than 11 values.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	OK         bool    `json:"ok"`
}

func tailOf(xs []float64) tail {
	n := len(xs)
	t := tail{Samples: n}
	if n < 11 {
		return t
	}
	// With n sorted samples, the value at rank n-11 (0-based) has exactly
	// ten samples above it; report it with its percentile rank.
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11
	t.Percentile = 100 * float64(k) / float64(n-1)
	t.Value = s[k]
	t.OK = true
	return t
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
