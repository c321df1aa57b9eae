package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
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

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailPercentiles that leaves at
// least ten samples beyond it, with its value; a sample too small for
// any gives the median at percentile 50.
func tail(xs []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, median(xs)
}

// setTail records a latency sample's tail percentile and sample count.
func (r *report) setTail(samplesMS []float64) {
	pct, v := tail(samplesMS)
	r.set("op_tail_pct", pct)
	r.set("op_tail_ms", v)
	r.set("op_samples", float64(len(samplesMS)))
}
