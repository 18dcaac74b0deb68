package main

import (
	"math"
	"sort"
)

// sliceStat is one timed slice reduced to the numbers the estimator
// keeps: calibrated (reference-machine) values next to the raw ones.
type sliceStat struct {
	kernelUS float64 // reference kernel duration paired with the slice
	opsPerS  float64 // calibrated throughput
	p50, p90 float64 // calibrated per-op latency percentiles, µs
	rawOpsS  float64
	rawP50   float64
	rawP99   float64
}

// summarizeSlice turns one slice's raw measurements into a sliceStat.
// scale = CalibRefUS / kernelUS converts this moment's wall-clock into
// reference-machine time: a host running 20 % slow stretches the kernel
// and the slice alike, and the ratio cancels it. lats is sorted in place.
func summarizeSlice(ops int, wallUS, kernelUS float64, lats []float64) sliceStat {
	scale := CalibRefUS / kernelUS
	sort.Float64s(lats)
	calWall := wallUS * scale
	return sliceStat{
		kernelUS: kernelUS,
		opsPerS:  float64(ops) / (calWall / 1e6),
		p50:      percentile(lats, 0.50) * scale,
		p90:      percentile(lats, 0.90) * scale,
		rawOpsS:  float64(ops) / (wallUS / 1e6),
		rawP50:   percentile(lats, 0.50),
		rawP99:   percentile(lats, 0.99),
	}
}

// percentile is the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (mean of the middle two for an even
// count) without disturbing v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median over slices of one field: a workload's value for
// a time metric. The median, not the mean, because the slices hit by a GC
// cycle or a descheduling are outliers on one side only.
func medianOf(slices []sliceStat, f func(sliceStat) float64) float64 {
	v := make([]float64, len(slices))
	for i, s := range slices {
		v[i] = f(s)
	}
	return median(v)
}

// coefVar is stddev/mean — how unsteady the reference kernel (that is,
// the host) was during the run.
func coefVar(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(v)-1)) / mean
}
