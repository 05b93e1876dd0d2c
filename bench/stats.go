package main

import (
	"slices"
	"time"
)

// quantiles cuts data into n intervals of equal probability, the way
// Python's statistics.quantiles(data, n=n) does with its default
// "exclusive" method; it returns the n-1 cut points. Fewer than two
// values are returned as they are.
func quantiles(data []float64, n int) []float64 {
	d := slices.Sorted(slices.Values(data))
	ld := len(d)
	if ld < 2 {
		return slices.Repeat(d, n-1)
	}
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out = append(out, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/float64(n))
	}
	return out
}

// median of data; 0 for no data.
func median(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	return quantiles(data, 2)[0]
}

// medianBy is the median of f over xs, skipping the values f rejects.
func medianBy[T any](xs []T, f func(T) (float64, bool)) float64 {
	var vals []float64
	for _, x := range xs {
		if v, ok := f(x); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

// mean of data; 0 for no data.
func mean(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range data {
		sum += x
	}
	return sum / float64(len(data))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
