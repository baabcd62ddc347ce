package main

import (
	"fmt"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tail returns the highest percentile that has at least ten samples
// beyond it, capped at the 99th and never below the median, and its value.
func tail(xs []float64) (q, v float64) {
	q = 0.5
	if n := float64(len(xs)); n > 0 {
		q = min(max(1-10/n, 0.5), 0.99)
	}
	return q, quantile(xs, q)
}

// describe formats a sample as "median M, pNN T (n=N)" in the given unit.
func describe(xs []float64, unit string) string {
	q, t := tail(xs)
	return fmt.Sprintf("median %.4g %s, p%.0f %.4g %s (n=%d)", median(xs), unit, 100*q, t, unit, len(xs))
}
