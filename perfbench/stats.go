package main

import (
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie above the reported tail
// percentile, so the tail is never a single outlier.
const tailMinBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values
// when len(xs) is even), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least
// tailMinBeyond samples above it: the (n−10)-th smallest value, which
// sits at percentile 100·(n−10)/n. With too few samples for the rule
// ok is false and the maximum is returned at percentile 100.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	if n <= tailMinBeyond {
		return s[n-1], 100, false
	}
	k := n - tailMinBeyond // 1-based rank with exactly tailMinBeyond samples above it
	return s[k-1], 100 * float64(k) / float64(n), true
}

// ms, us and sec convert a duration to a float count of the unit.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
