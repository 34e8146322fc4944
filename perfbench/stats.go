package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (0 for none).
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

// tail returns the highest percentile of xs that has at least ten samples
// beyond it (nearest rank), the percentile, and the number of samples beyond
// it. With ten samples or fewer no such percentile exists; it returns the
// maximum with beyond 0.
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100, 0
	}
	rank := n - 10
	return s[rank-1], 100 * float64(rank) / float64(n), 10
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
