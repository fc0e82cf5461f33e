package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or 0
// for an empty slice. Nearest rank never invents a value between two
// samples, so a bimodal population reports one of its modes, not a point
// nobody measured. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the interpolated 0.5-quantile: the mean of the two middle
// values for an even count. Window medians use it so that five windows
// report the third and four report the mean of the second and third.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr is the distance between the first and third quartile with the
// exclusive method Python's statistics.quantiles(xs, n=4) uses, so the
// spread this program prints is the spread the acceptance rule computes.
// Fewer than two values have no spread.
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile cut point, k in 1..3
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(3) - at(1)
}

// geomean is the geometric mean of the positive entries of xs; it is how
// a mix of job kinds with very different sizes reports one latency
// without the largest kind deciding it.
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func pctDelta(on, off float64) float64 {
	if off == 0 {
		return 0
	}
	return 100 * (on - off) / off
}
