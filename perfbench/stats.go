package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit, in the shape the
// result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a named metric set.
type metrics struct {
	vals map[string]metric
	// samples records, for timing metrics, how many observations the
	// value summarizes (printed beside it, not part of the result line).
	samples map[string]int
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]metric{}, samples: map[string]int{}}
}

func (m *metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// setTiming records a timing quantile with the sample count behind it.
func (m *metrics) setTiming(name, unit string, v float64, n int) {
	m.set(name, unit, v)
	m.samples[name] = n
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. Zero for an empty set.
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

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
