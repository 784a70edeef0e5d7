package main

import "sort"

// summary is a timing or size reported as median and quartiles with its
// sample count. A pooled summary is one estimate from the samples of N
// runs together (profile shares); it has no quartiles.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Pooled bool    `json:"pooled,omitempty"`
}

// summarize returns the median and the quartiles as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method).
func summarize(values []float64) summary {
	n := len(values)
	if n == 0 {
		return summary{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	med := v[n/2]
	if n%2 == 0 {
		med = (v[n/2-1] + v[n/2]) / 2
	}
	if n == 1 {
		return summary{Median: med, Q1: med, Q3: med, N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// iqrFrac is the interquartile range as a share of the median.
func (s summary) iqrFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
