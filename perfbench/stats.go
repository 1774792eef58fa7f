package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is noise, so it is not reported at all.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank, and false when fewer than minTail samples lie above it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if len(s)-rank < minTail {
		return 0, false
	}
	return s[rank-1], true
}

// median is the middle value of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1, q2 and q3 of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// spreads printed here match the ones the steadiness check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is (q3 - q1) / median, the run-to-run noise measure the bounds in
// BENCHMARK.json are judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func minOf(xs []float64) float64 { return sortedCopy(xs)[0] }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencies collects one open-loop sub-phase's per-operation samples.
// Failed operations are recorded at failedLatency, so they count as missing
// any latency limit.
type latencies struct {
	ms []float64
}

// failedLatency is the latency a failed operation is charged with: the
// load generator's request timeout, above any limit a healthy run
// approaches.
const failedLatency = 30 * time.Second

// p returns the p-th percentile in milliseconds, or an error naming the
// sample count when it has fewer than minTail samples beyond it.
func (l *latencies) p(what string, p float64) (float64, error) {
	v, ok := percentile(l.ms, p)
	if !ok {
		return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, have %d samples in all", what, p, minTail, len(l.ms))
	}
	return v, nil
}
