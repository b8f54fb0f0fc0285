package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks, the rule numpy and Python's
// statistics module call "inclusive". xs is not modified. NaN for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || s[lo] == s[lo+1] {
		return s[lo] // also keeps infinite samples from making NaN
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// rung is one measured step of the rate ladder.
type rung struct {
	Rate  float64 // offered operations per second
	Tail  float64 // read latency at the SLO percentile, ms
	Clean bool    // no operation failed and the backlog did not grow
}

// maxRateAtSLO returns the highest offered rate whose tail latency meets
// the limit, interpolated so that it moves continuously with the
// measurements. Rungs are in ascending rate order; a failed operation
// enters a rung's tail as an infinite latency. A rung meets the limit
// when it is clean and its tail is within limit. The result starts from
// the highest rung that meets (a lower rung's miss, say from a stall on
// a shared host, does not cap it) and moves toward the rung above it by
// where the tail line between the two crosses the limit. When that rung
// misses with its tail still within the limit (a growing backlog, or
// failures too few to reach the tail), there is no crossing and the
// result is the meeting rate. When no rung meets, the line runs from the
// origin (zero load, zero latency) to the first rung; when the top rung
// meets, the result is the top rate: the ladder did not reach the
// system's limit.
func maxRateAtSLO(rungs []rung, limit float64) float64 {
	best := -1
	for i, r := range rungs {
		if r.Clean && r.Tail <= limit {
			best = i
		}
	}
	lo := rung{}
	if best >= 0 {
		lo = rungs[best]
	}
	if best+1 >= len(rungs) {
		return lo.Rate
	}
	hi := rungs[best+1]
	if hi.Tail <= limit {
		return lo.Rate
	}
	// lo.Tail ≤ limit < hi.Tail, so the slope is positive; an infinite
	// tail yields lo.Rate.
	return lo.Rate + (hi.Rate-lo.Rate)*(limit-lo.Tail)/(hi.Tail-lo.Tail)
}
