package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles job_tail_ms may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyondTail is the fewest samples a reported tail may have beyond
// it, so the tail never rests on a handful of jobs.
const minBeyondTail = 10

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for no samples.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the nearest-rank value of the highest ladder percentile,
// at most nominal, that leaves at least minBeyondTail samples beyond
// it. Each workload's nominal percentile leaves about twice that many
// at its usual sample count, so the reported percentile stays the same
// from run to run (and does not climb when a faster program completes
// more jobs); a run too short for even the lowest rung is refused.
func tail(xs []float64, nominal float64) (value, pct float64, beyond int, err error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		if p > nominal {
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyondTail {
			return s[rank-1], p, n - rank, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("only %d samples: no percentile down to p%g has %d beyond it", n, tailLadder[len(tailLadder)-1], minBeyondTail)
}

// msList converts durations to float milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// addLatency reports job_p50_ms and job_tail_ms of one run's job
// latencies, noting the tail's percentile and sample counts.
func addLatency(rep *report, lat []time.Duration, nominalTail float64) error {
	xs := msList(lat)
	v, p, beyond, err := tail(xs, nominalTail)
	if err != nil {
		return fmt.Errorf("job_tail_ms: %w", err)
	}
	rep.add("job_p50_ms", "ms", median(xs))
	rep.add("job_tail_ms", "ms", v)
	rep.note("job_tail_ms is p%g of %d timed jobs (%d beyond it)", p, len(xs), beyond)
	return nil
}

// medianSetup reports setup_s as the median of the run's set-ups.
func medianSetup(rep *report, setups []time.Duration) {
	xs := make([]float64, len(setups))
	for i, d := range setups {
		xs[i] = d.Seconds()
	}
	rep.add("setup_s", "s", median(xs))
	rep.note("setup_s is the median of %d set-ups: %v", len(setups), setups)
}
