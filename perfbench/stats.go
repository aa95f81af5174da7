package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples is a set of timings. It is safe for concurrent use: callbacks on
// several actor goroutines add to the same set.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

// summary is a sorted snapshot of a sample set.
type summary struct{ sorted []time.Duration }

func (s *samples) summary() summary {
	s.mu.Lock()
	out := append([]time.Duration(nil), s.d...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return summary{sorted: out}
}

func (s summary) n() int { return len(s.sorted) }

// quantile is the nearest-rank q-quantile (q in (0,1]); 0 for no samples.
func (s summary) quantile(q float64) time.Duration {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s.sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a small set of values (setup repetitions, per-cycle figures).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// block is the number of consecutive operations a run's latencies are cut
// into: the fewest that leave ten samples beyond the 99th percentile.
const block = 1000

// bestBlock returns the lowest p50 and the lowest p99 over a run's
// consecutive blocks of completions (each quantile minimised on its own).
// It suits open loops, where every block meets the same arrivals. The
// machine the benchmark was tuned on is a shared two-vCPU VM that loses
// 15-20% of its CPU time to steal, in bursts; a run's plain percentiles
// swing several-fold with the neighbours' load, while the best block is
// what the code costs when it holds the processor. A regression in the code
// slows every block, the best one included. With fewer samples than a block
// it returns the plain percentiles.
func bestBlock(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) < block {
		s := samplesOf(lat).summary()
		return s.quantile(0.5), s.quantile(0.99)
	}
	for i := 0; i+block <= len(lat); i += block {
		s := samplesOf(append([]time.Duration(nil), lat[i:i+block]...)).summary()
		if q := s.quantile(0.5); p50 == 0 || q < p50 {
			p50 = q
		}
		if q := s.quantile(0.99); p99 == 0 || q < p99 {
			p99 = q
		}
	}
	return p50, p99
}

// lowerQuartile is the nearest-rank 25th percentile of v: the figure
// reported for repeated joins, which stalls in a shared machine push up
// more often than down.
func lowerQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[int(math.Ceil(0.25*float64(len(c))))-1]
}

func samplesOf(d []time.Duration) *samples { return &samples{d: d} }
