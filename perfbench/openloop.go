package main

import (
	"sort"
	"sync"
	"time"
)

// openLoop issues operations on a fixed schedule: operation i is due at
// start + i/rate, whether or not earlier ones have completed, the way
// independent users arrive. When the generator falls behind (a stalled
// process starves it of CPU, or a sleep overshoots) it issues every overdue
// operation back to back, each keeping its own due time, so latency measured
// from the due time includes the stall (no coordinated omission). stop, if
// non-nil, ends the loop early once it returns true. It returns the number
// of operations issued and how late the generator ran at worst.
func openLoop(start time.Time, rate float64, dur time.Duration, stop func() bool, issue func(i int, due time.Time)) (int, time.Duration) {
	period := time.Duration(float64(time.Second) / rate)
	end := start.Add(dur)
	var maxLag time.Duration
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) || (stop != nil && stop()) {
			return i, maxLag
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(due); lag > maxLag {
			maxLag = lag
		}
		issue(i, due)
	}
}

// book tracks operations from their due time to their completion. Ids are
// dense and handed out by issue; complete may run on any goroutine. Only
// operations in flight are held, so the benchmark's own memory does not grow
// with the number of operations a run completes.
type book struct {
	mu       sync.Mutex
	base     time.Time
	issued   uint64
	done     int
	inflight map[uint64]pending
	lat      []time.Duration
	record   bool    // whether completions add to lat
	gaps     bool    // whether completion times are kept for longestGap
	doneAt   []int64 // ns since base of each completion while gaps is on
}

type pending struct {
	due   int64 // ns since base
	owner int   // the replica that issued the op and completes it
}

func newBook() *book { return &book{base: time.Now(), inflight: map[uint64]pending{}} }

// issue registers an operation due at the given time, issued by owner, and
// returns its id.
func (b *book) issue(due time.Time, owner int) uint64 {
	b.mu.Lock()
	id := b.issued
	b.issued++
	b.inflight[id] = pending{due: int64(due.Sub(b.base)), owner: owner}
	b.mu.Unlock()
	return id
}

// complete records the completion of id observed at replica by at. It
// ignores completions seen by any replica but the op's owner, unknown ids and
// repeats, and returns the op's latency from its due time.
func (b *book) complete(id uint64, replica int, at time.Time) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.inflight[id]
	if !ok || p.owner != replica {
		return 0, false
	}
	delete(b.inflight, id)
	now := int64(at.Sub(b.base))
	lat := time.Duration(now - p.due)
	b.done++
	if b.gaps {
		b.doneAt = append(b.doneAt, now)
	}
	if b.record {
		b.lat = append(b.lat, lat)
	}
	return lat, true
}

// setRecording turns latency recording on or off (only the measured phases
// feed the reported percentiles).
func (b *book) setRecording(on bool) {
	b.mu.Lock()
	b.record = on
	b.mu.Unlock()
}

// setGapTracking turns the recording of completion times on or off.
func (b *book) setGapTracking(on bool) {
	b.mu.Lock()
	b.gaps = on
	b.mu.Unlock()
}

func (b *book) counts() (issued, done int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.issued), b.done
}

// latencies returns and clears the recorded latencies, in completion order.
func (b *book) latencies() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.lat
	b.lat = nil
	return out
}

// longestGap is the longest stretch within [from, to] with no completion:
// the time without service a failure imposed on the clients. It needs gap
// tracking on over the stretch.
func (b *book) longestGap(from, to time.Time) time.Duration {
	b.mu.Lock()
	lo, hi := int64(from.Sub(b.base)), int64(to.Sub(b.base))
	var ts []int64
	for _, t := range b.doneAt {
		if t >= lo && t <= hi {
			ts = append(ts, t)
		}
	}
	b.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	prev, gap := lo, int64(0)
	for _, t := range append(ts, hi) {
		if t-prev > gap {
			gap = t - prev
		}
		prev = t
	}
	return time.Duration(gap)
}
