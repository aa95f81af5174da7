package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/types"
)

// floodResult is one measured flood round: wall-clock, group-wide delivery
// rate, and the fabric counters for exactly that round.
type floodResult struct {
	elapsed time.Duration
	rate    float64 // delivered msgs/sec across the whole group
	stats   isis.Stats
}

// runFloodLoad is the shared hot-path load harness behind E9 and E12: build
// a flat group of n members on a runtime with the given options, flood casts
// from one member, and wait until every member has delivered every cast.
// Keeping one implementation means the two experiments (and any future one)
// measure identical flow control — only the knob under test differs.
func runFloodLoad(n, casts int, opts ...isis.Option) (floodResult, error) {
	rt, procs, err := spawn(n, opts...)
	if err != nil {
		return floodResult{}, err
	}
	defer rt.Shutdown()

	var delivered atomic.Int64
	groups, err := formGroup(procs, "flood", func(int) isis.GroupConfig {
		return isis.GroupConfig{OnDeliver: func(isis.Delivery) { delivered.Add(1) }}
	})
	if err != nil {
		return floodResult{}, err
	}

	// Two rounds on the same (warmed) cluster; the better one is reported.
	// Short runs on shared CI hardware jitter enough that a single round
	// under-reports whichever mode the scheduler happened to preempt.
	payload := []byte("flood-throughput-payload-0123456789abcdef")
	var best floodResult
	for round := 0; round < 2; round++ {
		already := delivered.Load()
		want := already + int64(n)*int64(casts)
		rt.Fabric().ResetStats()
		start := time.Now()
		// Windowed flood: cap casts in flight so no mode can overflow the
		// receivers' bounded inbound queues (the netsim overloaded-
		// workstation model would silently drop the excess and wedge the
		// FIFO streams). Every mode runs the same flow control, like any
		// real pipelined producer.
		const window = 1024
		for sent := 0; sent < casts; {
			doneCasts := (delivered.Load() - already) / int64(n)
			inFlight := int64(sent) - doneCasts
			if inFlight >= window {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			burst := casts - sent
			if room := int(window - inFlight); burst > room {
				burst = room
			}
			for k := 0; k < burst; k++ {
				groups[0].CastAsync(types.FIFO, payload)
			}
			sent += burst
		}
		// Tight polling: isis.Await's 2ms granularity would be a visible
		// constant error on runs this short.
		deadline := time.Now().Add(opTimeout)
		for delivered.Load() < want {
			if time.Now().After(deadline) {
				return floodResult{}, fmt.Errorf("delivered %d of %d: %w", delivered.Load()-already, want-already, types.ErrTimeout)
			}
			time.Sleep(50 * time.Microsecond)
		}
		elapsed := time.Since(start)
		res := floodResult{
			elapsed: elapsed,
			rate:    float64(want-already) / elapsed.Seconds(),
			stats:   rt.Stats(),
		}
		if best.rate == 0 || res.rate > best.rate {
			best = res
		}
	}
	return best, nil
}
