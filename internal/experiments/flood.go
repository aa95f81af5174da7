package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/types"
)

// floodResult is one measured flood round: wall-clock, group-wide delivery
// rate, and the fabric counters for exactly that round.
type floodResult struct {
	elapsed time.Duration
	rate    float64 // delivered msgs/sec across the whole group
	stats   netsim.Stats
}

// runFloodLoad is the shared hot-path load harness behind E9 and E12: build
// a flat group of n members with the given batching knobs, flood casts from
// one member, and wait until every member has delivered every cast. Keeping
// one implementation means the two experiments (and any future one) measure
// identical flow control — only the knob under test differs.
func runFloodLoad(n, casts int, b node.Batching) (floodResult, error) {
	c, err := cluster.New(n, cluster.Options{Batching: b})
	if err != nil {
		return floodResult{}, err
	}
	defer c.Stop()

	var delivered atomic.Int64
	gid := types.FlatGroup("flood")
	cfg := group.Config{OnDeliver: func(group.Delivery) { delivered.Add(1) }}
	groups := make([]*group.Group, n)
	groups[0], err = c.Proc(0).Stack.Create(gid, cfg)
	if err != nil {
		return floodResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for i := 1; i < n; i++ {
		groups[i], err = c.Proc(i).Stack.Join(ctx, gid, c.Proc(0).ID, cfg)
		if err != nil {
			return floodResult{}, fmt.Errorf("join %d/%d: %w", i, n, err)
		}
	}
	if !cluster.WaitForViewSize(opTimeout, n, groups...) {
		return floodResult{}, fmt.Errorf("group never converged to %d members: %w", n, types.ErrTimeout)
	}

	// Two rounds on the same (warmed) cluster; the better one is reported.
	// Short runs on shared CI hardware jitter enough that a single round
	// under-reports whichever mode the scheduler happened to preempt.
	payload := []byte("flood-throughput-payload-0123456789abcdef")
	var best floodResult
	for round := 0; round < 2; round++ {
		already := delivered.Load()
		want := already + int64(n)*int64(casts)
		c.Fabric.ResetStats()
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
		// Tight polling: cluster.WaitFor's 2ms granularity would be a
		// visible constant error on runs this short.
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
			stats:   c.Fabric.Stats(),
		}
		if best.rate == 0 || res.rate > best.rate {
			best = res
		}
	}
	return best, nil
}
