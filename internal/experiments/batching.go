package experiments

import (
	"fmt"

	isis "repro"
	"repro/internal/metrics"
)

// E9BatchingThroughput measures the broadcast hot path end to end: one
// member of a flat group floods FIFO multicasts and the experiment times
// how long the whole group takes to deliver them, with the transport
// batching pipeline on (the default) versus off (WithBatching(1, 0): one
// message per frame, the pre-batching framing). Cast counts are identical
// in both modes — batching changes how casts are framed and flushed, not
// how many are sent — so the table also reports frames and the msgs/frame
// amortization factor. The headline column is the speedup in delivered msgs/sec, the
// quantity the ROADMAP's "measurably faster hot path" goal asks for.
func E9BatchingThroughput(s Scale) (*metrics.Table, error) {
	// Batching pays off proportionally to fan-out: below ~8 members the
	// sender's fixed per-cast cost (one posted action per CastAsync)
	// dominates and dilutes the frame amortization, so the sweep starts
	// where the hot path actually lives.
	sizes := []int{8, 16}
	casts := 5000
	switch s {
	case Full:
		sizes = []int{8, 16, 32}
		casts = 20000
	case Smoke:
		sizes = []int{8}
		casts = 1000
	}
	t := metrics.NewTable("E9: broadcast hot-path throughput, batched vs unbatched",
		"members", "casts", "mode", "elapsed", "delivered msgs/sec", "frames", "msgs/frame", "speedup")
	for _, n := range sizes {
		base, err := runFloodLoad(n, casts, isis.WithBatching(1, 0))
		if err != nil {
			return nil, fmt.Errorf("E9 unbatched n=%d: %w", n, err)
		}
		batched, err := runFloodLoad(n, casts)
		if err != nil {
			return nil, fmt.Errorf("E9 batched n=%d: %w", n, err)
		}
		t.AddRow(n, casts, "unbatched", base.elapsed, base.rate, base.stats.FramesSent, msgsPerFrame(base), "")
		t.AddRow(n, casts, "batched", batched.elapsed, batched.rate, batched.stats.FramesSent, msgsPerFrame(batched),
			batched.rate/base.rate)
	}
	return t, nil
}

func msgsPerFrame(r floodResult) float64 {
	if r.stats.FramesSent == 0 {
		return 0
	}
	return float64(r.stats.MessagesSent) / float64(r.stats.FramesSent)
}
