package experiments

import (
	"fmt"

	"repro/internal/metrics"
)

// E12MemberScaling measures the acknowledgement path as a function of group
// size: one member floods FIFO casts at an n-member flat group (batching on,
// the default), where the piggybacked/standalone stability watermarks are
// the only acknowledgement signal and one report covers an entire prefix of
// casts. The table reports delivered msgs/sec, the measured ack-message
// volume (StabilitySent on the fabric) and acks per cast. The retired
// per-cast-ack and gob-codec baselines are recorded in BENCH_scaling.json.
func E12MemberScaling(s Scale) (*metrics.Table, error) {
	sizes := []int{8, 16}
	casts := 3000
	switch s {
	case Full:
		sizes = []int{8, 16, 32, 64}
		casts = 5000
	case Smoke:
		sizes = []int{8}
		casts = 800
	}
	t := metrics.NewTable("E12: member scaling, cumulative watermark acks",
		"members", "casts", "elapsed", "delivered msgs/sec", "ack msgs", "acks/cast")
	for _, n := range sizes {
		r, err := runFloodLoad(n, casts)
		if err != nil {
			return nil, fmt.Errorf("E12 n=%d: %w", n, err)
		}
		acks := r.stats.StabilitySent
		t.AddRow(n, casts, r.elapsed, r.rate, acks, float64(acks)/float64(casts))
	}
	return t, nil
}
