package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/metrics"
	"repro/internal/types"
)

// E11LossyThroughput measures what the stability/NAK/retransmit layer buys
// on an unreliable network: one member of a flat group floods FIFO
// multicasts while the fabric drops a fixed fraction of messages, with the
// reliability layer's recovery on (the default) versus off (the
// best-effort fan-out: a NAK interval of an hour, so no NAK fires during
// the run). The headline columns are the fraction of the offered load the
// whole group actually delivered and the delivered msgs/sec. Without retransmission a single lost cast stalls each
// receiver's FIFO stream for the rest of the run, so delivery collapses at
// even 1% loss; with NAK/retransmit the group should stay near complete
// delivery at a modest throughput cost — which is the paper's
// survives-faults claim made quantitative.
func E11LossyThroughput(s Scale) (*metrics.Table, error) {
	n := 6
	casts := 600
	switch s {
	case Full:
		casts = 2000
	case Smoke:
		n = 4
		casts = 200
	}
	t := metrics.NewTable("E11: lossy-network throughput, retransmit on vs off",
		"members", "loss", "casts", "mode", "delivered frac", "delivered msgs/sec", "naks", "served")
	for _, loss := range []float64{0.01, 0.05} {
		for _, retransmit := range []bool{false, true} {
			res, err := runLossyLoad(n, casts, loss, retransmit)
			if err != nil {
				return nil, fmt.Errorf("E11 loss=%.2f retransmit=%v: %w", loss, retransmit, err)
			}
			mode := "retransmit"
			if !retransmit {
				mode = "best-effort"
			}
			t.AddRow(n, fmt.Sprintf("%.0f%%", loss*100), casts, mode,
				res.fraction, res.rate, res.rel.NaksSent, res.rel.NaksServed)
		}
	}
	return t, nil
}

type lossyResult struct {
	fraction float64 // delivered / offered, across the whole group
	rate     float64 // delivered msgs/sec
	rel      isis.ReliabilityStats
}

// runLossyLoad builds a flat group, turns on random loss, floods casts from
// one member, and waits until delivery converges (all delivered, or no
// progress across a recovery-sized window).
func runLossyLoad(n, casts int, loss float64, retransmit bool) (lossyResult, error) {
	var opts []isis.Option
	if !retransmit {
		// NAKs fire only from the recovery timer; an hour-long interval
		// keeps it from ticking during the run.
		opts = append(opts, isis.WithReliability(isis.ReliabilityConfig{NakInterval: time.Hour}))
	}
	rt, procs, err := spawn(n, opts...)
	if err != nil {
		return lossyResult{}, err
	}
	defer rt.Shutdown()

	var delivered atomic.Int64
	groups, err := formGroup(procs, "e11-lossy", func(int) isis.GroupConfig {
		return isis.GroupConfig{OnDeliver: func(isis.Delivery) { delivered.Add(1) }}
	})
	if err != nil {
		return lossyResult{}, err
	}

	// Loss starts after the membership is settled: the experiment measures
	// the data path, not join robustness (the chaos harness covers that).
	rt.Fabric().SetLossRate(loss)
	want := int64(n) * int64(casts)
	payload := []byte("lossy-throughput-payload-0123456789")
	start := time.Now()
	// Time-paced flood: delivery-gated flow control would deadlock the
	// best-effort baseline the moment a gap stalls the FIFO streams, and the
	// comparison needs both modes to offer the same load.
	const burst = 25
	for sent := 0; sent < casts; {
		for k := 0; k < burst && sent < casts; k++ {
			groups[0].CastAsync(types.FIFO, payload)
			sent++
		}
		time.Sleep(500 * time.Microsecond)
	}
	// Converged: everything delivered, or no progress for a window several
	// recovery rounds long (the best-effort baseline stalls permanently).
	const stallWindow = 400 * time.Millisecond
	deadline := time.Now().Add(opTimeout)
	last, lastChange := delivered.Load(), time.Now()
	for delivered.Load() < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if d := delivered.Load(); d != last {
			last, lastChange = d, time.Now()
			continue
		}
		if time.Since(lastChange) >= stallWindow {
			break
		}
	}
	elapsed := time.Since(start)
	got := delivered.Load()
	res := lossyResult{
		fraction: float64(got) / float64(want),
		rate:     float64(got) / elapsed.Seconds(),
	}
	for _, p := range procs {
		res.rel.Add(p.ReliabilityStats())
	}
	return res, nil
}
