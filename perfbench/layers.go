package main

import (
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	isis "repro"
	"repro/internal/netsim"
	"repro/internal/types"
	"repro/internal/wire"
)

// castLog follows traced casts from submit to each member's delivery (read
// through the GroupObserver tap, or the service's leaf-delivery callback):
// deliver lag per (cast, member), and per cast the spread between its first
// and last delivery.
type castLog struct {
	mu     sync.Mutex
	submit map[uint64]time.Time
	first  map[uint64]time.Time
	last   map[uint64]time.Time
	lag    [2]samples // by ordering: 0 FBCAST (or FIFO), 1 ABCAST
}

func newCastLog() *castLog {
	return &castLog{submit: map[uint64]time.Time{}, first: map[uint64]time.Time{}, last: map[uint64]time.Time{}}
}

func (c *castLog) submitted(id uint64, at time.Time) {
	c.mu.Lock()
	c.submit[id] = at
	c.mu.Unlock()
}

func (c *castLog) delivered(id uint64, total bool, at time.Time) {
	c.mu.Lock()
	s, ok := c.submit[id]
	if ok {
		if f, seen := c.first[id]; !seen || at.Before(f) {
			c.first[id] = at
		}
		if l := c.last[id]; at.After(l) {
			c.last[id] = at
		}
	}
	c.mu.Unlock()
	if ok {
		k := 0
		if total {
			k = 1
		}
		c.lag[k].add(at.Sub(s))
	}
}

// report fills the group.deliver_* metrics and returns the ABCAST-minus-
// FBCAST median lag (0 when the workload casts with one ordering only).
func (c *castLog) report(r *run) (abcastExtra time.Duration) {
	var all samples
	for k := range c.lag {
		for _, d := range c.lag[k].summary().sorted {
			all.add(d)
		}
	}
	s := all.summary()
	r.layer["group.deliver_lag_ms_p50"] = ms(s.quantile(0.5))
	r.layer["group.deliver_lag_ms_p99"] = ms(s.quantile(0.99))
	var spread samples
	c.mu.Lock()
	for id, f := range c.first {
		spread.add(c.last[id].Sub(f))
	}
	c.mu.Unlock()
	// When every member delivered each traced cast within the clock's
	// resolution the spread reads 0; report the resolution instead, so the
	// figure reads as measured.
	r.layer["group.deliver_spread_ms_p99"] = max(ms(spread.summary().quantile(0.99)), 1e-6)
	fb, ab := c.lag[0].summary(), c.lag[1].summary()
	if fb.n() > 0 && ab.n() > 0 {
		return ab.quantile(0.5) - fb.quantile(0.5)
	}
	return 0
}

// simDelta is the change of the simulated fabric's counters over a phase.
type simDelta struct{ msgs, frames, bytes, stability, dropped uint64 }

func deltaOf(a, b netsim.Stats) simDelta {
	return simDelta{
		msgs:      b.MessagesSent - a.MessagesSent,
		frames:    b.FramesSent - a.FramesSent,
		bytes:     b.BytesSent - a.BytesSent,
		stability: b.StabilitySent - a.StabilitySent,
		dropped:   b.MessagesDropped - a.MessagesDropped,
	}
}

// fillSim reports the node/transport/netsim/stability layer counts of a
// simulated run over ops operations.
func fillSim(r *run, d simDelta, ops float64) {
	r.layer["node.msgs_per_frame"] = ratio(float64(d.msgs), float64(d.frames))
	r.layer["node.msgs_per_op"] = ratio(float64(d.msgs), ops)
	r.layer["node.bytes_per_op"] = ratio(float64(d.bytes), ops)
	r.layer["transport.frames_per_op"] = ratio(float64(d.frames), ops)
	r.layer["reliability.stability_msgs_per_cast"] = ratio(float64(d.stability), ops)
	r.layer["netsim.dropped"] = float64(d.dropped)
}

// fillReliability sums the recovery counters of the live processes.
func fillReliability(r *run, procs []*isis.Process) {
	var s isis.ReliabilityStats
	for _, p := range procs {
		if !p.Stopped() {
			s.Add(p.ReliabilityStats())
		}
	}
	r.layer["reliability.naks_sent"] = float64(s.NaksSent)
	r.layer["reliability.duplicates"] = float64(s.Duplicates)
}

// relSum sums one reliability counter over the live processes.
func relSum(procs []*isis.Process, f func(isis.ReliabilityStats) uint64) uint64 {
	var n uint64
	for _, p := range procs {
		if !p.Stopped() {
			n += f(p.ReliabilityStats())
		}
	}
	return n
}

// fillState sums the state-transfer counters of the given group members.
func fillState(r *run, groups []*isis.Group) {
	var s isis.StateTransferStats
	for _, g := range groups {
		x := g.StateStats()
		s.ChunksSent += x.ChunksSent
		s.NaksSent += x.NaksSent
		s.Restarts += x.Restarts
		s.HeldApplied += x.HeldApplied
		s.WALAppends += x.WALAppends
		s.WALCompactions += x.WALCompactions
		s.SnapshotBytes = max(s.SnapshotBytes, x.SnapshotBytes)
	}
	r.layer["state.chunks_sent"] = float64(s.ChunksSent)
	r.layer["state.naks_sent"] = float64(s.NaksSent)
	r.layer["state.restarts"] = float64(s.Restarts)
	r.layer["state.snapshot_bytes"] = float64(s.SnapshotBytes)
	r.layer["state.held_applied"] = float64(s.HeldApplied)
}

// fillTCP reports the transport, wire and log counters of a TCP run; base
// and end bracket the ops operations the per-op figures divide by.
func fillTCP(r *run, procs []*isis.Process, groups []*isis.Group, walDir string, ops float64, base, end isis.TCPStats) {
	s := tcpTotals(procs)
	r.layer["transport.frames_per_op"] = ratio(float64(end.FramesSent-base.FramesSent), ops)
	r.layer["wire.bytes_per_op"] = ratio(float64(end.BytesSent-base.BytesSent), ops)
	r.layer["transport.reconnects"] = float64(s.Reconnects)
	r.layer["transport.frames_shed"] = float64(s.FramesShed)
	r.layer["transport.write_errors"] = float64(s.WriteErrors)
	var appends, compactions uint64
	for _, g := range groups {
		st := g.StateStats()
		appends += st.WALAppends
		compactions += st.WALCompactions
	}
	r.layer["wal.appends_per_op"] = ratio(float64(appends), ops)
	r.layer["wal.compactions"] = float64(compactions)
	r.layer["wal.dir_bytes"] = float64(dirBytes(walDir))
}

// tcpTotals sums the TCP counters the benchmark reports over procs.
func tcpTotals(procs []*isis.Process) isis.TCPStats {
	var s isis.TCPStats
	for _, p := range procs {
		x := p.TransportStats()
		s.FramesSent += x.FramesSent
		s.BytesSent += x.BytesSent
		s.Reconnects += x.Reconnects
		s.FramesShed += x.FramesShed
		s.WriteErrors += x.WriteErrors
	}
	return s
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// codecCost times the binary wire codec on frames of the workload's own
// messages, perFrame messages to a frame, the way the TCP transport encodes
// (AppendFrame into a reused buffer) and decodes (a per-connection Decoder).
// The simulated fabric never encodes, so this is the cost that workload would
// pay on a real network; only kv-tcp-wal pays it in its end-to-end numbers.
func codecCost(r *run, msgs []*types.Message, perFrame int) {
	perFrame = max(1, min(perFrame, len(msgs)))
	var frames [][]*types.Message
	for i := 0; i+perFrame <= len(msgs); i += perFrame {
		frames = append(frames, msgs[i:i+perFrame])
	}
	var buf []byte
	encoded := make([][]byte, len(frames))
	for i, f := range frames {
		encoded[i] = wire.AppendFrame(nil, f, types.NilProcess, "")
	}
	const minTime = 20 * time.Millisecond
	n := 0
	start := time.Now()
	for time.Since(start) < minTime {
		for _, f := range frames {
			buf = wire.AppendFrame(buf[:0], f, types.NilProcess, "")
			n += len(f)
		}
	}
	r.layer["wire.encode_ns_per_msg"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	var dec wire.Decoder
	n = 0
	start = time.Now()
	for time.Since(start) < minTime {
		for _, b := range encoded {
			f, err := dec.DecodeOwned(b)
			if err != nil {
				r.check(false, "wire decode of the workload's own frame: %v", err)
				return
			}
			n += len(f.Msgs)
		}
	}
	r.layer["wire.decode_ns_per_msg"] = float64(time.Since(start).Nanoseconds()) / float64(n)
}

// castMsgs builds the cast messages a sender would put on the wire for the
// given payloads (the data path of every flat-group workload).
func castMsgs(from isis.ProcessID, group string, o isis.Ordering, payloads [][]byte) []*types.Message {
	out := make([]*types.Message, len(payloads))
	for i, p := range payloads {
		seq := uint64(i + 1)
		out[i] = &types.Message{
			Kind: types.KindCast, From: from, Group: types.FlatGroup(group), View: 2,
			ID: types.MsgID{Sender: from, Seq: seq}, Ordering: o, Seq: seq, Payload: p,
		}
	}
	return out
}
