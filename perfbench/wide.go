package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/kvstore"
)

// wide-group: a 32-member flat group holding a replicated map (isis.KV) on
// the simulated network, no injected delay, no heartbeats. One generator
// goroutine alternates two senders, one putting through ABCAST (PutAsync) and
// one casting the same kind of put with FBCAST: open-loop for latency, in
// windowed floods for throughput, and in a flood that a fresh process then
// joins behind, under whatever backlog stability has not yet released. Every
// cast carries a fresh key, so a member that applied every cast exactly once
// holds exactly as many keys as casts were made.
const (
	wideName    = "bench-wide"
	wideMembers = 32
	wideWindow  = 512 // casts in flight, counted at the observing member
	// joinFlood is the flood a join follows: enough that the join meets a
	// backlog of tens of thousands of unreleased buffers, yet its heap stays
	// near 1GB (the ROADMAP's stability-backlog join; 20k casts took
	// 10-15s and 6.8GB). rateFlood is the flood throughput is timed on.
	joinFlood = 600
	rateFlood = 2000
	// Throughput cycles first cast open-loop at wideRate for wideOpen: the
	// cast latency a member sees when the group is not saturated.
	wideRate = 2000
	wideOpen = time.Second
)

type wideMember struct {
	idx    int
	proc   *isis.Process
	kv     *isis.KV
	shadow *kvstore.Store // traced run: times Store.Apply on a copy
	isObs  atomic.Bool    // set before the first flood, read on the actor goroutine
}

type wideBench struct {
	r        *run
	rt       *isis.Runtime
	members  []*wideMember
	book     *book
	casts    *castLog
	keys     []string // written keys, for gets
	pad      string
	gets     samples
	apply    samples
	views    atomic.Int64
	gen      time.Duration
	castsAll int
}

func wideGroup(r *run) {
	b := &wideBench{r: r, book: newBook(), casts: newCastLog()}
	b.pad = randomText(r, 256)
	if r.tr != nil {
		// 32 members deliver every cast; trace one cast in 15 (odd, so both
		// senders' casts are traced).
		r.tr.every = 15
	}
	// Roles: two senders, the member whose deliveries time the casts and the
	// member serving gets; none of them the coordinator.
	const senderA, senderB, observer, reader = 8, 16, 24, 31

	// Each cycle stands a fresh group up. Even cycles time casts open-loop,
	// then flood for throughput; odd cycles flood and join one process right
	// behind the flood. Fresh groups keep every join meeting the same kind
	// of backlog, and a collection between cycles keeps one cycle's garbage
	// out of the next cycle's figures.
	var setups, spawns, joins, joinMs, forwarded, unpruned, rates, cpus []float64
	var sim simDelta
	start := time.Now()
	for cycle := 0; cycle < 24 && (cycle < 4 || time.Since(start) < r.phase(0.85)); cycle++ {
		runtime.GC()
		sp, jn, err := b.setup()
		if !r.check(err == nil, "set-up: %v", err) {
			if b.rt != nil {
				b.rt.Shutdown()
			}
			return
		}
		spawns, joins = append(spawns, ms(sp)), append(joins, ms(jn))
		setups = append(setups, (sp + jn).Seconds())
		senderA, senderB, reader := b.members[senderA], b.members[senderB], b.members[reader]
		obs := b.members[observer]
		obs.isObs.Store(true)
		if cycle%2 == 0 {
			if r.tr != nil {
				// Every other throughput cycle of the traced run is
				// untraced: the two sets of flood rates give the overhead.
				r.tr.on.Store(cycle%4 == 0)
			}
			if !b.openLoop(senderA, senderB, reader, obs) {
				b.rt.Shutdown()
				return
			}
			simBase := b.rt.Stats()
			cpu0 := cpuTime()
			el, ok := b.flood(senderA, senderB, reader, obs, rateFlood)
			if !ok {
				b.rt.Shutdown()
				return
			}
			rates = append(rates, float64(rateFlood*wideMembers)/el.Seconds())
			cpus = append(cpus, us(cpuTime()-cpu0)/rateFlood)
			d := deltaOf(simBase, b.rt.Stats())
			sim.msgs, sim.frames, sim.bytes, sim.stability, sim.dropped = sim.msgs+d.msgs, sim.frames+d.frames, sim.bytes+d.bytes, sim.stability+d.stability, sim.dropped+d.dropped
		} else {
			if r.tr != nil {
				r.tr.on.Store(true)
			}
			if _, ok := b.flood(senderA, senderB, reader, obs, joinFlood); !ok {
				b.rt.Shutdown()
				return
			}
			fw0 := relSum(b.procs(), func(s isis.ReliabilityStats) uint64 { return s.Forwarded })
			unpruned = append(unpruned, b.unpruned())
			jms, ok := b.joinOnce(cycle)
			if !ok {
				b.rt.Shutdown()
				return
			}
			joinMs = append(joinMs, jms)
			forwarded = append(forwarded, float64(relSum(b.procs(), func(s isis.ReliabilityStats) uint64 { return s.Forwarded })-fw0))
		}
		b.checkMembers()
		if r.tr != nil && cycle == 1 {
			b.probes(senderA, senderB)
			fillReliability(r, b.procs())
			var groups []*isis.Group
			for _, m := range b.members {
				groups = append(groups, m.kv.Group())
			}
			fillState(r, groups)
		}
		b.rt.Shutdown()
		if len(r.errs) > 0 {
			return
		}
	}
	r.e2e["setup_s"] = median(setups)
	r.layer["isis.setup_spawn_ms"] = median(spawns)
	r.layer["isis.setup_join_ms"] = median(joins)

	raw := b.book.latencies()
	lat := samplesOf(raw).summary()
	p50, p99 := bestBlock(raw)
	issued, done := b.book.counts()
	r.attempted += issued + len(joinMs)
	r.failed += issued - done
	r.e2e["op_p50_ms"] = ms(p50)
	r.e2e["ops_s"] = median(rates)
	r.e2e["join_ms"] = lowerQuartile(joinMs)
	r.e2e["cpu_us_per_op"] = median(cpus)
	r.layer["bench.samples"] = float64(lat.n())
	if r.tr == nil {
		r.note("cast_msgs_s", median(rates), "msgs/s")
		r.note("cast_p50_ms", ms(p50), "ms")
		r.note("cast_p99_ms", ms(p99), "ms")
		r.note("cast_p50_all_ms", ms(lat.quantile(0.5)), "ms")
		r.note("join_median_ms", median(joinMs), "ms")
		r.note("join_samples", float64(len(joinMs)), "count")
		r.note("forwarded_per_join", median(forwarded), "count")
		r.note("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")
		return
	}
	var traced, plain []float64
	for i, v := range rates { // throughput flood i ran in cycle 2i
		if i%2 == 0 {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	r.layer["bench.trace_overhead_frac"] = 1 - ratio(median(traced), median(plain))
	ap := b.apply.summary()
	r.layer["kvstore.apply_us_p50"] = us(ap.quantile(0.5))
	r.layer["kvstore.apply_us_p99"] = us(ap.quantile(0.99))
	r.layer["kvstore.get_us_p99"] = us(b.gets.summary().quantile(0.99))
	extra := b.casts.report(r)
	r.note("order.abcast_extra_ms_p50", ms(extra), "ms")
	r.layer["group.view_installs"] = float64(b.views.Load())
	r.layer["bench.gen_lag_ms_max"] = ms(b.gen)
	r.layer["reliability.forwarded_per_join"] = median(forwarded)
	r.layer["reliability.unpruned_at_join"] = median(unpruned)
	fillSim(r, sim, float64(rateFlood*len(rates)))
	payloads := make([][]byte, 4096)
	for i := range payloads {
		payloads[i] = kvstore.EncodeOp(kvstore.OpPut, 0, fmt.Sprintf("w%012x", i), valueFor(uint64(i), b.pad, 16+r.rng.Intn(113)))
	}
	codecCost(r, castMsgs(isis.Site(2), wideName, isis.FBCAST, payloads), int(ratio(float64(sim.msgs), float64(sim.frames))))
	r.finishTrace()
}

func (b *wideBench) procs() []*isis.Process {
	out := make([]*isis.Process, len(b.members))
	for i, m := range b.members {
		out[i] = m.proc
	}
	return out
}

// setup spawns 32 processes and forms the group one join at a time.
func (b *wideBench) setup() (spawn, join time.Duration, err error) {
	b.rt = isis.NewSimulated(isis.WithSeed(b.r.seed))
	b.members = nil
	b.castsAll = 0
	t0 := time.Now()
	for i := 0; i < wideMembers; i++ {
		p, err := b.rt.Spawn()
		if err != nil {
			return 0, 0, err
		}
		b.members = append(b.members, &wideMember{idx: i, proc: p})
	}
	t1 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), joinWait)
	defer cancel()
	for i, m := range b.members {
		b.observe(m)
		if i == 0 {
			m.kv, err = m.proc.CreateKV(wideName, b.config(m))
		} else {
			m.kv, err = m.proc.JoinKV(ctx, wideName, b.members[0].proc.ID(), b.config(m))
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if err := awaitFine(ctx, func() bool {
		for _, m := range b.members {
			if m.kv.Group().Size() != wideMembers {
				return false
			}
		}
		return true
	}); err != nil {
		return 0, 0, fmt.Errorf("views never reached %d members: %w", wideMembers, err)
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// config completes casts at the observing member and, in the traced run,
// times Store.Apply of traced casts on a shadow map.
func (b *wideBench) config(m *wideMember) isis.GroupConfig {
	tr := b.r.tr
	return isis.GroupConfig{OnDeliver: func(d isis.Delivery) {
		if !m.isObs.Load() && tr == nil {
			return
		}
		now := time.Now()
		_, _, _, value, ok := kvstore.DecodeOp(d.Payload)
		if !ok {
			return
		}
		id, ok := idOf(value)
		if !ok {
			return
		}
		if m.isObs.Load() {
			if lat, done := b.book.complete(id, m.idx, now); done {
				tr.add(id, "op.cast", "", now.Add(-lat), now)
			}
		}
		if tr.sampled(id) {
			t := time.Now()
			m.shadow.Apply(d)
			end := time.Now()
			b.apply.add(end.Sub(t))
			tr.add(id, "kvstore.apply", "op.cast", t, end)
		}
	}}
}

func (b *wideBench) observe(m *wideMember) {
	tr := b.r.tr
	if tr == nil {
		return
	}
	m.shadow = kvstore.New()
	m.proc.ObserveGroups(isis.GroupObserver{
		OnView: func(isis.GroupID, isis.View) { b.views.Add(1) },
		OnDeliver: func(_ isis.GroupID, d isis.Delivery) {
			now := time.Now()
			_, _, _, value, ok := kvstore.DecodeOp(d.Payload)
			if !ok {
				return
			}
			if id, ok := idOf(value); ok && tr.sampled(id) {
				b.casts.delivered(id, d.Ordering == isis.ABCAST, now)
			}
		},
	})
}

// cast issues one put, alternating the ABCAST and the FBCAST sender by id,
// with a timed Get at the reader every fourth cast.
func (b *wideBench) cast(a, f, reader *wideMember, due time.Time, obs int) {
	r, tr := b.r, b.r.tr
	id := b.book.issue(due, obs)
	key := fmt.Sprintf("w%012x", id)
	value := valueFor(id, b.pad, 16+r.rng.Intn(113))
	now := time.Now()
	if tr.sampled(id) {
		b.casts.submitted(id, now)
	}
	if id%2 == 0 {
		a.kv.PutAsync(key, value)
	} else {
		f.kv.Group().CastAsync(isis.FBCAST, kvstore.EncodeOp(kvstore.OpPut, 0, key, value))
	}
	tr.add(id, "isis.CastAsync", "op.cast", now, time.Now())
	b.keys = append(b.keys, key)
	b.castsAll++
	if id%4 == 0 {
		k := b.keys[r.rng.Intn(len(b.keys))]
		t := time.Now()
		reader.kv.Get(k)
		b.gets.add(time.Since(t))
	}
}

// openLoop casts at wideRate for wideOpen, timing each cast from its due
// time to its delivery at the observing member.
func (b *wideBench) openLoop(a, f, reader, obs *wideMember) bool {
	b.book.setRecording(true)
	_, lag := openLoop(time.Now(), wideRate, wideOpen, nil, func(_ int, due time.Time) { b.cast(a, f, reader, due, obs.idx) })
	b.gen = max(b.gen, lag)
	b.book.setRecording(false)
	return b.waitApplied()
}

// flood casts n puts with at most wideWindow not yet delivered at the
// observing member, and returns the time until every member applied every
// cast.
func (b *wideBench) flood(a, f, reader, obs *wideMember, n int) (time.Duration, bool) {
	start := time.Now()
	for sent := 0; sent < n; {
		issued, done := b.book.counts()
		room := min(wideWindow-(issued-done), n-sent)
		if room <= 0 {
			t := time.Now()
			time.Sleep(20 * time.Microsecond)
			b.gen = max(b.gen, time.Since(t)-20*time.Microsecond)
			continue
		}
		for k := 0; k < room; k++ {
			b.cast(a, f, reader, time.Now(), obs.idx)
			sent++
		}
	}
	if !b.waitApplied() {
		return 0, false
	}
	return time.Since(start), true
}

// waitApplied waits until every member has applied every cast made.
func (b *wideBench) waitApplied() bool {
	deadline := time.Now().Add(joinWait)
	for {
		all := true
		for _, m := range b.members {
			if m.kv.Applied() < uint64(b.castsAll) {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return b.r.check(false, "casts never applied at every member")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// unpruned is the retransmit backlog when the join starts: every cast so far
// is buffered at every member until stability releases it.
func (b *wideBench) unpruned() float64 {
	pruned := relSum(b.procs(), func(s isis.ReliabilityStats) uint64 { return s.StablePruned })
	return max(0, float64(b.castsAll)*wideMembers-float64(pruned))
}

// joinOnce joins a fresh process right behind the flood and times it until
// its map equals the founder's. The heap guard samples throughout: the
// backlog this join meets is the memory pathology.
func (b *wideBench) joinOnce(cycle int) (float64, bool) {
	r := b.r
	p, err := b.rt.Spawn()
	if !r.check(err == nil, "join %d: spawn: %v", cycle, err) {
		return 0, false
	}
	m := &wideMember{idx: -1, proc: p}
	b.observe(m)
	ctx, cancel := context.WithTimeout(context.Background(), joinWait)
	defer cancel()
	t := time.Now()
	kv, err := p.JoinKV(ctx, wideName, b.members[0].proc.ID(), b.config(m))
	if !r.check(err == nil, "join %d: %v", cycle, err) {
		return 0, false
	}
	m.kv = kv
	want := b.members[0].kv.Digest()
	if err := awaitFine(ctx, func() bool { return kv.Digest() == want }); !r.check(err == nil, "join %d: joiner's map never matched", cycle) {
		return 0, false
	}
	el := time.Since(t)
	r.check(kv.Len() == b.castsAll, "join %d: joiner holds %d keys, %d casts were made", cycle, kv.Len(), b.castsAll)
	r.tr.event(1<<40+uint64(cycle), "isis.JoinKV", "", t, time.Now())
	return ms(el), true
}

// checkMembers is the exactly-once check: every member holds one key per
// cast made, applied each exactly once, and all maps are equal.
func (b *wideBench) checkMembers() {
	want := b.members[0].kv.Digest()
	for _, m := range b.members {
		if !b.r.check(m.kv.Len() == b.castsAll && m.kv.Applied() == uint64(b.castsAll) && m.kv.Digest() == want,
			"member %d: %d keys, %d applied, %d casts made, digest match %v",
			m.idx, m.kv.Len(), m.kv.Applied(), b.castsAll, m.kv.Digest() == want) {
			return
		}
	}
}

// probes times blocking calls in the traced run: KV.Put through the 32-member
// ABCAST path and Group.Cast of a payload the map ignores.
func (b *wideBench) probes(a, f *wideMember) {
	r := b.r
	ctx, cancel := context.WithTimeout(context.Background(), joinWait)
	defer cancel()
	var put, cast samples
	for i := 0; i < probeCalls/2; i++ {
		t := time.Now()
		if err := a.kv.Put(ctx, fmt.Sprintf("probe-%d", i%16), "v"); !r.check(err == nil, "blocking put: %v", err) {
			return
		}
		put.add(time.Since(t))
		t = time.Now()
		if err := f.kv.Group().Cast(ctx, isis.FBCAST, []byte("probe")); !r.check(err == nil, "blocking cast: %v", err) {
			return
		}
		cast.add(time.Since(t))
	}
	p, c := put.summary(), cast.summary()
	r.layer["isis.call_ms_p50"] = ms(p.quantile(0.5))
	r.layer["isis.call_ms_p99"] = ms(p.quantile(0.99))
	r.layer["group.cast_call_ms_p99"] = ms(c.quantile(0.99))
}
