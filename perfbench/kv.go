package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/kvstore"
	"repro/internal/types"
	"repro/internal/wire"
)

// The KV workloads: three isis.KV replicas. Puts are issued from a
// non-coordinator replica with PutAsync and timed from their due time to the
// issuing replica's OnDeliver (decoded with kvstore.DecodeOp); gets read the
// other follower's local map. kv-sim runs on the simulated network with no
// injected delay and the heartbeat detector on; kv-tcp-wal runs three TCP
// runtimes on loopback with a write-ahead log and the daemon-grade detector.
type kvSpec struct {
	tcp      bool
	nominal  float64   // open-loop puts/s, well below the latency knee (README.md)
	ladder   []float64 // multiples of nominal tried for the latency knee
	setups   int       // set-ups timed for setup_s (median)
	failover bool      // kv-sim phase (c): crash the sequencer, join a replacement
}

const (
	kvName     = "bench-kv"
	kvKeys     = 4096
	kvWindow   = 1024                   // saturation flood: puts in flight
	satWindow  = 250 * time.Millisecond // saturation flood: length of a measured window
	kneeLimit  = 10 * time.Millisecond  // p99 limit of the rate ladder
	probeCalls = 200                    // blocking calls timed for isis.call_ms / group.cast_call_ms
	joinWait   = 20 * time.Second
	setupGap   = 20 * time.Millisecond // pause between timed set-ups
)

func kvSim(r *run) {
	runKV(r, kvSpec{nominal: 10000, ladder: []float64{2, 3, 4, 5}, setups: 10, failover: true})
}

func kvTCPWAL(r *run) {
	runKV(r, kvSpec{tcp: true, nominal: 15000, setups: 8})
}

type kvReplica struct {
	idx    int
	proc   *isis.Process
	kv     *isis.KV
	shadow *kvstore.Store // traced run: times Store.Apply on a copy
	issued atomic.Bool    // this replica has issued puts, so its hook decodes
	dead   bool
	lastCB time.Time // end of the last OnDeliver callback (actor goroutine only)
}

type kvBench struct {
	r      *run
	spec   kvSpec
	rt     *isis.Runtime
	walDir string
	reps   []*kvReplica
	book   *book
	casts  *castLog
	issuer atomic.Pointer[kvReplica]
	reader atomic.Pointer[kvReplica]

	keys  []string
	pad   string
	gets  samples
	apply samples
	walS  samples
	views atomic.Int64
	gen   time.Duration // worst generator lateness
	probe uint64        // ids of blocking probe calls, above every put id
}

func runKV(r *run, spec kvSpec) {
	b := &kvBench{r: r, spec: spec, book: newBook(), casts: newCastLog(), probe: 1 << 40}
	b.keys = make([]string, kvKeys)
	for i := range b.keys {
		b.keys[i] = fmt.Sprintf("key-%05d", r.rng.Intn(1<<20))
	}
	b.pad = randomText(r, 256)

	if r.tr != nil {
		r.tr.every = 8
	}
	var setups, spawns, joins []float64
	for k := 0; k < spec.setups; k++ {
		if b.rt != nil {
			b.rt.Shutdown()
			// Spread the repetitions over time, so that their median samples
			// the machine's load rather than one instant of it.
			time.Sleep(setupGap)
		}
		sp, jn, err := b.setup(k)
		if !r.check(err == nil, "set-up: %v", err) {
			if b.rt != nil {
				b.rt.Shutdown()
			}
			return
		}
		spawns, joins = append(spawns, ms(sp)), append(joins, ms(jn))
		setups = append(setups, (sp + jn).Seconds())
	}
	defer b.rt.Shutdown()
	runtime.GC() // the set-ups' garbage is not the workload's
	r.e2e["setup_s"] = median(setups)
	r.layer["isis.setup_spawn_ms"] = median(spawns)
	r.layer["isis.setup_join_ms"] = median(joins)

	// Roles: the founder coordinates and sequences ABCAST, the youngest
	// follower issues puts, the other serves gets (the failover phase keeps
	// that rule as replicas come and go).
	b.issuer.Store(b.reps[2])
	b.reader.Store(b.reps[1])
	b.reps[2].issued.Store(true)

	tcpBase := isis.TCPStats{}
	var simBase = b.rt.Stats()
	if spec.tcp {
		tcpBase = tcpTotals(b.procs())
	}
	issued0, _ := b.book.counts()

	// (a) open-loop puts and gets at the nominal rate.
	nominalShare := 0.45
	if len(spec.ladder) > 0 {
		nominalShare = 0.3
	}
	b.book.setRecording(true)
	_, lag := openLoop(time.Now(), spec.nominal, r.phase(nominalShare), nil, b.issueOpen(r.rng))
	b.gen = max(b.gen, lag)
	if !b.drain(10 * time.Second) {
		return
	}
	b.book.setRecording(false)
	raw := b.book.latencies()
	lat := samplesOf(raw).summary()
	p50, p99 := bestBlock(raw)
	r.e2e["op_p50_ms"] = ms(p50)
	r.layer["bench.samples"] = float64(lat.n())
	if r.tr == nil {
		r.note("put_p50_ms", ms(p50), "ms")
		r.note("put_p99_ms", ms(p99), "ms")
		r.note("put_p50_all_ms", ms(lat.quantile(0.5)), "ms")
		r.note("put_p99_all_ms", ms(lat.quantile(0.99)), "ms")
		r.note("put_samples", float64(lat.n()), "count")
		r.note("get_p99_ms", ms(b.gets.summary().quantile(0.99)), "ms")
	}

	// Rate ladder to the latency knee: the highest rate whose p99 meets
	// kneeLimit and whose backlog drains within 100ms of the step. The ladder
	// stops at the first step that misses, so at most one step overloads the
	// replicas.
	knee := 0.0
	for _, m := range spec.ladder {
		rate := spec.nominal * m
		b.book.setRecording(true)
		_, lag := openLoop(time.Now(), rate, r.phase(0.05), nil, b.issueOpen(r.rng))
		b.gen = max(b.gen, lag)
		kept := b.waitDone(100 * time.Millisecond)
		if !b.drain(10 * time.Second) {
			return
		}
		b.book.setRecording(false)
		p99 := samplesOf(b.book.latencies()).summary().quantile(0.99)
		if r.tr == nil {
			r.note(fmt.Sprintf("ladder_%.0f_p99_ms", rate), ms(p99), "ms")
		}
		if !kept || p99 > kneeLimit {
			break
		}
		knee = rate
	}
	if len(spec.ladder) > 0 && r.tr == nil {
		r.note("put_knee_ops_s", knee, "ops/s")
	}

	// (b) closed-loop windowed flood: saturation throughput applied on
	// every replica. The traced run floods twice, untraced then traced, for
	// the tracing overhead.
	if r.tr != nil {
		r.tr.on.Store(false)
		plain, _ := b.saturate(r.phase(0.1))
		r.tr.on.Store(true)
		traced, _ := b.saturate(r.phase(0.1))
		r.layer["bench.trace_overhead_frac"] = 1 - ratio(traced, plain)
	} else {
		rate, cpu := b.saturate(r.phase(0.2))
		r.e2e["ops_s"] = rate
		r.e2e["cpu_us_per_op"] = cpu
		r.note("put_ops_s", rate, "ops/s")
	}
	if len(r.errs) > 0 {
		return
	}
	simEnd := b.rt.Stats()
	var tcpEnd isis.TCPStats
	if spec.tcp {
		tcpEnd = tcpTotals(b.procs())
	}
	issuedAB, _ := b.book.counts()
	opsAB := float64(issuedAB - issued0)
	if r.tr != nil {
		b.probes()
	}

	// (c) failures and joins.
	var joinMs []float64
	if spec.failover {
		joinMs = b.failover(r.phase(0.25))
	} else {
		joinMs = b.joinCycles(r.phase(0.25))
	}
	if len(r.errs) > 0 {
		return
	}
	r.e2e["join_ms"] = lowerQuartile(joinMs)

	// Quiesce and check: every put completed at its issuer, every live
	// replica holds the same map.
	b.drain(10 * time.Second)
	issued, done := b.book.counts()
	r.attempted += issued + len(joinMs)
	r.failed += issued - done
	b.checkDigests()

	if r.tr == nil {
		r.note("join_median_ms", median(joinMs), "ms")
		r.note("join_samples", float64(len(joinMs)), "count")
		r.note("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")
		return
	}
	// Per-layer figures of the traced run.
	ap := b.apply.summary()
	r.layer["kvstore.apply_us_p50"] = us(ap.quantile(0.5))
	r.layer["kvstore.apply_us_p99"] = us(ap.quantile(0.99))
	r.layer["kvstore.get_us_p99"] = us(b.gets.summary().quantile(0.99))
	b.casts.report(r)
	r.layer["group.view_installs"] = float64(b.views.Load())
	r.layer["bench.gen_lag_ms_max"] = ms(b.gen)
	fillReliability(r, b.procs())
	fillState(r, b.groups())
	perFrame := 1
	if spec.tcp {
		fillTCP(r, b.procs(), b.groups(), b.walDir, opsAB, tcpBase, tcpEnd)
		// The transport counts frames, not messages: estimate messages per
		// frame from bytes per frame over the encoded size of one put cast.
		one := len(wire.AppendFrame(nil, b.sampleMsgs(1), types.NilProcess, ""))
		perFrame = int(ratio(float64(tcpEnd.BytesSent-tcpBase.BytesSent), float64(tcpEnd.FramesSent-tcpBase.FramesSent)) / float64(max(one, 1)))
		r.note("wal.append_us_p99", us(b.walS.summary().quantile(0.99)), "us")
	} else {
		d := deltaOf(simBase, simEnd)
		fillSim(r, d, opsAB)
		perFrame = int(ratio(float64(d.msgs), float64(d.frames)))
	}
	codecCost(r, b.sampleMsgs(4096), perFrame)
	r.finishTrace()
}

// randomText is seed-chosen filler for values.
func randomText(r *run, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.rng.Intn(len(letters))]
	}
	return string(b)
}

// valueFor encodes the op id in the value so the completion hook can find
// the op; the rest of the value is seed-chosen filler of seed-chosen length.
func valueFor(id uint64, pad string, size int) string {
	return fmt.Sprintf("%016x", id) + pad[:size]
}

func idOf(value string) (uint64, bool) {
	if len(value) < 16 {
		return 0, false
	}
	id, err := strconv.ParseUint(value[:16], 16, 64)
	return id, err == nil
}

func (b *kvBench) procs() []*isis.Process {
	var out []*isis.Process
	for _, rep := range b.reps {
		if !rep.dead {
			out = append(out, rep.proc)
		}
	}
	return out
}

func (b *kvBench) groups() []*isis.Group {
	var out []*isis.Group
	for _, rep := range b.reps {
		if !rep.dead {
			out = append(out, rep.kv.Group())
		}
	}
	return out
}

func (b *kvBench) live() []*kvReplica {
	var out []*kvReplica
	for _, rep := range b.reps {
		if !rep.dead {
			out = append(out, rep)
		}
	}
	return out
}

// setup spawns three processes and forms the replica group; it returns the
// spawn time and the create+join time until every replica sees the full view.
func (b *kvBench) setup(k int) (spawn, join time.Duration, err error) {
	r := b.r
	opts := []isis.Option{isis.WithSeed(r.seed)}
	if b.spec.tcp {
		b.walDir = filepath.Join(r.tmp, fmt.Sprintf("wal-%d", k))
		opts = append(opts, isis.WithWAL(b.walDir),
			isis.WithDetector(isis.DetectorConfig{Interval: 100 * time.Millisecond, Timeout: time.Second}))
		b.rt = isis.NewTCP(opts...)
	} else {
		opts = append(opts, isis.WithHeartbeats())
		b.rt = isis.NewSimulated(opts...)
	}
	b.reps = nil
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		p, err := b.rt.Spawn()
		if err != nil {
			return 0, 0, err
		}
		b.reps = append(b.reps, &kvReplica{idx: i, proc: p})
	}
	t1 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), joinWait)
	defer cancel()
	for i, rep := range b.reps {
		b.observe(rep)
		if i == 0 {
			rep.kv, err = rep.proc.CreateKV(kvName, b.config(rep))
		} else {
			rep.kv, err = rep.proc.JoinKV(ctx, kvName, b.reps[0].proc.ID(), b.config(rep))
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if err := awaitFine(ctx, func() bool {
		for _, rep := range b.reps {
			if rep.kv.Group().Size() != 3 {
				return false
			}
		}
		return true
	}); err != nil {
		return 0, 0, fmt.Errorf("views never reached 3 members: %w", err)
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// observe taps a replica's group events in the traced run: view installs,
// and each traced put's delivery at this member (deliver lag and spread).
func (b *kvBench) observe(rep *kvReplica) {
	tr := b.r.tr
	if tr == nil {
		return
	}
	rep.shadow = kvstore.New()
	rep.proc.ObserveGroups(isis.GroupObserver{
		OnView: func(isis.GroupID, isis.View) { b.views.Add(1) },
		OnDeliver: func(_ isis.GroupID, d isis.Delivery) {
			now := time.Now()
			_, _, _, value, ok := kvstore.DecodeOp(d.Payload)
			if !ok {
				return
			}
			id, ok := idOf(value)
			if !ok || !tr.sampled(id) {
				return
			}
			b.casts.delivered(id, d.Ordering == isis.ABCAST, now)
			if b.spec.tcp && !rep.lastCB.IsZero() {
				// Between the application callback and the observer the
				// group appends the delivery to its write-ahead log.
				b.walS.add(now.Sub(rep.lastCB))
				tr.add(id, "wal.append", "op.put", rep.lastCB, now)
			}
		},
	})
}

// config is the replica's group configuration: its OnDeliver completes the
// replica's own puts and, in the traced run, times Store.Apply on a shadow
// copy of the map.
func (b *kvBench) config(rep *kvReplica) isis.GroupConfig {
	tr := b.r.tr
	return isis.GroupConfig{OnDeliver: func(d isis.Delivery) {
		if !rep.issued.Load() && tr == nil {
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
		if lat, done := b.book.complete(id, rep.idx, now); done && tr.sampled(id) {
			tr.add(id, "op.put", "", now.Add(-lat), now)
		}
		if tr.sampled(id) {
			t := time.Now()
			rep.shadow.Apply(d)
			end := time.Now()
			b.apply.add(end.Sub(t))
			tr.add(id, "kvstore.apply", "op.put", t, end)
			rep.lastCB = end
		}
	}}
}

// issueOpen returns the open-loop issue function: one PutAsync from the
// current issuer, and with probability 1/2 a timed Get at the reader.
func (b *kvBench) issueOpen(rng *rand.Rand) func(int, time.Time) {
	tr := b.r.tr
	return func(_ int, due time.Time) {
		iss := b.issuer.Load()
		id := b.book.issue(due, iss.idx)
		key := b.keys[rng.Intn(len(b.keys))]
		value := valueFor(id, b.pad, 16+rng.Intn(225))
		t := time.Now()
		iss.kv.PutAsync(key, value)
		if tr.sampled(id) {
			tr.add(id, "isis.PutAsync", "op.put", t, time.Now())
			b.casts.submitted(id, t)
		}
		if rng.Intn(2) == 0 {
			rd := b.reader.Load()
			k := b.keys[rng.Intn(len(b.keys))]
			t := time.Now()
			rd.kv.Get(k)
			b.gets.add(time.Since(t))
		}
	}
}

// waitDone waits up to d for every issued put to complete.
func (b *kvBench) waitDone(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		issued, done := b.book.counts()
		if done >= issued {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// drain is waitDone that records a failure on timeout.
func (b *kvBench) drain(d time.Duration) bool {
	ok := b.waitDone(d)
	issued, done := b.book.counts()
	return b.r.check(ok, "%d of %d puts never completed at their issuer", issued-done, issued)
}

// saturate floods puts from the issuer with at most kvWindow in flight for
// d, then waits until every live replica has applied them all. It cuts the
// flood into windows of satWindow and returns the median window's rate (puts
// applied on every replica per second) and process CPU per put applied.
func (b *kvBench) saturate(d time.Duration) (rate, cpuPerOp float64) {
	iss := b.issuer.Load()
	reps := b.live()
	base := make([]uint64, len(reps))
	for i, rep := range reps {
		base[i] = rep.kv.Applied()
	}
	// Every live replica must have caught up before the base counts mean
	// anything: wait until they agree.
	if !b.waitApplied(reps, base, 0) {
		return 0, 0
	}
	for i, rep := range reps {
		base[i] = rep.kv.Applied()
	}
	applied := func() float64 { // puts applied on every replica so far
		lo := ^uint64(0)
		for i, rep := range reps {
			lo = min(lo, rep.kv.Applied()-base[i])
		}
		return float64(lo)
	}
	rng := b.r.rng
	sent := 0
	start := time.Now()
	cpuBase := cpuTime()
	mark, markOps, markCPU := start, 0.0, cpuBase
	var rates, cpus []float64
	for time.Since(start) < d {
		if now := time.Now(); now.Sub(mark) >= satWindow {
			ops, cpu := applied(), cpuTime()
			rates = append(rates, (ops-markOps)/now.Sub(mark).Seconds())
			if ops > markOps {
				cpus = append(cpus, us(cpu-markCPU)/(ops-markOps))
			}
			mark, markOps, markCPU = now, ops, cpu
		}
		issued, done := b.book.counts()
		room := kvWindow - (issued - done)
		if room <= 0 {
			b.nap(20 * time.Microsecond)
			continue
		}
		for k := 0; k < room; k++ {
			id := b.book.issue(time.Now(), iss.idx)
			iss.kv.PutAsync(b.keys[rng.Intn(len(b.keys))], valueFor(id, b.pad, 16+rng.Intn(225)))
			sent++
		}
	}
	if !b.waitApplied(reps, base, uint64(sent)) {
		return 0, 0
	}
	whole := float64(sent) / time.Since(start).Seconds()
	if b.r.tr == nil {
		b.r.note("put_ops_s_whole_flood", whole, "ops/s")
	}
	if len(rates) == 0 { // a flood shorter than one window
		return whole, us(cpuTime()-cpuBase) / float64(sent)
	}
	return median(rates), median(cpus)
}

// waitApplied waits until every replica has applied base+n operations (n=0:
// until all replicas have applied as many as the most advanced one).
func (b *kvBench) waitApplied(reps []*kvReplica, base []uint64, n uint64) bool {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var lo, hi uint64 = ^uint64(0), 0
		ok := true
		for i, rep := range reps {
			a := rep.kv.Applied()
			lo, hi = min(lo, a), max(hi, a)
			if n > 0 && a < base[i]+n {
				ok = false
			}
		}
		if n == 0 {
			ok = lo == hi && b.waitDone(0)
		}
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return b.r.check(false, "replicas never applied the flood (applied %d..%d)", lo, hi)
		}
		b.nap(50 * time.Microsecond)
	}
}

// nap sleeps and records how far the sleep overshot: the closed-loop
// generator's lateness.
func (b *kvBench) nap(d time.Duration) {
	t := time.Now()
	time.Sleep(d)
	if late := time.Since(t) - d; late > b.gen {
		b.gen = late
	}
}

// probes times blocking calls in the traced run: KV.Put (isis.call_ms) and
// Group.Cast of a payload the map ignores (group.cast_call_ms).
func (b *kvBench) probes() {
	r, tr := b.r, b.r.tr
	iss := b.issuer.Load()
	ctx, cancel := context.WithTimeout(context.Background(), joinWait)
	defer cancel()
	var put, cast samples
	for i := 0; i < probeCalls; i++ {
		b.probe++
		t := time.Now()
		err := iss.kv.Put(ctx, fmt.Sprintf("probe-%d", i%16), valueFor(b.probe, b.pad, 16))
		if !r.check(err == nil, "blocking put: %v", err) {
			return
		}
		put.add(time.Since(t))
		tr.event(b.probe, "isis.Put", "", t, time.Now())
		t = time.Now()
		err = iss.kv.Group().Cast(ctx, isis.FBCAST, []byte("probe"))
		if !r.check(err == nil, "blocking cast: %v", err) {
			return
		}
		cast.add(time.Since(t))
	}
	p, c := put.summary(), cast.summary()
	r.layer["isis.call_ms_p50"] = ms(p.quantile(0.5))
	r.layer["isis.call_ms_p99"] = ms(p.quantile(0.99))
	r.layer["group.cast_call_ms_p99"] = ms(c.quantile(0.99))
}

// failover is kv-sim phase (c): under continuing open-loop puts, crash the
// coordinator (the ABCAST sequencer) and join a fresh replica, cycle after
// cycle. It returns each join's time; the failover gaps are noted.
func (b *kvBench) failover(d time.Duration) []float64 {
	r, tr := b.r, b.r.tr
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	rng := r.rng
	go func() {
		defer wg.Done()
		_, lag := openLoop(time.Now(), b.spec.nominal, time.Hour, stop.Load, b.issueOpen(rng))
		b.gen = max(b.gen, lag)
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	var joins, gaps, evicts []float64
	var forwarded, unpruned []float64
	b.book.setGapTracking(true)
	defer b.book.setGapTracking(false)
	start := time.Now()
	for cycle := 0; cycle < 48 && (cycle < 2 || time.Since(start) < d); cycle++ {
		live := b.live()
		coordID := live[0].kv.Group().Coordinator()
		var coord *kvReplica
		var followers []*kvReplica
		for _, rep := range live {
			if rep.proc.ID() == coordID {
				coord = rep
			} else {
				followers = append(followers, rep)
			}
		}
		if !r.check(coord != nil && len(followers) == 2, "cycle %d: no coordinator among the live replicas", cycle) {
			return nil
		}
		// Issue from the youngest follower, read at the other; give the
		// previous issuer's puts time to complete before its crash.
		iss, rd := followers[1], followers[0]
		iss.issued.Store(true)
		b.issuer.Store(iss)
		b.reader.Store(rd)
		time.Sleep(50 * time.Millisecond)

		crashAt := time.Now()
		b.rt.Crash(coord.proc)
		tr.event(b.probe+uint64(cycle), "isis.Crash", "group.evict", crashAt, time.Now())
		coord.dead = true
		ctx, cancel := context.WithTimeout(context.Background(), joinWait)
		err := awaitFine(ctx, func() bool {
			for _, rep := range followers {
				if rep.kv.Group().CurrentView().Contains(coord.proc.ID()) {
					return false
				}
			}
			return true
		})
		cancel()
		if !r.check(err == nil, "cycle %d: survivors never evicted the crashed sequencer", cycle) {
			return nil
		}
		evicts = append(evicts, ms(time.Since(crashAt)))
		tr.event(b.probe+uint64(cycle), "group.evict", "", crashAt, time.Now())
		time.Sleep(20 * time.Millisecond)

		p, err := b.rt.Spawn()
		if !r.check(err == nil, "cycle %d: spawn: %v", cycle, err) {
			return nil
		}
		rep := &kvReplica{idx: len(b.reps), proc: p}
		b.observe(rep)
		fw0 := relSum(b.procs(), func(s isis.ReliabilityStats) uint64 { return s.Forwarded })
		if cycle == 0 {
			// Only the first join meets survivors that buffered every cast;
			// later ones follow crashes whose counters are lost.
			unpruned = append(unpruned, b.unpruned())
		}
		joinAt := time.Now()
		gaps = append(gaps, ms(b.book.longestGap(crashAt, joinAt)))
		jms, err := b.join(rep, iss, false)
		if !r.check(err == nil, "cycle %d: join: %v", cycle, err) {
			return nil
		}
		joins = append(joins, jms)
		forwarded = append(forwarded, float64(relSum(b.procs(), func(s isis.ReliabilityStats) uint64 { return s.Forwarded })-fw0))
	}
	if tr == nil {
		r.note("failover_gap_ms", median(gaps), "ms")
		r.note("failover_cycles", float64(len(gaps)), "count")
	} else {
		r.note("group.evict_ms", median(evicts), "ms")
		r.layer["reliability.forwarded_per_join"] = median(forwarded)
		r.layer["reliability.unpruned_at_join"] = median(unpruned)
	}
	return joins
}

// joinCycles is kv-tcp-wal's join phase, with the load stopped: a fresh
// replica joins, is timed until its map equals the coordinator's, and
// leaves again.
func (b *kvBench) joinCycles(d time.Duration) []float64 {
	r := b.r
	var joins, forwarded, unpruned []float64
	start := time.Now()
	for cycle := 0; cycle < 48 && (cycle < 2 || time.Since(start) < d); cycle++ {
		p, err := b.rt.Spawn()
		if !r.check(err == nil, "join cycle %d: spawn: %v", cycle, err) {
			return nil
		}
		rep := &kvReplica{idx: len(b.reps), proc: p}
		b.observe(rep)
		fw0 := relSum(b.procs(), func(s isis.ReliabilityStats) uint64 { return s.Forwarded })
		unpruned = append(unpruned, b.unpruned())
		jms, err := b.join(rep, b.reps[0], true)
		if !r.check(err == nil, "join cycle %d: %v", cycle, err) {
			return nil
		}
		joins = append(joins, jms)
		forwarded = append(forwarded, float64(relSum(b.procs(), func(s isis.ReliabilityStats) uint64 { return s.Forwarded })-fw0))
		ctx, cancel := context.WithTimeout(context.Background(), joinWait)
		err = rep.kv.Group().Leave(ctx)
		cancel()
		if !r.check(err == nil, "join cycle %d: leave: %v", cycle, err) {
			return nil
		}
		rep.proc.Stop()
		rep.dead = true
	}
	if r.tr != nil {
		r.layer["reliability.forwarded_per_join"] = median(forwarded)
		r.layer["reliability.unpruned_at_join"] = median(unpruned)
	}
	return joins
}

// join adds rep to the map through contact and returns the time in ms from
// the JoinKV call until the joiner holds the group's state: its checkpoint
// restored (under load) or, with quiet set, its map equal to the contact's.
func (b *kvBench) join(rep *kvReplica, contact *kvReplica, quiet bool) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), joinWait)
	defer cancel()
	t := time.Now()
	kv, err := rep.proc.JoinKV(ctx, kvName, contact.proc.ID(), b.config(rep))
	if err != nil {
		return 0, err
	}
	rep.kv = kv
	b.reps = append(b.reps, rep)
	err = awaitFine(ctx, func() bool {
		if quiet {
			return kv.Digest() == contact.kv.Digest()
		}
		return kv.Group().StateStats().Restores > 0
	})
	if err != nil {
		return 0, fmt.Errorf("joiner never held the group's state: %w", err)
	}
	el := time.Since(t)
	b.r.tr.event(b.probe+1<<20+uint64(rep.idx), "isis.JoinKV", "", t, time.Now())
	return ms(el), nil
}

// unpruned is the retransmit backlog when a join starts: casts the group
// has carried times its members, less the buffers stability released.
func (b *kvBench) unpruned() float64 {
	issued, _ := b.book.counts()
	live := b.live()
	pruned := relSum(b.procs(), func(s isis.ReliabilityStats) uint64 { return s.StablePruned })
	return max(0, float64(issued)*float64(len(live))-float64(pruned))
}

// checkDigests waits for every live replica to hold the same map.
func (b *kvBench) checkDigests() {
	live := b.live()
	ctx, cancel := context.WithTimeout(context.Background(), joinWait)
	defer cancel()
	err := isis.Await(ctx, func() bool {
		want := live[0].kv.Digest()
		for _, rep := range live[1:] {
			if rep.kv.Digest() != want {
				return false
			}
		}
		return true
	})
	b.r.check(err == nil, "replica digests differ after quiesce")
}

// sampleMsgs builds n put casts like the workload's, for the codec timing.
func (b *kvBench) sampleMsgs(n int) []*types.Message {
	rng := b.r.rng
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = kvstore.EncodeOp(kvstore.OpPut, uint64(i), b.keys[rng.Intn(len(b.keys))], valueFor(uint64(i), b.pad, 16+rng.Intn(225)))
	}
	return castMsgs(b.reps[0].proc.ID(), kvName, isis.ABCAST, payloads)
}

// awaitFine is isis.Await with a finer poll, for joins that finish in a
// few milliseconds.
func awaitFine(ctx context.Context, cond func() bool) error {
	for !cond() {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
