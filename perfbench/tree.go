package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	isis "repro"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/types"
)

// service-tree: the paper's hierarchical group. 64 members on the simulated
// network (no injected delay) with fanout 8 and resiliency 3. Every member
// holds a map that whole-group broadcasts update (the trading-room pattern:
// quotes broadcast to every server, clients read any one); leaf coordinators
// answer requests by reading it. Windows of a client's closed
// ServiceClient.Request loop alternate with windows of one member's closed
// Service.Broadcast loop; then fresh members join.
const (
	svcName     = "bench-svc"
	svcMembers  = 64
	svcKeys     = 1024
	svcTimeout  = 10 * time.Second
	treeWindow  = 500 * time.Millisecond // a measured window of the request loop
	treeJoins   = 12                     // members joined after the request loop
	treeJoinGap = 100 * time.Millisecond // pause before each join
)

type svcMember struct {
	proc  *isis.Process
	svc   *isis.Service
	store *kvstore.Store
}

type treeBench struct {
	r       *run
	rt      *isis.Runtime
	members []*svcMember
	client  *isis.ServiceClient
	clientP *isis.Process
	keys    []string
	pad     string
	casts   *castLog // LeafCast probes, submit -> each leaf member
	bcastS  samples  // per-member broadcast delivery lag
	bsubmit sync.Map // broadcast id -> submit time (traced run)
	gets    samples
	apply   samples
}

func serviceTree(r *run) {
	b := &treeBench{r: r, casts: newCastLog()}
	b.keys = make([]string, svcKeys)
	for i := range b.keys {
		b.keys[i] = fmt.Sprintf("quote-%05d", r.rng.Intn(1<<20))
	}
	b.pad = randomText(r, 256)
	var setups, spawns, joins []float64
	for k := 0; k < 8; k++ {
		if b.rt != nil {
			b.rt.Shutdown()
			time.Sleep(setupGap)
		}
		sp, jn, err := b.setup()
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
	r.e2e["setup_s"] = median(setups)
	r.layer["isis.setup_spawn_ms"] = median(spawns)
	r.layer["isis.setup_join_ms"] = median(joins)
	// The broadcasting member sits in the second leaf, away from the leader.
	caster := b.members[9]

	// Request windows and broadcast windows alternate. The traced run
	// traces its second half only; the two halves' request rates give the
	// tracing overhead.
	runtime.GC() // the set-ups' garbage is not the workload's
	var t treeTotals
	agents0 := b.agentStats()
	s0 := b.rt.Stats()
	halves := 1
	if r.tr != nil {
		halves = 2
	}
	var halfRates []float64
	for h := 0; h < halves; h++ {
		if r.tr != nil {
			r.tr.on.Store(h == 1)
		}
		n := len(t.reqRates)
		if !b.alternate(r.phase(0.7/float64(halves)), caster, &t) {
			return
		}
		halfRates = append(halfRates, median(t.reqRates[n:]))
	}
	// A closed loop's best block is its luckiest stretch, not the code's
	// floor: across seeds the whole run's percentiles were the steadier
	// figure here (bestBlock serves the open loops).
	rq, bc := t.reqLat.summary(), t.bcastLat.summary()
	p50, p99 := rq.quantile(0.5), rq.quantile(0.99)
	r.e2e["op_p50_ms"] = ms(p50)
	r.e2e["ops_s"] = median(t.reqRates)
	r.e2e["cpu_us_per_op"] = median(t.reqCPU)
	r.layer["bench.samples"] = float64(len(t.reqLat.d))
	r.layer["bench.gen_lag_ms_max"] = max(ms(t.gen), 1e-6)
	r.layer["isis.call_ms_p50"] = ms(bc.quantile(0.5))
	r.layer["isis.call_ms_p99"] = ms(bc.quantile(0.99))
	r.attempted += t.reqs + t.bcasts
	if r.tr != nil {
		r.layer["bench.trace_overhead_frac"] = 1 - ratio(halfRates[1], halfRates[0])
		r.layer["core.msgs_per_req"] = ratio(float64(t.reqMsgs), float64(t.reqs))
		r.layer["treecast.msgs_per_bcast"] = ratio(float64(t.bcastMsgs), float64(t.bcasts))
		b.hierarchyCounters(agents0, t.reqs)
		fillSim(r, deltaOf(s0, b.rt.Stats()), float64(t.reqs+t.bcasts))
		b.probes(caster)
	}

	// Joins are spaced out, so that their quartile samples the machine's load
	// over seconds rather than one instant of it.
	var joinMs []float64
	for cycle := 0; cycle < treeJoins; cycle++ {
		time.Sleep(treeJoinGap)
		jms, ok := b.joinOnce()
		if !ok {
			return
		}
		joinMs = append(joinMs, jms)
	}
	r.e2e["join_ms"] = lowerQuartile(joinMs)
	r.attempted += len(joinMs)
	b.checkCoverage(caster)

	if r.tr == nil {
		r.note("req_p50_ms", ms(p50), "ms")
		r.note("req_p99_ms", ms(p99), "ms")
		r.note("req_samples", float64(rq.n()), "count")
		r.note("join_median_ms", median(joinMs), "ms")
		r.note("bcast_p50_ms", ms(bc.quantile(0.5)), "ms")
		r.note("bcast_samples", float64(bc.n()), "count")
		r.note("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")
		return
	}
	r.note("treecast.bcast_p99_ms", ms(bc.quantile(0.99)), "ms")
	r.note("treecast.deliver_lag_ms_p99", ms(b.bcastS.summary().quantile(0.99)), "ms")
	ap := b.apply.summary()
	r.layer["kvstore.apply_us_p50"] = us(ap.quantile(0.5))
	r.layer["kvstore.apply_us_p99"] = us(ap.quantile(0.99))
	r.layer["kvstore.get_us_p99"] = us(b.gets.summary().quantile(0.99))
	b.casts.report(r)
	var groups []*isis.Group
	views := 0
	for _, m := range b.members {
		if leaf := m.svc.Leaf(); leaf != nil {
			groups = append(groups, leaf)
			views += int(leaf.CurrentView().ID)
		}
	}
	// A leaf's view id counts the installs of that leaf group.
	r.layer["group.view_installs"] = float64(views)
	fillState(r, groups)
	fillReliability(r, b.procs())
	var naks uint64
	for _, m := range b.members {
		naks += m.svc.RecoveryStats().NaksSent
	}
	r.layer["treecast.naks"] = float64(naks)
	r.layer["treecast.depth"] = float64(b.members[0].svc.Tree().Depth())
	r.finishTrace()
}

func (b *treeBench) procs() []*isis.Process {
	out := make([]*isis.Process, len(b.members))
	for i, m := range b.members {
		out[i] = m.proc
	}
	return out
}

// config is one member's service configuration.
func (b *treeBench) config(m *svcMember) isis.ServiceConfig {
	tr := b.r.tr
	return isis.ServiceConfig{
		State: m.store,
		RequestHandler: func(p []byte) []byte {
			// Request payload: 16 hex digits of id, then the key to read.
			t := time.Now()
			v, _ := m.store.Get(string(p[min(16, len(p)):]))
			end := time.Now()
			b.gets.add(end.Sub(t))
			if id, ok := idOf(string(p)); ok {
				tr.add(id, "core.handle", "op.request", t, end)
			}
			out := make([]byte, 0, len(p)+1+len(v))
			return append(append(append(out, p...), '='), v...)
		},
		OnBroadcast: func(p []byte) {
			t := time.Now()
			m.store.Apply(isis.Delivery{Payload: p})
			end := time.Now()
			if tr == nil {
				return
			}
			_, _, _, value, ok := kvstore.DecodeOp(p)
			if !ok {
				return
			}
			if id, ok := idOf(value); ok && tr.sampled(id) {
				b.apply.add(end.Sub(t))
				tr.add(id, "kvstore.apply", "isis.Broadcast", t, end)
				if s, ok := b.bsubmit.Load(id); ok {
					b.bcastS.add(t.Sub(s.(time.Time)))
				}
			}
		},
		OnLeafDeliver: func(_ isis.ProcessID, p []byte) {
			if id, ok := idOf(string(p)); ok && tr.sampled(id) {
				b.casts.delivered(id, false, time.Now())
			}
		},
	}
}

// setup spawns the members and the client's process, founds the service and
// joins the members one by one until the leader's tree counts all of them.
func (b *treeBench) setup() (spawn, join time.Duration, err error) {
	b.rt = isis.NewSimulated(isis.WithSeed(b.r.seed), isis.WithFanout(8), isis.WithResiliency(3))
	b.members = nil
	t0 := time.Now()
	for i := 0; i < svcMembers; i++ {
		p, err := b.rt.Spawn()
		if err != nil {
			return 0, 0, err
		}
		b.members = append(b.members, &svcMember{proc: p, store: kvstore.New()})
	}
	if b.clientP, err = b.rt.Spawn(); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 4*svcTimeout)
	defer cancel()
	for i, m := range b.members {
		if i == 0 {
			m.svc, err = m.proc.CreateService(svcName, b.config(m))
		} else {
			m.svc, err = m.proc.JoinService(ctx, svcName, b.members[0].proc.ID(), b.config(m))
		}
		if err != nil {
			return 0, 0, fmt.Errorf("member %d: %w", i, err)
		}
	}
	if err := awaitFine(ctx, func() bool { return b.members[0].svc.Tree().TotalMembers() == svcMembers }); err != nil {
		return 0, 0, fmt.Errorf("the leader's tree counts %d of %d members: %w", b.members[0].svc.Tree().TotalMembers(), svcMembers, err)
	}
	b.client = b.clientP.NewServiceClient(svcName, b.members[0].proc.ID())
	return t1.Sub(t0), time.Since(t1), nil
}

// treeTotals accumulates the alternating windows of service-tree.
type treeTotals struct {
	reqLat, bcastLat samples   // in completion order
	reqRates, reqCPU []float64 // per request window: requests/s, CPU us per request
	reqs, bcasts     int
	reqMsgs          uint64 // fabric messages sent during request windows
	bcastMsgs        uint64 // and during broadcast windows
	gen              time.Duration
	nextReq          uint64
	nextBcast        uint64
}

// alternate runs, for d, a request window (the client's closed request
// loop) then a broadcast window (the caster's closed broadcast loop), each
// treeWindow long, so every window's fabric messages and CPU belong to one
// kind of operation and its mix cannot drift between runs.
func (b *treeBench) alternate(d time.Duration, caster *svcMember, t *treeTotals) bool {
	r, tr := b.r, b.r.tr
	check := func(ok bool, format string, args ...any) bool { return r.check(ok, format, args...) }
	for start := time.Now(); time.Since(start) < d; {
		s0, cpu0, w0, n0 := b.rt.Stats(), cpuTime(), time.Now(), t.reqs
		last := time.Time{}
		for time.Since(w0) < treeWindow {
			id := t.nextReq
			t.nextReq++
			payload := []byte(fmt.Sprintf("%016x", id) + b.keys[r.rng.Intn(len(b.keys))])
			ctx, cancel := context.WithTimeout(context.Background(), svcTimeout)
			t0 := time.Now()
			if !last.IsZero() {
				t.gen = max(t.gen, t0.Sub(last))
			}
			reply, err := b.client.Request(ctx, payload)
			cancel()
			last = time.Now()
			if !check(err == nil && bytes.HasPrefix(reply, append(payload, '=')), "request %x: reply %q, err %v", id, reply, err) {
				return false
			}
			t.reqLat.add(last.Sub(t0))
			tr.add(id, "op.request", "", t0, last)
			t.reqs++
		}
		s1, el := b.rt.Stats(), time.Since(w0)
		t.reqMsgs += s1.MessagesSent - s0.MessagesSent
		if n := t.reqs - n0; n > 0 {
			t.reqRates = append(t.reqRates, float64(n)/el.Seconds())
			t.reqCPU = append(t.reqCPU, us(cpuTime()-cpu0)/float64(n))
		}
		for w1 := time.Now(); time.Since(w1) < treeWindow; {
			id := 1<<40 + t.nextBcast
			t.nextBcast++
			payload := kvstore.EncodeOp(kvstore.OpPut, 0, b.keys[r.rng.Intn(len(b.keys))], valueFor(id, b.pad, 16+r.rng.Intn(113)))
			ctx, cancel := context.WithTimeout(context.Background(), svcTimeout)
			t0 := time.Now()
			if tr.sampled(id) {
				b.bsubmit.Store(id, t0)
			}
			covered, err := caster.svc.Broadcast(ctx, payload)
			cancel()
			end := time.Now()
			if !check(err == nil && covered >= svcMembers, "broadcast %x covered %d of %d members, err %v", id, covered, svcMembers, err) {
				return false
			}
			t.bcastLat.add(end.Sub(t0))
			tr.add(id, "isis.Broadcast", "", t0, end)
			t.bcasts++
		}
		t.bcastMsgs += b.rt.Stats().MessagesSent - s1.MessagesSent
	}
	return true
}

// hierarchyCounters reports the hierarchy's own counters: cohort copies
// per request since agents0, and the request load across leaf coordinators.
func (b *treeBench) hierarchyCounters(agents0 []core.Stats, reqs int) {
	r := b.r
	agents1 := b.agentStats()
	var copies uint64
	for i := range agents1 {
		copies += agents1[i].CohortCopies - agents0[i].CohortCopies
	}
	r.layer["core.cohort_copies_per_req"] = ratio(float64(copies), float64(reqs))
	byPID := map[isis.ProcessID]uint64{}
	for i, m := range b.members {
		byPID[m.proc.ID()] = agents1[i].RequestsHandled
	}
	var sum, top float64
	tree := b.members[0].svc.Tree()
	for _, leaf := range tree.Leaves {
		h := float64(byPID[leaf.Coordinator()])
		sum += h
		top = max(top, h)
	}
	r.layer["core.leaf_load_max_over_mean"] = ratio(top, sum/float64(max(1, len(tree.Leaves))))
}

func (b *treeBench) agentStats() []core.Stats {
	out := make([]core.Stats, len(b.members))
	for i, m := range b.members {
		out[i] = m.svc.Stats()
	}
	return out
}

// probes times blocking leaf casts (Service.LeafCast) and follows each to
// every member of the caster's leaf.
func (b *treeBench) probes(caster *svcMember) {
	r := b.r
	ctx, cancel := context.WithTimeout(context.Background(), svcTimeout)
	defer cancel()
	var cast samples
	for i := 0; i < probeCalls; i++ {
		id := uint64(5)<<40 + uint64(i)
		t := time.Now()
		b.casts.submitted(id, t)
		if err := caster.svc.LeafCast(ctx, []byte(fmt.Sprintf("%016x", id))); !r.check(err == nil, "leaf cast: %v", err) {
			return
		}
		cast.add(time.Since(t))
	}
	r.layer["group.cast_call_ms_p99"] = ms(cast.summary().quantile(0.99))
	// A wire frame of routed requests, like the client sends.
	msgs := make([]*types.Message, 1024)
	for i := range msgs {
		msgs[i] = &types.Message{Kind: types.KindHRoute, From: b.clientP.ID(), To: b.members[0].proc.ID(),
			Group: types.BranchGroup(svcName), Corr: uint64(i + 1),
			Payload: []byte(fmt.Sprintf("%016x", i) + b.keys[i%len(b.keys)])}
	}
	codecCost(r, msgs, 1)
}

// joinOnce adds a fresh member and times it from JoinService until the
// leader's tree counts it. The joiner's map is not part of the figure: with
// every leaf full, a joiner founds a new leaf, and a new leaf starts without
// application state (no leaf checkpoint holds the earlier broadcasts).
func (b *treeBench) joinOnce() (float64, bool) {
	r := b.r
	p, err := b.rt.Spawn()
	if !r.check(err == nil, "spawn: %v", err) {
		return 0, false
	}
	m := &svcMember{proc: p, store: kvstore.New()}
	ctx, cancel := context.WithTimeout(context.Background(), svcTimeout)
	defer cancel()
	n := len(b.members) + 1
	t := time.Now()
	svc, err := p.JoinService(ctx, svcName, b.members[0].proc.ID(), b.config(m))
	if !r.check(err == nil, "join: %v", err) {
		return 0, false
	}
	m.svc = svc
	if err := awaitFine(ctx, func() bool { return b.members[0].svc.Tree().TotalMembers() == n }); !r.check(err == nil, "tree never counted the joiner") {
		return 0, false
	}
	el := time.Since(t)
	b.members = append(b.members, m)
	r.tr.event(1<<50+uint64(n), "isis.JoinService", "", t, time.Now())
	return ms(el), true
}

// checkCoverage is the broadcast correctness gate after the joins: one more
// broadcast must cover every member and reach every joiner, and the
// original members' maps must be equal.
func (b *treeBench) checkCoverage(caster *svcMember) {
	r := b.r
	n := len(b.members)
	ctx, cancel := context.WithTimeout(context.Background(), svcTimeout)
	defer cancel()
	if err := isis.Await(ctx, func() bool { return b.members[0].svc.Tree().TotalMembers() == n }); !r.check(err == nil, "tree never counted the %d members", n) {
		return
	}
	covered, err := caster.svc.Broadcast(ctx, kvstore.EncodeOp(kvstore.OpPut, 0, b.keys[0], "final"))
	if !r.check(err == nil && covered == n, "final broadcast covered %d of %d members (err %v)", covered, n, err) {
		return
	}
	err = isis.Await(ctx, func() bool {
		want := b.members[0].store.Digest()
		for i, m := range b.members {
			if v, _ := m.store.Get(b.keys[0]); v != "final" || (i < svcMembers && m.store.Digest() != want) {
				return false
			}
		}
		return true
	})
	r.check(err == nil, "member maps differ after the final broadcast")
}
