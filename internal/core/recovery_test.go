package core_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	isis "repro"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/types"
)

// The tests in this file drive the hierarchy recovery layer directly:
// representative failover when a stage's first contact is silently dead,
// NAK/retransmit repair of a dropped inter-leaf treecast frame, and client
// re-routing away from a crashed cached server. "Silently dead" is modelled
// by stopping only the node actor (not the fabric port), so sends to the
// victim succeed and vanish — the hard case that synchronous send errors
// never reveal.

// deliveryLog records tree-broadcast deliveries per process.
type deliveryLog struct {
	mu    sync.Mutex
	seen  []map[string]int
	total int
}

func newDeliveryLog(n int) *deliveryLog {
	l := &deliveryLog{seen: make([]map[string]int, n)}
	for i := range l.seen {
		l.seen[i] = make(map[string]int)
	}
	return l
}

func (l *deliveryLog) record(i int, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen[i][string(payload)]++
	l.total++
}

func (l *deliveryLog) count(i int, payload string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[i][payload]
}

// recoveryCfg is a service config with the recovery timer fast enough for
// test timescales.
func recoveryCfg(fanout, resiliency int, log *deliveryLog, i int) core.Config {
	return core.Config{
		Fanout:           fanout,
		Resiliency:       resiliency,
		OpTimeout:        2 * time.Second,
		RecoveryInterval: 10 * time.Millisecond,
		NakTicks:         1,
		StageRetryTicks:  2,
		StageRetries:     5,
		RequestHandler: func(p []byte) []byte {
			return append([]byte("echo:"), p...)
		},
		OnBroadcast: func(p []byte) { log.record(i, p) },
	}
}

// leafKeyOf groups the agents by their current leaf.
func leavesByKey(agents []*core.Agent) map[string][]int {
	out := make(map[string][]int)
	for i, a := range agents {
		key := a.LeafID().Key()
		out[key] = append(out[key], i)
	}
	return out
}

func waitDelivered(t *testing.T, log *deliveryLog, members []int, payload string, deadline time.Duration) {
	t.Helper()
	until := time.Now().Add(deadline)
	for {
		missing := -1
		for _, i := range members {
			if log.count(i, payload) == 0 {
				missing = i
				break
			}
		}
		if missing < 0 {
			return
		}
		if time.Now().After(until) {
			t.Fatalf("member %d never delivered %q", missing, payload)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBroadcastSurvivesDeadRepresentative proves the satellite fix: a stage
// whose first contact (the leaf coordinator, per the leader's plan) is
// silently dead must fail over to the next contact instead of stalling the
// subtree forever.
func TestBroadcastSurvivesDeadRepresentative(t *testing.T) {
	const n = 9
	_, procs := spawn(t, n)
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		return recoveryCfg(3, 2, log, i)
	})

	// Pick a victim leaf that does not contain the initiator, and kill its
	// coordinator the silent way: the node actor stops, the fabric port
	// stays attached, so stage frames to it are accepted and vanish.
	founderLeaf := agents[0].LeafID().Key()
	var victim = -1
	for key, members := range leavesByKey(agents) {
		if key == founderLeaf {
			continue
		}
		coord := agents[members[0]].Leaf().CurrentView().Coordinator()
		for _, i := range members {
			if procs[i].ID() == coord {
				victim = i
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no victim leaf found")
	}
	procs[victim].Stop()

	covered, err := agents[0].Broadcast(ctxT(t), []byte("b1"))
	if err != nil {
		t.Fatalf("broadcast with dead representative: %v", err)
	}
	if covered < n-1 {
		t.Errorf("covered = %d, want at least %d", covered, n-1)
	}
	var live []int
	for i := range agents {
		if i != victim {
			live = append(live, i)
		}
	}
	waitDelivered(t, log, live, "b1", 5*time.Second)
	for _, i := range live {
		if got := log.count(i, "b1"); got != 1 {
			t.Errorf("member %d delivered b1 %d times", i, got)
		}
	}
}

// TestTreeCastLossRepairedByNak proves the acceptance criterion: a dropped
// inter-leaf treecast frame is repaired via NAK/retransmit and delivered to
// every live leaf member — with stage retries disabled, so nothing but the
// reliability path can recover it.
func TestTreeCastLossRepairedByNak(t *testing.T) {
	const n = 9
	rt, procs := spawn(t, n)
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := recoveryCfg(3, 2, log, i)
		cfg.StageRetries = -1 // isolate the NAK path
		cfg.OpTimeout = 500 * time.Millisecond
		return cfg
	})

	victims := make(map[types.ProcessID]bool)
	founderLeaf := agents[0].LeafID().Key()
	var victimIdx []int
	for key, members := range leavesByKey(agents) {
		if key == founderLeaf {
			continue
		}
		for _, i := range members {
			victims[procs[i].ID()] = true
			victimIdx = append(victimIdx, i)
		}
		break
	}
	if len(victimIdx) == 0 {
		t.Fatal("no victim leaf found")
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if _, err := agents[0].Broadcast(ctxT(t), []byte("b1")); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, log, all, "b1", 5*time.Second)

	// Drop every treecast stage frame addressed to the victim leaf while
	// broadcast b2 is in flight: the whole leaf misses the record, and with
	// retries off the loss is permanent until the NAK path repairs it.
	remove := rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		return p.Msg.Kind == types.KindTreeCast && victims[p.To]
	})
	if _, err := agents[0].Broadcast(ctxT(t), []byte("b2")); err != nil {
		t.Fatal(err)
	}
	remove()
	for _, i := range victimIdx {
		if log.count(i, "b2") != 0 {
			t.Fatalf("drop rule leaked: member %d saw b2 immediately", i)
		}
	}

	// The next broadcast exposes the gap (seq 3 arrives with seq 2 missing);
	// the victims NAK, any holder retransmits, the leaf heals.
	if _, err := agents[0].Broadcast(ctxT(t), []byte("b3")); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, log, all, "b3", 5*time.Second)
	waitDelivered(t, log, all, "b2", 5*time.Second)
	for _, i := range all {
		for _, p := range []string{"b1", "b2", "b3"} {
			if got := log.count(i, p); got != 1 {
				t.Errorf("member %d delivered %s %d times", i, p, got)
			}
		}
	}
	var naksSent, naksServed uint64
	for _, a := range agents {
		s := a.RecoveryStats()
		naksSent += s.NaksSent
		naksServed += s.NaksServed
	}
	if naksSent == 0 || naksServed == 0 {
		t.Errorf("repair did not go through the NAK path: sent=%d served=%d", naksSent, naksServed)
	}
}

// TestLeaderGroupReplenishesAfterLeaderCrash proves the wipeout fix the
// service soak surfaced: leader-group membership used to grow only at join
// time, so every leader crash shrank the group permanently and enough
// crashes left the hierarchy headless. The surviving coordinator must
// recruit replacements back up to LeaderSize, push the refreshed contacts to
// the leaves, and keep broadcasts working.
func TestLeaderGroupReplenishesAfterLeaderCrash(t *testing.T) {
	const n = 9
	// Heartbeats on: the surviving leader has to *detect* the crashes before
	// it can react to them.
	_, procs := spawn(t, n, isis.WithDetector(fdetect.Config{Interval: 20 * time.Millisecond, Timeout: 100 * time.Millisecond}))
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := recoveryCfg(3, 2, log, i)
		cfg.LeaderSize = 3
		return cfg
	})

	var leaders, others []int
	for i, a := range agents {
		if a.IsLeader() {
			leaders = append(leaders, i)
		} else {
			others = append(others, i)
		}
	}
	if len(leaders) != 3 {
		t.Fatalf("initial leader count = %d, want 3", len(leaders))
	}

	// Crash two of the three leaders — including the founder, so the
	// replenishment runs on a failed-over coordinator. Silent death again:
	// the node actor stops, sends to it keep succeeding and vanish.
	dead := map[types.ProcessID]bool{}
	for _, i := range leaders[:2] {
		dead[procs[i].ID()] = true
		procs[i].Stop()
	}
	live := []int{leaders[2]}
	live = append(live, others...)

	// The surviving leader's failure detector evicts the dead members, the
	// new coordinator recruits replacements, and the leader group returns to
	// full strength.
	deadline := time.Now().Add(15 * time.Second)
	for {
		count := 0
		for _, i := range live {
			if agents[i].IsLeader() {
				count++
			}
		}
		if count == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader group never replenished: %d live leaders, want 3", count)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The refreshed contact list reaches the leaves: no live member keeps
	// pointing at a dead leader.
	deadline = time.Now().Add(10 * time.Second)
	for {
		stale := -1
		for _, i := range live {
			for _, p := range agents[i].LeaderContacts() {
				if dead[p] {
					stale = i
				}
			}
		}
		if stale < 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member %d still lists a dead leader in its contacts", stale)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the hierarchy still works end to end: a broadcast initiated at a
	// non-leader reaches every live member exactly once.
	if _, err := agents[others[0]].Broadcast(ctxT(t), []byte("after")); err != nil {
		t.Fatalf("broadcast after replenishment: %v", err)
	}
	waitDelivered(t, log, live, "after", 5*time.Second)
	for _, i := range live {
		if got := log.count(i, "after"); got != 1 {
			t.Errorf("member %d delivered %d copies", i, got)
		}
	}
}

// TestClientRequestFailsOverFromDeadServer proves the satellite fix: a
// client whose cached leaf coordinator dies silently re-routes to another
// live leaf instead of hanging or erroring out.
func TestClientRequestFailsOverFromDeadServer(t *testing.T) {
	const n = 8
	_, procs := spawn(t, n+1)
	log := newDeliveryLog(n)
	buildService(t, procs, n, func(i int) core.Config {
		return recoveryCfg(4, 2, log, i)
	})

	client := procs[n].NewServiceClient("svc", procs[0].ID())
	client.AttemptTimeout = 300 * time.Millisecond

	// Prime the cache with a server other than the entry point (requests
	// round-robin over leaves, so a couple of tries suffice).
	var victimPID types.ProcessID
	for try := 0; try < 6; try++ {
		if _, err := client.Request(ctxT(t), []byte("warm")); err != nil {
			t.Fatal(err)
		}
		if s := client.CachedServer(); !s.IsNil() && s != procs[0].ID() {
			victimPID = s
			break
		}
	}
	if victimPID.IsNil() {
		t.Fatal("never cached a non-entry server")
	}
	victim := -1
	for i := 0; i < n; i++ {
		if procs[i].ID() == victimPID {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("cached server %v is not a service member", victimPID)
	}
	// Silent death: the node stops consuming, the fabric keeps accepting.
	procs[victim].Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	reply, err := client.Request(ctx, []byte("after-crash"))
	if err != nil {
		t.Fatalf("request after cached server died: %v", err)
	}
	if !bytes.Equal(reply, []byte("echo:after-crash")) {
		t.Fatalf("reply = %q", reply)
	}
	if s := client.CachedServer(); s == victimPID {
		t.Error("client still bound to the dead server")
	}
}

// TestIdleLeaderGroupStopsReplicating pins that tree replication is driven by
// change, not by the clock: once the tree is settled, the leader coordinator's
// periodic backstop and the leaves' periodic reports must not keep
// multicasting an unchanged tree to the leader group. A group that never goes
// quiet also never has a stable last view to compare, which is what the chaos
// checkers' virtual-synchrony comparison of terminal views relies on.
func TestIdleLeaderGroupStopsReplicating(t *testing.T) {
	const n = 6
	_, procs := spawn(t, n)
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := recoveryCfg(3, 2, log, i)
		cfg.LeaderSize = 3
		return cfg
	})

	var mu sync.Mutex
	leaderDeliveries := 0
	leaderKey := types.LeaderGroup("svc").Key()
	for i := 0; i < n; i++ {
		procs[i].ObserveGroups(group.Observer{
			OnDeliver: func(gid types.GroupID, _ group.Delivery) {
				if gid.Key() == leaderKey {
					mu.Lock()
					leaderDeliveries++
					mu.Unlock()
				}
			},
		})
	}
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return leaderDeliveries
	}

	// Let placement and the leaf reports settle: several leader-refresh
	// periods (8 recovery ticks of 10ms each) with no new leader traffic.
	deadline := time.Now().Add(5 * time.Second)
	last, quietSince := count(), time.Now()
	for time.Since(quietSince) < 300*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("leader group never went quiet: %d deliveries observed", count())
		}
		time.Sleep(20 * time.Millisecond)
		if now := count(); now != last {
			last, quietSince = now, time.Now()
		}
	}
	if got := agents[0].Tree().TotalMembers(); got != n {
		t.Fatalf("tree covers %d members, want %d", got, n)
	}

	// A real change is still replicated.
	if err := agents[n-1].Leave(ctxT(t)); err != nil {
		t.Fatalf("leave: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for count() == last {
		if time.Now().After(deadline) {
			t.Fatal("tree change after a leave was never replicated to the leader group")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
