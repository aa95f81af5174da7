package main

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i) * time.Millisecond)
	}
	sum := s.summary()
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}, {0.001, time.Millisecond}} {
		if got := sum.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if sum.n() != 100 {
		t.Errorf("n = %d, want 100", sum.n())
	}
	if got := (&samples{}).summary().quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestBestBlockTakesEachQuantileFromItsBestBlock(t *testing.T) {
	var lat []time.Duration
	// Block 0: 1..1000us (p50 500us, p99 990us). Block 1: 600us but ten at
	// 5ms (p50 and p99 600us). The trailing partial block is ignored.
	for i := 1; i <= block; i++ {
		lat = append(lat, time.Duration(i)*time.Microsecond)
	}
	for i := 0; i < block; i++ {
		d := 600 * time.Microsecond
		if i < 10 {
			d = 5 * time.Millisecond
		}
		lat = append(lat, d)
	}
	lat = append(lat, time.Nanosecond)
	p50, p99 := bestBlock(lat)
	if p50 != 500*time.Microsecond || p99 != 600*time.Microsecond {
		t.Errorf("bestBlock = %v, %v; want 500us, 600us", p50, p99)
	}
	// Fewer samples than a block: the plain percentiles.
	p50, p99 = bestBlock(lat[:100])
	if p50 != 50*time.Microsecond || p99 != 99*time.Microsecond {
		t.Errorf("short bestBlock = %v, %v; want 50us, 99us", p50, p99)
	}
}

func TestLowerQuartile(t *testing.T) {
	if got := lowerQuartile([]float64{8, 1, 4, 2, 6, 3, 7, 5}); got != 2 {
		t.Errorf("lowerQuartile = %v, want 2", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// A server that stalls must show the stall in the latency of every request
// due during it: the open-loop generator keeps issuing on schedule and each
// request is timed from its due time, not from when it was sent.
func TestOpenLoopChargesStallToEveryRequestDueInIt(t *testing.T) {
	const (
		rate       = 2000.0
		dur        = 300 * time.Millisecond
		stallFrom  = 80 * time.Millisecond
		stallUntil = 160 * time.Millisecond
	)
	b := newBook()
	b.setRecording(true)
	start := time.Now().Add(5 * time.Millisecond)
	type req struct {
		id  uint64
		due time.Time
	}
	queue := make(chan req, 4096) // every request of the run fits
	var wg sync.WaitGroup
	wg.Add(1)
	lat := map[uint64]time.Duration{}
	dueOf := map[uint64]time.Duration{}
	var mu sync.Mutex
	go func() { // the fake server: serves in order, frozen during the stall
		defer wg.Done()
		for q := range queue {
			if until := start.Add(stallUntil); time.Since(start) >= stallFrom && time.Now().Before(until) {
				time.Sleep(time.Until(until))
			}
			if l, ok := b.complete(q.id, 0, time.Now()); ok {
				mu.Lock()
				lat[q.id] = l
				mu.Unlock()
			}
		}
	}()
	n, _ := openLoop(start, rate, dur, nil, func(_ int, due time.Time) {
		id := b.issue(due, 0)
		mu.Lock()
		dueOf[id] = due.Sub(start)
		mu.Unlock()
		queue <- req{id, due}
	})
	close(queue)
	wg.Wait()
	if want := int(rate * dur.Seconds()); n != want {
		t.Fatalf("issued %d requests, want %d: the generator must not wait for replies", n, want)
	}
	checked := 0
	for id, due := range dueOf {
		if due < stallFrom+time.Millisecond || due >= stallUntil {
			continue
		}
		checked++
		if min := stallUntil - due - time.Millisecond; lat[id] < min {
			t.Errorf("request due at %v: latency %v, want at least %v (the rest of the stall)", due, lat[id], min)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d requests fell in the stall", checked)
	}
	if got := len(b.latencies()); got != n {
		t.Errorf("recorded %d latencies, want %d", got, n)
	}
}

func TestBookIgnoresForeignAndRepeatedCompletions(t *testing.T) {
	b := newBook()
	b.setRecording(true)
	id := b.issue(time.Now(), 1)
	if _, ok := b.complete(id, 2, time.Now()); ok {
		t.Error("completion seen at a replica that did not issue the op was counted")
	}
	if _, ok := b.complete(id, 1, time.Now()); !ok {
		t.Error("owner's completion was not counted")
	}
	if _, ok := b.complete(id, 1, time.Now()); ok {
		t.Error("repeated completion was counted")
	}
	if _, done := b.counts(); done != 1 {
		t.Errorf("done = %d, want 1", done)
	}
}

func TestLongestGap(t *testing.T) {
	b := newBook()
	b.setGapTracking(true)
	at := func(ms int) time.Time { return b.base.Add(time.Duration(ms) * time.Millisecond) }
	for _, ms := range []int{10, 12, 40, 41, 90} {
		id := b.issue(at(0), 0)
		b.complete(id, 0, at(ms))
	}
	// From 11 to 95: completions at 12, 40, 41, 90; longest stretch 41..90.
	if got := b.longestGap(at(11), at(95)); got != 49*time.Millisecond {
		t.Errorf("longest gap = %v, want 49ms", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Op: 1, Name: "op", Start: 0, End: 100},
		{Op: 1, Name: "call", Parent: "op", Start: 10, End: 30},
		{Op: 1, Name: "apply", Parent: "op", Start: 20, End: 50},  // overlaps call
		{Op: 1, Name: "apply", Parent: "op", Start: 90, End: 120}, // runs past the root
		{Op: 2, Name: "op", Start: 0, End: 10},                    // no children
		{Op: 2, Name: "orphan", Parent: "missing", Start: 2, End: 5},
	}
	self := selfTimes(spans)
	// op 1: covered [10,50) + [90,100) = 50 of 100; op 2: none of 10.
	if got := self["op"]; got.Count != 2 || got.Total != 110 || got.Self != 60 {
		t.Errorf("op = %+v, want count 2, total 110, self 60", got)
	}
	if got := self["apply"]; got.Count != 2 || got.Self != 60 {
		t.Errorf("apply = %+v, want count 2, self 60 (no children)", got)
	}
	if got := self["orphan"]; got.Self != 3 {
		t.Errorf("orphan = %+v, want self 3", got)
	}
}

func TestCoveredMergesAndClips(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 3}, {2, 6}, {10, 20}}
	if got := covered(iv, 1, 15); got != 12 { // [1,8) + [10,15)
		t.Errorf("covered = %d, want 12", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.add(0, "x", "", time.Now(), time.Now())
	if tr.sampled(0) {
		t.Error("nil tracer sampled an op")
	}
	tr = newTracer(4)
	tr.add(3, "x", "", time.Now(), time.Now())
	tr.add(4, "x", "", time.Now(), time.Now())
	if got := len(tr.snapshot()); got != 1 {
		t.Errorf("recorded %d spans, want 1 (only op ids divisible by 4)", got)
	}
}

// The metric lists in the program and in BENCHMARK.json must agree.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Unit != b[i].Unit || (kind == "end_to_end" && (a[i].Better != b[i].Better || a[i].Bound != b[i].Bound)) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}
