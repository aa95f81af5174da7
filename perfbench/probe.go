package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapGuard samples the heap from runtime/metrics (which does not stop the
// world) every 5ms: HeapInuse (heap objects plus unused heap spans), whose
// peak past the ceiling calls breach instead of letting the process grow into
// the OOM killer (the wide-group join's backlog is a known memory
// pathology), and the live heap the last GC marked. The live heap's peak is
// the reported figure: HeapInuse peaks depend on when collections happen to
// run, the live heap only on what the program holds.
type heapGuard struct {
	max    atomic.Uint64
	live   atomic.Uint64
	quit   chan struct{}
	done   chan struct{}
	closer sync.Once
}

func startHeapGuard(ceiling uint64, breach func(peak uint64)) *heapGuard {
	g := &heapGuard{quit: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	read := func() {
		metrics.Read(s)
		v := s[0].Value.Uint64() + s[1].Value.Uint64()
		if v > g.max.Load() {
			g.max.Store(v)
		}
		if l := s[2].Value.Uint64(); l > g.live.Load() {
			g.live.Store(l)
		}
		if v > ceiling {
			breach(v)
		}
	}
	read()
	go func() {
		defer close(g.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.quit:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return g
}

// peak is the highest HeapInuse sampled; livePeak the highest live heap.
func (g *heapGuard) peak() uint64     { return g.max.Load() }
func (g *heapGuard) livePeak() uint64 { return g.live.Load() }

func (g *heapGuard) stop() {
	g.closer.Do(func() { close(g.quit) })
	<-g.done
}
