package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// heapAlloc reads the live heap size; tests replace it to fault the
// sampler.
var heapAlloc = func() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// WatchHeap samples runtime.MemStats.HeapAlloc into g (a high-water
// gauge) every interval until the returned stop function is called.
// One sample is taken immediately and one more at stop, so even a phase
// shorter than the interval records a reading. interval <= 0 selects a
// default suited to solver runs. A nil gauge (instrumentation off)
// spawns nothing and the stop function is a free no-op; stop is
// idempotent.
//
// A sample that panics ends the sampling instead of the process: stop
// returns the panic's value and the stack at the panic, for the caller
// to fail its phase with. They are nil when no sample panicked.
func WatchHeap(g *Gauge, interval time.Duration) (stop func() (panicked any, stack []byte)) {
	if g == nil {
		return func() (any, []byte) { return nil, nil }
	}
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	var (
		panicked any
		stack    []byte
	)
	// sample records one reading and reports whether it did; no sample
	// runs after one panicked, so the panic kept is the only one.
	sample := func() (ok bool) {
		defer func() {
			if v := recover(); v != nil {
				panicked, stack = v, debug.Stack()
			}
		}()
		g.Max(heapAlloc())
		return true
	}
	if !sample() {
		return func() (any, []byte) { return panicked, stack }
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if !sample() {
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() (any, []byte) {
		once.Do(func() {
			close(done)
			<-finished
			if panicked == nil {
				sample()
			}
		})
		return panicked, stack
	}
}
