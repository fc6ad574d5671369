package obs

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWatchHeapRecordsHighWater(t *testing.T) {
	o := New()
	g := o.Gauge("analyze.heap_peak_bytes")
	stop := WatchHeap(g, time.Millisecond)
	// Hold a large allocation across at least one sampling tick so the
	// high-water mark must reflect it.
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
	// buf must stay live through the final sample inside stop — without
	// this the GC may reclaim it right after the write loop, its last use.
	runtime.KeepAlive(buf)
	if v := g.Value(); v < int64(8<<20) {
		t.Fatalf("heap peak %d below the %d bytes held live", v, 8<<20)
	}
}

func TestWatchHeapNilGauge(t *testing.T) {
	// A nil observer hands out nil gauges; watching one must be a no-op
	// that still returns a callable stop.
	var o *Observer
	stop := WatchHeap(o.Gauge("x"), time.Millisecond)
	stop()
	stop()
}

// TestWatchHeapContainsPanic: a sample that panics, on the sampler's
// goroutine or the caller's, ends the sampling without killing the
// process, and stop hands back the panic's value and stack.
func TestWatchHeapContainsPanic(t *testing.T) {
	defer func(read func() int64) { heapAlloc = read }(heapAlloc)
	for _, first := range []bool{false, true} {
		var calls atomic.Int64
		heapAlloc = func() int64 {
			if calls.Add(1) > 1 || first {
				panic("sampler fault")
			}
			return 1
		}
		o := New()
		stop := WatchHeap(o.Gauge("heap"), time.Millisecond)
		for !first && calls.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		v, stack := stop()
		if v != "sampler fault" || !strings.Contains(string(stack), "TestWatchHeapContainsPanic") {
			t.Fatalf("first=%v: stop gave %v and stack\n%s", first, v, stack)
		}
		if v2, _ := stop(); v2 != v {
			t.Fatalf("first=%v: second stop gave %v", first, v2)
		}
		n := calls.Load()
		time.Sleep(5 * time.Millisecond)
		if calls.Load() != n {
			t.Fatalf("first=%v: sampling went on after the panic", first)
		}
	}
}
