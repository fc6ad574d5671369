// Package obs is the pipeline-wide instrumentation layer: nestable phase
// spans with wall-clock and per-phase allocation deltas, an atomic
// counter/gauge registry, and structured sinks — a paper-style stats
// report (Tables 2–3), JSON lines, and the Chrome trace_event format
// (chrome://tracing, Perfetto).
//
// The package depends only on the standard library, and the disabled
// state is free: the nil *Observer is valid, and every method on it (and
// on the nil *Span, *Counter and *Gauge it hands out) is a no-op that
// performs zero allocations. Instrumented code therefore needs no
// "if enabled" branches, and the hot paths of the solvers never touch an
// observer at all — metrics are published once, after convergence.
//
// Span/track model: spans on track 0 are the sequential pipeline phases
// (compile, link, analyze, checks) and nest by start/end containment;
// spans on tracks >= 1 are parallel fan-out work (one track per unit or
// merge slot, so the trace is identical at every -j setting). Within one
// track spans must nest properly; the trace encoder validates this and
// refuses to emit anything for unclosed or overlapping spans.
package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one closed span, with times relative to the observer's epoch.
type Event struct {
	Name  string
	Track int
	Start time.Duration
	End   time.Duration
	// Alloc is the bytes allocated during the span (runtime.MemStats
	// TotalAlloc delta), recorded only for root spans of an observer with
	// memory statistics enabled; -1 means not recorded.
	Alloc int64
}

// Dur returns the span's wall-clock duration.
func (e Event) Dur() time.Duration { return e.End - e.Start }

// Metric is one counter or gauge value.
type Metric struct {
	Name  string
	Value int64
}

// Observer collects the instrumentation of one pipeline run. All methods
// are safe for concurrent use, and all methods on a nil *Observer are
// allocation-free no-ops.
type Observer struct {
	*state
	// base is this view's first track (see Tracks).
	base int
}

// state is what an observer and its track views share.
type state struct {
	epoch    time.Time
	memStats bool

	mu     sync.Mutex
	events []Event
	open   int

	cmu      sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New creates an empty observer whose epoch is now.
func New() *Observer {
	return &Observer{state: &state{
		epoch:    time.Now(),
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}}
}

// Tracks returns a view of o that records into o — the same spans,
// counters, gauges and histograms — but places its spans base tracks
// higher: its root spans on track base and StartTrack(k) on base+k. Work
// that runs concurrently with other work on the same observer, such as
// one serving session's opens and refreshes, takes its own range, so
// its root spans never overlap another's on one track.
func (o *Observer) Tracks(base int) *Observer {
	if o == nil {
		return nil
	}
	return &Observer{state: o.state, base: o.base + base}
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// EnableMemStats turns on per-phase allocation deltas for root spans.
// Reading runtime.MemStats has a cost, so this is off by default and
// meant for -stats style reporting, not for tight loops.
func (o *Observer) EnableMemStats(on bool) {
	if o != nil {
		o.memStats = on
	}
}

func (o *Observer) now() time.Duration { return time.Since(o.epoch) }

// Span is an open phase timer. The nil *Span no-ops.
type Span struct {
	o     *Observer
	name  string
	track int
	start time.Duration
	alloc uint64 // TotalAlloc at start (memstats spans)
	mem   bool
	ended atomic.Bool
}

// Start opens a root span — one sequential pipeline phase — on the
// observer's first track: track 0, or a Tracks view's base.
func (o *Observer) Start(name string) *Span {
	if o == nil {
		return nil
	}
	sp := &Span{o: o, name: name, track: o.base, mem: o.memStats}
	if sp.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sp.alloc = ms.TotalAlloc
	}
	sp.start = o.now()
	o.mu.Lock()
	o.open++
	o.mu.Unlock()
	return sp
}

// StartTrack opens a span on the given track (>= 1, past a Tracks
// view's base): one slot of a parallel fan-out. Track numbers must be derived from the work's index,
// not the worker's, so the trace is identical at every -j setting.
func (o *Observer) StartTrack(track int, name string) *Span {
	if o == nil {
		return nil
	}
	sp := &Span{o: o, name: name, track: o.base + track, start: o.now()}
	o.mu.Lock()
	o.open++
	o.mu.Unlock()
	return sp
}

// Child opens a nested span on the parent's track.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	c := &Span{o: sp.o, name: name, track: sp.track, start: sp.o.now()}
	sp.o.mu.Lock()
	sp.o.open++
	sp.o.mu.Unlock()
	return c
}

// Rename sets the name the span is recorded under, so work can say what
// it turned out to be, such as a compile that was cut off. Call it
// before End, from the goroutine that ends the span.
func (sp *Span) Rename(name string) {
	if sp != nil {
		sp.name = name
	}
}

// End closes the span and records it. A second End is ignored.
func (sp *Span) End() {
	if sp == nil || !sp.ended.CompareAndSwap(false, true) {
		return
	}
	e := Event{Name: sp.name, Track: sp.track, Start: sp.start, End: sp.o.now(), Alloc: -1}
	if sp.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e.Alloc = int64(ms.TotalAlloc - sp.alloc)
	}
	sp.o.mu.Lock()
	sp.o.events = append(sp.o.events, e)
	sp.o.open--
	sp.o.mu.Unlock()
}

// Counter is a monotonically written atomic counter. The nil *Counter
// no-ops, so callers may hold one unconditionally.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter — the publish-at-end idiom for metrics that
// solvers accumulate privately during their hot loops.
func (c *Counter) Set(v int64) {
	if c != nil {
		c.v.Store(v)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic high-water-mark / last-value cell. The nil *Gauge
// no-ops.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Counter returns the named counter from the registry, creating it on
// first use. Returns nil (a valid no-op counter) on a nil observer.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	o.cmu.Lock()
	c := o.counters[name]
	if c == nil {
		c = &Counter{}
		o.counters[name] = c
	}
	o.cmu.Unlock()
	return c
}

// Gauge returns the named gauge from the registry, creating it on first
// use. Returns nil (a valid no-op gauge) on a nil observer.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	o.cmu.Lock()
	g := o.gauges[name]
	if g == nil {
		g = &Gauge{}
		o.gauges[name] = g
	}
	o.cmu.Unlock()
	return g
}

// SetCounter is shorthand for Counter(name).Set(v).
func (o *Observer) SetCounter(name string, v int64) { o.Counter(name).Set(v) }

// Events returns a sorted snapshot of the closed spans: by track, then
// start time, then longest-first (parents before children), then name.
// The order is deterministic for a fixed span structure at any -j.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	out := append([]Event(nil), o.events...)
	o.mu.Unlock()
	sortEvents(out)
	return out
}

func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End > b.End
		}
		return a.Name < b.Name
	})
}

// OpenSpans returns the number of started-but-unclosed spans.
func (o *Observer) OpenSpans() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.open
}

// Counters returns the counter registry sorted by name.
func (o *Observer) Counters() []Metric {
	if o == nil {
		return nil
	}
	o.cmu.Lock()
	out := make([]Metric, 0, len(o.counters))
	for name, c := range o.counters {
		out = append(out, Metric{Name: name, Value: c.Value()})
	}
	o.cmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gauges returns the gauge registry sorted by name.
func (o *Observer) Gauges() []Metric {
	if o == nil {
		return nil
	}
	o.cmu.Lock()
	out := make([]Metric, 0, len(o.gauges))
	for name, g := range o.gauges {
		out = append(out, Metric{Name: name, Value: g.Value()})
	}
	o.cmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
