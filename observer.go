package cla

import (
	"io"
	"time"

	"cla/internal/obs"
)

// Observer collects per-phase timings, allocation deltas and named
// counters across the compile, link and analyze calls that share it.
// Attach one observer to Options and AnalyzeOptions for a whole
// pipeline run, then read the result with Analysis.Stats or export it
// with WriteTrace / WriteJSONL.
//
// A nil *Observer is valid everywhere and costs nothing: every library
// entry point accepts it and skips all instrumentation.
type Observer struct {
	o *obs.Observer
}

// NewObserver creates an observer whose epoch is now. Phase allocation
// deltas (runtime.MemStats) are recorded for top-level phases.
func NewObserver() *Observer {
	o := obs.New()
	o.EnableMemStats(true)
	return &Observer{o: o}
}

// internal returns the wrapped observer, nil-safely.
func (ob *Observer) internal() *obs.Observer {
	if ob == nil {
		return nil
	}
	return ob.o
}

// WriteTrace writes the recorded phases and counters in Chrome
// trace_event format (load the file at chrome://tracing or
// ui.perfetto.dev). The output is validated first; on error nothing is
// written. A nil observer writes nothing and returns nil.
func (ob *Observer) WriteTrace(w io.Writer) error {
	return ob.internal().WriteTrace(w)
}

// WriteJSONL writes the recorded phases and counters as JSON lines, one
// record per span or metric. A nil observer writes nothing and returns
// nil.
func (ob *Observer) WriteJSONL(w io.Writer) error {
	return ob.internal().WriteJSONL(w)
}

// Phase is one completed pipeline span recorded by an Observer. Track 0
// holds the sequential phases (compile, link, analyze, checks); tracks
// >= 1 hold parallel work items, keyed by work index so the recording
// is identical at every Jobs setting.
type Phase struct {
	Name     string
	Track    int
	Start    time.Duration // offset from the observer's epoch
	Duration time.Duration
	// AllocBytes is the heap allocated during the phase, or -1 when not
	// recorded (non-root spans, or memory statistics disabled).
	AllocBytes int64
}

// LoadInfo is the demand-load accounting of an AnalyzeFileCtx run: how
// much of the database the analysis actually touched (the load columns
// of the paper's Table 3).
type LoadInfo struct {
	// TotalBlocks and BlocksLoaded count index blocks in the file and
	// the distinct blocks read; BlockLoads counts reads including
	// re-reads after discard.
	TotalBlocks  int
	BlocksLoaded int
	BlockLoads   int64
	// TotalEntries and EntriesLoaded count assignment entries.
	TotalEntries  int64
	EntriesLoaded int64
	// TotalBytes and BytesLoaded count assignment-section bytes.
	TotalBytes  int64
	BytesLoaded int64
}

// RunStats is everything an observed analysis run recorded.
type RunStats struct {
	// Phases are the completed spans, sorted by (track, start time).
	Phases []Phase
	// Counters and Gauges are the named metrics, e.g. "solver.passes",
	// "load.bytes.loaded", "link.units".
	Counters map[string]int64
	Gauges   map[string]int64
	// Metrics are the solver statistics (also via Analysis.Metrics).
	Metrics Metrics
	// Load is the demand-load accounting; DemandLoaded reports whether
	// the run read from a serialized database (AnalyzeFileCtx) at all.
	Load         LoadInfo
	DemandLoaded bool
}

// Stats returns the statistics recorded for this analysis: solver
// metrics, and — when an Observer was attached — phases and counters,
// plus demand-load accounting for AnalyzeFileCtx runs.
func (a *Analysis) Stats() RunStats {
	rs := RunStats{Metrics: a.Metrics()}
	if a.o.Enabled() {
		for _, e := range a.o.Events() {
			rs.Phases = append(rs.Phases, Phase{
				Name:       e.Name,
				Track:      e.Track,
				Start:      e.Start,
				Duration:   e.Dur(),
				AllocBytes: e.Alloc,
			})
		}
		rs.Counters = map[string]int64{}
		for _, m := range a.o.Counters() {
			rs.Counters[m.Name] = m.Value
		}
		rs.Gauges = map[string]int64{}
		for _, m := range a.o.Gauges() {
			rs.Gauges[m.Name] = m.Value
		}
	}
	if a.r != nil {
		ls := a.r.LoadStats()
		rs.Load = LoadInfo{
			TotalBlocks:   ls.TotalBlocks,
			BlocksLoaded:  ls.BlocksLoaded,
			BlockLoads:    ls.BlockLoads,
			TotalEntries:  ls.TotalEntries,
			EntriesLoaded: ls.EntriesLoaded,
			TotalBytes:    ls.TotalBytes,
			BytesLoaded:   ls.BytesLoaded,
		}
		rs.DemandLoaded = true
	}
	return rs
}
