package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/parallel"
	"cla/internal/pts"
)

// RowSets records the set-machinery cost of one solver on one workload:
// wall time, bytes allocated during the solve (runtime TotalAlloc
// delta), and the live bytes retained by the converged result (HeapAlloc
// delta after a full GC) — the Table 2 "space" column decomposed per
// solver, measured at -j 1 and -j jobs. The paper's claim is that
// compact, shared set machinery is as important as the pre-transitive
// algorithm; this table is where that shows up as numbers.
type RowSets struct {
	Name   string `json:"name"`
	Solver string `json:"solver"`
	Jobs   int    `json:"jobs"`

	SeqTime  time.Duration `json:"seq_ns"`
	ParTime  time.Duration `json:"par_ns"`
	SeqAlloc uint64        `json:"seq_alloc_bytes"`
	ParAlloc uint64        `json:"par_alloc_bytes"`
	SeqLive  int64         `json:"seq_live_bytes"`
	ParLive  int64         `json:"par_live_bytes"`

	Relations int `json:"relations"`
}

// measureSolve runs one solver once and reports (time, alloc, live).
// Alloc is the TotalAlloc delta over the solve; live is the HeapAlloc
// delta with the result still referenced, after a forcing GC, so it
// approximates the memory the converged result pins.
func measureSolve(w *Workload, solver driver.Solver, jobs int) (time.Duration, uint64, int64, int, error) {
	src := pts.NewMemSource(w.FieldBased)
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	res, err := driver.Analyze(context.Background(), src, solver, cfg, nil)
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	rel := res.Metrics().Relations
	runtime.KeepAlive(res)
	runtime.KeepAlive(src)

	alloc := m1.TotalAlloc - m0.TotalAlloc
	live := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	return elapsed, alloc, live, rel, nil
}

// RunSets measures every solver on one workload at -j 1 and -j jobs.
func RunSets(w *Workload, jobs int) ([]RowSets, error) {
	jobs = parallel.Workers(jobs)
	var out []RowSets
	for _, solver := range Solvers {
		row := RowSets{Name: w.Profile.Name, Solver: solver.String(), Jobs: jobs}
		var err error
		row.SeqTime, row.SeqAlloc, row.SeqLive, row.Relations, err = measureSolve(w, solver, 1)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Profile.Name, solver, err)
		}
		var rel int
		row.ParTime, row.ParAlloc, row.ParLive, rel, err = measureSolve(w, solver, jobs)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Profile.Name, solver, err)
		}
		if rel != row.Relations {
			return nil, fmt.Errorf("%s/%s: -j1 relations %d != -j%d relations %d",
				w.Profile.Name, solver, row.Relations, jobs, rel)
		}
		out = append(out, row)
	}
	return out, nil
}

// RunSetsAll measures every Table 2 workload.
func RunSetsAll(ws []*Workload, jobs int) ([]RowSets, error) {
	var out []RowSets
	for _, w := range ws {
		rows, err := RunSets(w, jobs)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// FormatSets renders the set-machinery table.
func FormatSets(wr io.Writer, rows []RowSets) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tsolver\ttime -j1\ttime -jN\talloc -j1\talloc -jN\tlive -j1\tlive -jN\trelations")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Name, r.Solver, fmtDur(r.SeqTime), fmtDur(r.ParTime),
			fmtBytes(int(r.SeqAlloc)), fmtBytes(int(r.ParAlloc)),
			fmtBytes(int(r.SeqLive)), fmtBytes(int(r.ParLive)),
			fmtCount(r.Relations))
	}
	tw.Flush()
}

// WriteSetsJSON records the rows under the shared Meta header so runs
// are comparable across hosts and revisions.
func WriteSetsJSON(path string, rows []RowSets, meta Meta) error {
	meta.Table = "set-machinery"
	return writeBenchJSON(path, meta, rows)
}
