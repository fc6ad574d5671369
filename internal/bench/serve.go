package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/parallel"
	"cla/internal/pts"
	"cla/internal/serve"
)

// RowServe records the query-serving layer's throughput on one workload:
// a representative mix of the six query kinds fired at one analyzed
// snapshot across jobs workers, the steady-state shape of a claserve
// process. Setup is reported separately because the serving pitch is
// paying it once — and split into its phases (parse, solve, evaluator
// load) because the snapshot format eliminates the first two, so the
// cold-start story needs them individually attributable.
type RowServe struct {
	Name string `json:"name"`
	// Jobs is the worker count the queries were fired across.
	Jobs int `json:"jobs"`
	// Queries is the number of queries timed.
	Queries int `json:"queries"`
	// ParseTime is the compile+link time that produced the database (the
	// workload build's measurement, amortized out by serving).
	ParseTime time.Duration `json:"parse_ns"`
	// SolveTime covers the points-to solve.
	SolveTime time.Duration `json:"solve_ns"`
	// LoadTime covers evaluator construction (index builds).
	LoadTime time.Duration `json:"load_ns"`
	// WallTime is the time to drain the whole query mix.
	WallTime time.Duration `json:"wall_ns"`
	// QPS is Queries / WallTime.
	QPS float64 `json:"qps"`
	// P50 and P99 are per-query latency percentiles.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// serveMix builds a deterministic query mix over the snapshot's
// queryable names: mostly cheap point lookups (pointsto, alias) with a
// steady trickle of the expensive aggregate kinds, roughly the shape an
// editor integration produces.
func serveMix(names []string, queries int) []serve.Query {
	mix := make([]serve.Query, 0, queries)
	for i := 0; len(mix) < queries; i++ {
		a := names[i%len(names)]
		b := names[(i*7+3)%len(names)]
		switch i % 8 {
		case 0, 1, 2:
			mix = append(mix, serve.Query{Kind: "pointsto", Name: a})
		case 3, 4:
			mix = append(mix, serve.Query{Kind: "alias", X: a, Y: b})
		case 5:
			mix = append(mix, serve.Query{Kind: "dependence", Target: a, Limit: 20})
		case 6:
			mix = append(mix, serve.Query{Kind: "modref", Func: ""})
		case 7:
			mix = append(mix, serve.Query{Kind: "lint", Checks: []string{"deref"}})
		}
	}
	return mix
}

// RunServe solves one workload's field-based database, then drains the
// query mix across jobs workers, timing each query.
func RunServe(w *Workload, jobs, queries int) (RowServe, error) {
	row := RowServe{Name: w.Profile.Name, Jobs: jobs, Queries: queries}

	row.ParseTime = w.CompileTime
	start := time.Now()
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs
	src := pts.NewMemSource(w.FieldBased)
	res, err := driver.Analyze(context.Background(), src, driver.PreTransitive, cfg, nil)
	if err != nil {
		return row, fmt.Errorf("%s: %w", w.Profile.Name, err)
	}
	row.SolveTime = time.Since(start)
	start = time.Now()
	ev := serve.NewEvaluator(w.FieldBased, src, res, jobs)
	row.LoadTime = time.Since(start)

	names := ev.QueryNames()
	if len(names) == 0 {
		return row, fmt.Errorf("%s: no queryable names", w.Profile.Name)
	}
	mix := serveMix(names, queries)

	// Warm the lazily built checks report so the percentiles measure
	// steady-state serving, not the one-off aggregate build.
	ctx := context.Background()
	ev.Eval(ctx, serve.Query{Kind: "callgraph"})

	lat := make([]time.Duration, len(mix))
	start = time.Now()
	err = parallel.ForEach(jobs, len(mix), func(i int) error {
		qs := time.Now()
		r := ev.Eval(ctx, mix[i])
		lat[i] = time.Since(qs)
		if r.Err != nil {
			return fmt.Errorf("query %d (%s): %s", i, mix[i].Kind, r.Err.Message)
		}
		return nil
	})
	row.WallTime = time.Since(start)
	if err != nil {
		return row, fmt.Errorf("%s: %w", w.Profile.Name, err)
	}
	row.QPS = float64(len(mix)) / row.WallTime.Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	row.P50 = lat[len(lat)/2]
	row.P99 = lat[len(lat)*99/100]
	return row, nil
}

// RunServeAll measures the serving layer over every workload.
func RunServeAll(ws []*Workload, jobs, queries int) ([]RowServe, error) {
	var out []RowServe
	for _, w := range ws {
		r, err := RunServe(w, jobs, queries)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatServe renders the query-serving table.
func FormatServe(wr io.Writer, rows []RowServe) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tjobs\tqueries\tparse\tsolve\tload\twall\tqps\tp50\tp99")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%.0f\t%s\t%s\n",
			r.Name, r.Jobs, r.Queries, fmtDur(r.ParseTime), fmtDur(r.SolveTime),
			fmtDur(r.LoadTime), fmtDur(r.WallTime), r.QPS, fmtDur(r.P50), fmtDur(r.P99))
	}
	tw.Flush()
}

// WriteServeJSON records the rows under the shared Meta header.
func WriteServeJSON(path string, rows []RowServe, meta Meta) error {
	meta.Table = "query-serving"
	return writeBenchJSON(path, meta, rows)
}
