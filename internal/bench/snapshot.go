package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/pts"
	"cla/internal/serve"
	"cla/internal/snapfile"
)

// RowSnapshot records one cold-start path to a first answered query on a
// workload: a live parse+solve+load, or opening a solved .snap (mmap or
// buffered). The cold_start_ns column is the whole pitch of the snapshot
// format — everything between process start and the first query result.
type RowSnapshot struct {
	Name string `json:"name"`
	// Mode is "live", "snap-mmap" or "snap-buffered".
	Mode string `json:"mode"`
	Jobs int    `json:"jobs"`
	// ParseTime and SolveTime are the phases a snapshot eliminates;
	// zero (omitted) on the snap rows.
	ParseTime time.Duration `json:"parse_ns,omitempty"`
	SolveTime time.Duration `json:"solve_ns,omitempty"`
	// LoadTime covers evaluator construction — for the snap modes it
	// includes opening and validating the snapshot.
	LoadTime time.Duration `json:"load_ns"`
	// FirstQuery is the latency of the first points-to query answered.
	FirstQuery time.Duration `json:"first_query_ns"`
	// ColdStart is the sum: process start to first answer.
	ColdStart time.Duration `json:"cold_start_ns"`
	// SnapshotBytes is the on-disk snapshot size (snap rows only);
	// informational, not gated.
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// Speedup is live cold_start / this row's cold_start; informational.
	Speedup float64 `json:"speedup_vs_live,omitempty"`
}

// firstQuery fires one points-to query and returns its latency and its
// JSON-rendered result, the cross-mode identity witness.
func firstQuery(ev *serve.Evaluator, name string) (time.Duration, string, error) {
	start := time.Now()
	r := ev.Eval(context.Background(), serve.Query{Kind: "pointsto", Name: name})
	lat := time.Since(start)
	if r.Err != nil {
		return lat, "", fmt.Errorf("pointsto(%s): %s", name, r.Err.Message)
	}
	b, err := json.Marshal(r)
	return lat, string(b), err
}

// RunSnapshot measures the three cold-start paths on one workload. The
// solved snapshot is built once into a temp file; the live row re-solves
// from scratch the way a fresh claserve start would. All three paths
// must answer the probe query identically or the run errors. On hosts
// without mmap the snap-mmap row silently measures the buffered
// fallback, same as claserve would.
func RunSnapshot(w *Workload, jobs int) ([]RowSnapshot, error) {
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs

	// Build the shared .snap artifact (not timed: this is clasnap's job,
	// paid once at build time, amortized across every cold start).
	src := pts.NewMemSource(w.FieldBased)
	res, err := driver.Analyze(context.Background(), src, driver.PreTransitive, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Profile.Name, err)
	}
	rep, err := checks.Run(w.FieldBased, res, checks.Options{Jobs: jobs})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Profile.Name, err)
	}
	dir, err := os.MkdirTemp("", "clabench-snap-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, w.Profile.Name+".snap")
	if err := snapfile.Save(path, &snapfile.Snapshot{
		Prog: w.FieldBased, Res: res,
		Solver: driver.PreTransitive.String(), ExtModel: "unsound",
		Report: rep,
	}); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	probe := serve.NewEvaluator(w.FieldBased, src, res, jobs).QueryNames()
	if len(probe) == 0 {
		return nil, fmt.Errorf("%s: no queryable names", w.Profile.Name)
	}

	// Live: the pre-snapshot cold start. Parse is the workload build's
	// compile measurement; solve and load re-run fresh.
	live := RowSnapshot{Name: w.Profile.Name, Mode: "live", Jobs: jobs}
	live.ParseTime = w.CompileTime
	start := time.Now()
	lsrc := pts.NewMemSource(w.FieldBased)
	lres, err := driver.Analyze(context.Background(), lsrc, driver.PreTransitive, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Profile.Name, err)
	}
	live.SolveTime = time.Since(start)
	start = time.Now()
	lev := serve.NewEvaluator(w.FieldBased, lsrc, lres, jobs)
	live.LoadTime = time.Since(start)
	var liveAnswer string
	live.FirstQuery, liveAnswer, err = firstQuery(lev, probe[0])
	if err != nil {
		return nil, fmt.Errorf("%s live: %w", w.Profile.Name, err)
	}
	live.ColdStart = live.ParseTime + live.SolveTime + live.LoadTime + live.FirstQuery
	out := []RowSnapshot{live}

	for _, m := range []struct {
		mode string
		opts snapfile.Options
	}{
		{"snap-mmap", snapfile.Options{}},
		{"snap-buffered", snapfile.Options{NoMmap: true}},
	} {
		row := RowSnapshot{Name: w.Profile.Name, Mode: m.mode, Jobs: jobs,
			SnapshotBytes: st.Size()}
		start := time.Now()
		r, err := snapfile.Open(path, m.opts)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.Profile.Name, m.mode, err)
		}
		prog := r.Program()
		ev := serve.NewEvaluator(prog, pts.NewMemSource(prog), r.Result(), jobs)
		ev.SeedChecks(r.Report())
		row.LoadTime = time.Since(start)
		var answer string
		row.FirstQuery, answer, err = firstQuery(ev, probe[0])
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("%s %s: %w", w.Profile.Name, m.mode, err)
		}
		if answer != liveAnswer {
			r.Close()
			return nil, fmt.Errorf("%s %s: snapshot answer diverged from live\nlive: %s\nsnap: %s",
				w.Profile.Name, m.mode, liveAnswer, answer)
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		row.ColdStart = row.LoadTime + row.FirstQuery
		if row.ColdStart > 0 {
			row.Speedup = float64(live.ColdStart) / float64(row.ColdStart)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatSnapshot renders the cold-start table.
func FormatSnapshot(wr io.Writer, rows []RowSnapshot) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmode\tjobs\tparse\tsolve\tload\tfirst query\tcold start\tsize\tspeedup")
	for _, r := range rows {
		size, speed := "-", "-"
		if r.SnapshotBytes > 0 {
			size = fmtBytes(int(r.SnapshotBytes))
		}
		if r.Speedup > 0 {
			speed = fmt.Sprintf("%.1fx", r.Speedup)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Name, r.Mode, r.Jobs, fmtDur(r.ParseTime), fmtDur(r.SolveTime),
			fmtDur(r.LoadTime), fmtDur(r.FirstQuery), fmtDur(r.ColdStart), size, speed)
	}
	tw.Flush()
}

// WriteSnapshotJSON records the rows under the shared Meta header.
func WriteSnapshotJSON(path string, rows []RowSnapshot, meta Meta) error {
	meta.Table = "cold-start"
	return writeBenchJSON(path, meta, rows)
}
