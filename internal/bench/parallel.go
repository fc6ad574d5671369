package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/objfile"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
)

// RowParallel records one workload's sequential-vs-parallel pipeline
// numbers: the same units compiled, linked and analyzed at -j 1 and at
// -j Jobs, with the results byte-compared. Identical must always be
// true; Speedup depends on the host's core count.
type RowParallel struct {
	Name       string        `json:"name"`
	Units      int           `json:"units"`
	Jobs       int           `json:"jobs"`
	SeqCompile time.Duration `json:"seq_compile_ns"`
	ParCompile time.Duration `json:"par_compile_ns"`
	SeqAnalyze time.Duration `json:"seq_analyze_ns"`
	ParAnalyze time.Duration `json:"par_analyze_ns"`
	Speedup    float64       `json:"speedup"`
	Identical  bool          `json:"identical"`
}

// dumpBytes serializes a database for byte-comparison.
func dumpBytes(p *prim.Program) ([]byte, error) {
	var buf bytes.Buffer
	if err := objfile.Write(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// setsDigest folds every symbol's points-to set into one FNV-1a hash, so
// two results can be compared without materializing both side by side.
func setsDigest(n int, res pts.Result) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	for i := 0; i < n; i++ {
		set := res.PointsTo(prim.SymID(i))
		mix(uint64(len(set)))
		for _, z := range set {
			mix(uint64(uint32(z)))
		}
	}
	return h
}

// RunParallel measures the compile+link and analyze phases of one
// profile at -j 1 and -j jobs (jobs <= 0 means GOMAXPROCS) and verifies
// the outputs are identical.
func RunParallel(p gen.Profile, scale float64, seed int64, jobs int) (RowParallel, error) {
	jobs = parallel.Workers(jobs)
	sp := p.Scale(scale)
	code := gen.Generate(sp, seed)
	row := RowParallel{Name: p.Name, Units: len(code.Units()), Jobs: jobs}

	opts := frontend.Options{Mode: frontend.FieldBased}
	start := time.Now()
	seqDB, err := driver.Compile(context.Background(), code.Units(), code.Loader(), opts, 1, nil)
	if err != nil {
		return row, fmt.Errorf("%s: %w", p.Name, err)
	}
	row.SeqCompile = time.Since(start)
	start = time.Now()
	parDB, err := driver.Compile(context.Background(), code.Units(), code.Loader(), opts, jobs, nil)
	if err != nil {
		return row, fmt.Errorf("%s: %w", p.Name, err)
	}
	row.ParCompile = time.Since(start)

	seqBytes, err := dumpBytes(seqDB)
	if err != nil {
		return row, err
	}
	parBytes, err := dumpBytes(parDB)
	if err != nil {
		return row, err
	}
	row.Identical = bytes.Equal(seqBytes, parBytes)

	cfg := core.DefaultConfig()
	cfg.Jobs = 1
	start = time.Now()
	seqRes, err := core.Solve(pts.NewMemSource(seqDB), cfg)
	if err != nil {
		return row, err
	}
	row.SeqAnalyze = time.Since(start)
	cfg.Jobs = jobs
	start = time.Now()
	parRes, err := core.Solve(pts.NewMemSource(parDB), cfg)
	if err != nil {
		return row, err
	}
	row.ParAnalyze = time.Since(start)

	// Full Metrics are not compared: -j >= 2 selects the wave fixpoint,
	// whose schedule-dependent counters (passes, cache hits, ...)
	// legitimately differ from the sequential reference. The analysis
	// outcome — every points-to set and the outcome metrics — must match.
	n := len(seqDB.Syms)
	sm, pm := seqRes.Metrics(), parRes.Metrics()
	if setsDigest(n, seqRes) != setsDigest(n, parRes) ||
		sm.PointerVars != pm.PointerVars || sm.Relations != pm.Relations {
		row.Identical = false
	}

	seqTotal := row.SeqCompile + row.SeqAnalyze
	parTotal := row.ParCompile + row.ParAnalyze
	if parTotal > 0 {
		row.Speedup = float64(seqTotal) / float64(parTotal)
	}
	return row, nil
}

// RunParallelAll measures every Table 2 workload.
func RunParallelAll(scale float64, seed int64, jobs int) ([]RowParallel, error) {
	var out []RowParallel
	for _, p := range gen.Table2 {
		r, err := RunParallel(p, scale, seed, jobs)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatParallel renders the sequential-vs-parallel comparison.
func FormatParallel(wr io.Writer, rows []RowParallel) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunits\tjobs\tcompile -j1\tcompile -jN\tanalyze -j1\tanalyze -jN\tspeedup\tidentical")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%.2fx\t%v\n",
			r.Name, r.Units, r.Jobs,
			fmtDur(r.SeqCompile), fmtDur(r.ParCompile),
			fmtDur(r.SeqAnalyze), fmtDur(r.ParAnalyze),
			r.Speedup, r.Identical)
	}
	tw.Flush()
}

// WriteParallelJSON records the rows under the shared Meta header so
// runs are comparable across hosts and revisions.
func WriteParallelJSON(path string, rows []RowParallel, meta Meta) error {
	meta.Table = "parallel-pipeline"
	return writeBenchJSON(path, meta, rows)
}
