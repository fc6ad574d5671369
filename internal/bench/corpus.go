package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/prim"
	"cla/internal/pts"
)

// RowCorpus is one extern model's conformance run over the real-C corpus
// (examples/corpus): how fast the genuine sources parse and solve, how
// much the model inflates the points-to relation of the original program
// symbols, and what the check suite yields under it. The unsound row is
// the baseline every inflation figure is relative to.
type RowCorpus struct {
	Model string
	// Corpus shape: files and physical source lines parsed, plus the
	// database size after the model's constraints were added.
	Files   int
	Lines   int
	Syms    int
	Assigns int
	// Undefined-external inventory.
	UndefFuncs   int
	UndefGlobals int
	// ParseTime covers compile+link of the whole corpus (identical across
	// rows; repeated for self-contained rows). SolveTime is the
	// pre-transitive solve of the modeled database.
	ParseTime time.Duration
	SolveTime time.Duration
	// PtsSize sums the points-to sets of the original program symbols
	// (model-internal symbols excluded); Inflation is PtsSize relative to
	// the unsound baseline.
	PtsSize   int
	Inflation float64
	// Check yield: deref false-positive candidates, escape reports, and
	// the audit's downgraded-verdict counts.
	Derefs          int
	Escapes         int
	DerefDowngraded int
	CallsDowngraded int
}

// countCorpusLines counts physical lines across the corpus's .c and .h
// files, the denominator of the parse-rate figure.
func countCorpusLines(dir string) (files, lines int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		ext := filepath.Ext(e.Name())
		if e.IsDir() || (ext != ".c" && ext != ".h") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, 0, err
		}
		files++
		lines += bytes.Count(data, []byte("\n"))
	}
	return files, lines, nil
}

// RunCorpus compiles the corpus directory once, then runs every extern
// model over it: solve, measure inflation against the unsound baseline,
// and collect the check suite's yield.
func RunCorpus(dir string, jobs int) ([]RowCorpus, error) {
	files, lines, err := countCorpusLines(dir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	units, err := driver.Units(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", dir, err)
	}
	base, err := driver.Compile(context.Background(), units, cpp.OSLoader{Dirs: []string{dir}}, frontend.Options{}, jobs, nil)
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", dir, err)
	}
	parseTime := time.Since(start)
	orig := len(base.Syms)

	undef := extmodel.Undefined(base)
	nFuncs, nGlobals := 0, 0
	for _, u := range undef {
		if u.Kind == prim.SymFunc {
			nFuncs++
		} else {
			nGlobals++
		}
	}

	var rows []RowCorpus
	baseline := 0
	for _, m := range extmodel.Models() {
		prog, _ := extmodel.ApplyClone(base, m)
		row := RowCorpus{
			Model: m.String(), Files: files, Lines: lines,
			Syms: len(prog.Syms), Assigns: len(prog.Assigns),
			UndefFuncs: nFuncs, UndefGlobals: nGlobals,
			ParseTime: parseTime,
		}

		cfg := core.DefaultConfig()
		cfg.Jobs = jobs
		start = time.Now()
		res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), driver.PreTransitive, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("corpus %s/%s: %w", dir, m, err)
		}
		row.SolveTime = time.Since(start)
		for i := 0; i < orig; i++ {
			row.PtsSize += len(res.PointsTo(prim.SymID(i)))
		}
		if m == extmodel.Unsound {
			baseline = row.PtsSize
		}
		if baseline > 0 {
			row.Inflation = float64(row.PtsSize) / float64(baseline)
		}

		rep, err := checks.Run(prog, res, checks.Options{
			Checks:   checks.AllChecksAudited(),
			Jobs:     jobs,
			ExtModel: m.String(),
		})
		if err != nil {
			return nil, fmt.Errorf("corpus %s/%s: %w", dir, m, err)
		}
		counts := rep.CountByCheck()
		row.Derefs = counts[checks.Deref]
		row.Escapes = counts[checks.Escape]
		if rep.Audit != nil {
			row.DerefDowngraded = rep.Audit.DerefDowngraded
			row.CallsDowngraded = rep.Audit.CallsDowngraded
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatCorpus renders the conformance table, one row per extern model.
func FormatCorpus(wr io.Writer, rows []RowCorpus) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tfiles\tlines\tsyms\tassigns\tundef\tparse\tsolve\tpts\tinflation\tderefs\tescapes\tdowngraded")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d+%d\t%s\t%s\t%d\t%.2fx\t%d\t%d\t%d+%d\n",
			r.Model, r.Files, r.Lines, r.Syms, r.Assigns,
			r.UndefFuncs, r.UndefGlobals,
			fmtDur(r.ParseTime), fmtDur(r.SolveTime),
			r.PtsSize, r.Inflation, r.Derefs, r.Escapes,
			r.DerefDowngraded, r.CallsDowngraded)
	}
	tw.Flush()
}
