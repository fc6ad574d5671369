// Package driver orchestrates the CLA pipeline end to end — compile each
// translation unit, link the databases, run an analysis — for the command
// line tools, the incremental pipeline and the benchmark harness. It has
// one entry point per phase pair: Compile (compile + link) and Analyze.
// It also says what a tool's inputs mean (Units, ResolveInputs).
package driver

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/linker"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/bitvec"
	"cla/internal/pts/onelevel"
	"cla/internal/pts/steens"
	"cla/internal/pts/worklist"
)

// Solver selects a points-to algorithm.
type Solver int

// Available solvers.
const (
	// PreTransitive is the paper's algorithm (internal/core).
	PreTransitive Solver = iota
	// Worklist is the transitively-closed baseline.
	Worklist
	// Steensgaard is the unification baseline.
	Steensgaard
	// BitVector is Andersen's analysis with dense bit-vector sets.
	BitVector
	// OneLevel is Das's one-level flow hybrid: directional at the top
	// level, unification below.
	OneLevel
)

func (s Solver) String() string {
	switch s {
	case PreTransitive:
		return "pre-transitive"
	case Worklist:
		return "worklist"
	case Steensgaard:
		return "steensgaard"
	case BitVector:
		return "bitvec"
	case OneLevel:
		return "one-level"
	}
	return fmt.Sprintf("Solver(%d)", int(s))
}

// ParseSolver maps a CLI name to a Solver.
func ParseSolver(name string) (Solver, error) {
	switch name {
	case "pretrans", "pre-transitive", "core":
		return PreTransitive, nil
	case "worklist", "andersen-closed":
		return Worklist, nil
	case "steens", "steensgaard", "unify":
		return Steensgaard, nil
	case "bitvec", "bitvector":
		return BitVector, nil
	case "onelevel", "one-level", "das":
		return OneLevel, nil
	}
	return 0, fmt.Errorf("unknown solver %q (want pretrans, worklist, steens, bitvec or onelevel)", name)
}

// Compile compiles the named units through loader on up to jobs workers
// (jobs <= 0 means GOMAXPROCS) and links the results with the sequential
// fold. It is the one-shot pipeline for every input form, and the
// reference the incremental pipeline must equal. Each translation unit
// is an independent compile — its own preprocessor pass over its own
// includes — so units fan out freely; results land in unit order,
// making the output identical to a sequential compile and link. A
// per-unit failure is wrapped with the unit path, and with several
// failures the lowest-numbered unit's error is reported, matching
// sequential behaviour. A cancellation stops undispatched unit
// compiles and aborts before the link.
//
// The units share one frontend.Preambles, so a leading #include they
// have in common is preprocessed, parsed, checked and lowered once; the
// programs are the ones separate compiles give.
//
// Under an observer the fan-out runs inside a "compile" span with one
// span per translation unit on a track keyed by the unit's index (not the
// worker's), then the link phase is traced by linker.LinkTraced. The
// nil observer costs nothing.
func Compile(ctx context.Context, units []string, loader cpp.Loader, opts frontend.Options, jobs int, o *obs.Observer) (*prim.Program, error) {
	sp := o.Start("compile")
	o.SetCounter("compile.units", int64(len(units)))
	pre := frontend.NewPreambles()
	progs := make([]*prim.Program, len(units))
	err := parallel.ForEachCtx(ctx, jobs, len(units), func(i int) error {
		usp := o.StartTrack(i+1, "unit "+filepath.Base(units[i]))
		defer usp.End()
		p, err := pre.CompileFile(units[i], loader, opts)
		if err != nil {
			return fmt.Errorf("driver: compile %s: %w", units[i], err)
		}
		progs[i] = p
		return nil
	})
	sp.End()
	hits, misses, rechecks := pre.Counts()
	o.Counter("compile.preamble_hits").Add(hits)
	o.Counter("compile.preamble_misses").Add(misses)
	o.Counter("compile.preamble_rechecks").Add(rechecks)
	if err != nil {
		return nil, err
	}
	f, err := linker.LinkTraced(nil, progs, o)
	if err != nil {
		return nil, err
	}
	return f.Prog, nil
}

// Analyze runs the selected solver over src. cfg applies to the
// pre-transitive solver; cfg.Jobs also selects its phase-parallel wave
// fixpoint when >= 2 (the result is byte-identical at any -j) and bounds
// the bit-vector solver's final-set materialization. The worklist
// solver is sequential at any cfg.Jobs. The pre-transitive and worklist
// solvers check for cancellation inside their fixpoints (per wave or pop
// batch, and per few hundred rule applications); the remaining
// whole-program solvers (Steensgaard, bit-vector, one-level) check only
// at entry, as their single pass over the database is not interruptible.
//
// Under an observer the solve runs inside an "analyze" span and the
// converged metrics are published into the observer's solver.* counters
// — the publish-at-end idiom, so the solver's hot loop never touches the
// observer. A background sampler records the heap high-water mark of the
// solve into the analyze.heap_peak_bytes gauge (the paper's Table 2
// memory column). The nil observer costs nothing.
func Analyze(ctx context.Context, src pts.Source, solver Solver, cfg core.Config, o *obs.Observer) (pts.Result, error) {
	return observe(ctx, o, func() (pts.Result, error) { return solve(ctx, src, solver, cfg) })
}

// AnalyzeFrom is Analyze for the pre-transitive solver, warm-started from
// the previous generation prev through ed (core.SolveFrom). When prev
// cannot seed src it solves from scratch, inside the same span; warm
// reports which of the two ran.
func AnalyzeFrom(ctx context.Context, src pts.Source, cfg core.Config, prev *core.Result, ed core.Edit, o *obs.Observer) (res pts.Result, warm bool, err error) {
	res, err = observe(ctx, o, func() (pts.Result, error) {
		r, err := core.SolveFrom(ctx, src, cfg, prev, ed)
		if errors.Is(err, core.ErrNoWarmStart) {
			return core.SolveCtx(ctx, src, cfg)
		}
		warm = err == nil
		return r, err
	})
	return res, warm, err
}

// watchHeap starts the heap sampler; tests replace it to fault it.
var watchHeap = obs.WatchHeap

// observe runs one solve inside the "analyze" span and heap watcher and
// publishes its metrics to a non-nil observer. A panic in the heap
// sampler fails the solve as a *parallel.PanicError.
func observe(ctx context.Context, o *obs.Observer, solve func() (pts.Result, error)) (pts.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := o.Start("analyze")
	stopHeap := watchHeap(o.Gauge("analyze.heap_peak_bytes"), 0)
	res, err := solve()
	if v, stack := stopHeap(); v != nil {
		err = &parallel.PanicError{Value: v, Stack: stack}
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	if o != nil {
		// Reading the metrics counts them (core.Result.Metrics): only
		// for an observer that will see them.
		res.Metrics().Publish(o)
	}
	return res, nil
}

func solve(ctx context.Context, src pts.Source, solver Solver, cfg core.Config) (pts.Result, error) {
	switch solver {
	case PreTransitive:
		return core.SolveCtx(ctx, src, cfg)
	case Worklist:
		return worklist.Solve(ctx, src)
	case Steensgaard:
		return steens.Solve(src)
	case BitVector:
		return bitvec.Solve(src, cfg.Jobs)
	case OneLevel:
		return onelevel.Solve(src)
	}
	return nil, fmt.Errorf("driver: unknown solver %d", solver)
}
