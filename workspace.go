package cla

import (
	"context"
	"sync"
	"time"

	"cla/internal/claerr"
	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/incr"
	"cla/internal/obs"
)

// WorkspaceOptions is the one option set of the public API: one
// ctx-first struct covering both halves of the pipeline. A Workspace
// consumes all of it; the one-shot entry points each read their half
// (Options and AnalyzeOptions are the same type under the names those
// entry points take). The zero value (and nil) means: field-based
// structs, pre-transitive solver, unsound extern model, all ablation
// toggles on, Jobs 0 (see Jobs).
type WorkspaceOptions struct {
	// Mode is the struct treatment (default FieldBased, as in the paper).
	Mode StructMode
	// IncludeDirs are extra #include search directories after the
	// workspace directory itself (the whole search path for CompileFile
	// and CompileSource).
	IncludeDirs []string
	// Defines are predefined object-like macros (NAME or NAME=VALUE).
	Defines map[string]string
	// ModelStrings models string literals as objects instead of ignoring
	// them.
	ModelStrings bool

	// Algorithm selects the points-to solver (default PreTransitive).
	Algorithm Algorithm
	// ExtModel closes each generation's database over undefined
	// externals before solving (default ExtModelUnsound).
	ExtModel ExtModel
	// NoCache, NoCycleElim and NoDemandLoad are the pre-transitive
	// solver's ablation toggles. NoCache affects only its sequential
	// fixpoint: the wave fixpoint computes no reachability to cache, so
	// under waves NoCache changes nothing but the cache counts in the
	// metrics.
	NoCache, NoCycleElim, NoDemandLoad bool

	// Jobs bounds compile and solve parallelism. Compiling and
	// materializing the solved sets use GOMAXPROCS workers at 0. The
	// pre-transitive solver runs its wave fixpoint only at Jobs >= 2; at
	// 0 or 1 a scratch solve runs the sequential fixpoint, while a
	// workspace's warm re-solves always run waves. The other solvers
	// solve sequentially at every setting. Analysis results are
	// byte-identical at every setting.
	Jobs int
	// CacheDir, when non-empty, persists compiled unit databases and
	// the latest solved generation there: a new workspace over an
	// unchanged tree starts without parsing, linking or solving
	// anything, and edited sessions only re-parse what changed.
	CacheDir string
	// Observer, when non-nil, records phase spans, the incr.* refresh
	// counters, the incr.refresh latency histogram and its per-phase
	// incr.refresh.{hash,compile,link,solve} split.
	Observer *Observer
}

func (o *WorkspaceOptions) frontend() frontend.Options {
	fo := frontend.Options{}
	if o != nil {
		if o.Mode == FieldIndependent {
			fo.Mode = frontend.FieldIndependent
		}
		fo.ModelStrings = o.ModelStrings
		fo.Defines = o.Defines
	}
	return fo
}

func (o *WorkspaceOptions) observer() *obs.Observer {
	if o == nil {
		return nil
	}
	return o.Observer.internal()
}

// loader searches dirs, then IncludeDirs.
func (o *WorkspaceOptions) loader(dirs ...string) cpp.Loader {
	if o != nil {
		dirs = append(dirs, o.IncludeDirs...)
	}
	return cpp.OSLoader{Dirs: dirs}
}

func (o *WorkspaceOptions) algorithm() Algorithm {
	if o == nil {
		return PreTransitive
	}
	return o.Algorithm
}

func (o *WorkspaceOptions) extModel() ExtModel {
	if o == nil {
		return ExtModelUnsound
	}
	return o.ExtModel
}

func (o *WorkspaceOptions) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if o != nil {
		cfg.Cache = !o.NoCache
		cfg.CycleElim = !o.NoCycleElim
		cfg.DemandLoad = !o.NoDemandLoad
		cfg.Jobs = o.Jobs
	}
	return cfg
}

func (o *WorkspaceOptions) incrConfig(dir string) incr.Config {
	cfg := incr.Config{
		Dir:      dir,
		Frontend: o.frontend(),
		Solver:   o.algorithm().solver(),
		Model:    o.extModel().model(),
		Core:     o.coreConfig(),
		Obs:      o.observer(),
	}
	if o != nil {
		cfg.Includes = o.IncludeDirs
		cfg.Jobs = o.Jobs
		cfg.CacheDir = o.CacheDir
	}
	return cfg
}

// Workspace is a mutable analysis session over a directory of C units —
// the incremental counterpart of CompileDirCtx followed by AnalyzeCtx.
// Each refresh recompiles only the units whose source or include closure
// changed, and relinks and re-solves only when some unit's compiled
// program actually changed, yielding a new immutable generation. Analyses handed out for old generations
// remain valid and queryable; the workspace never mutates them.
//
// All methods are safe for concurrent use; refreshes serialize.
type Workspace struct {
	dir string
	p   *incr.Pipeline
	alg Algorithm
	ext ExtModel
	o   *obs.Observer

	mu  sync.Mutex
	cur *Analysis
}

// OpenWorkspace builds generation 1 of a workspace: a full compile,
// link and solve of every .c file directly under dir (served from
// WorkspaceOptions.CacheDir where valid). The one-shot
//
//	db, _ := cla.CompileDirCtx(ctx, dir, copts)
//	an, _ := db.AnalyzeCtx(ctx, aopts)
//
// pipeline computes exactly a single-generation workspace; OpenWorkspace
// is that plus the ability to move to generation 2.
func OpenWorkspace(ctx context.Context, dir string, opts *WorkspaceOptions) (*Workspace, error) {
	p, err := incr.Open(ctx, opts.incrConfig(dir))
	if err != nil {
		return nil, claerr.File(claerr.PhaseCompile, dir, err)
	}
	w := &Workspace{dir: dir, p: p, alg: opts.algorithm(), ext: opts.extModel(), o: opts.observer()}
	w.cur = w.wrap(p.Current())
	return w, nil
}

// wrap builds the public Analysis view of one pipeline generation.
func (w *Workspace) wrap(r *incr.Result) *Analysis {
	return &Analysis{
		db:  &Database{prog: r.Prog},
		src: r.Src,
		res: r.Res,
		alg: w.alg,
		ext: w.ext,
		o:   w.o,
		gen: r.Gen,
	}
}

// Analysis returns the current generation's immutable snapshot.
func (w *Workspace) Analysis() *Analysis {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cur
}

// Generation returns the current generation number (1 after open).
func (w *Workspace) Generation() uint64 { return w.p.Generation() }

// Refresh re-checks every tracked file plus the directory listing and
// rebuilds what changed. It returns the current Analysis: a new one if
// the analysis changed, the same pointer if nothing did. On error
// (e.g. a syntax error mid-edit) the previous generation stays current.
func (w *Workspace) Refresh(ctx context.Context) (*Analysis, error) {
	return w.update(ctx, nil)
}

// Update is Refresh with a change hint: only the named files (plus the
// directory listing, which catches added and removed units) are
// re-checked, so a no-op probe costs O(hint), not O(workspace).
func (w *Workspace) Update(ctx context.Context, changed ...string) (*Analysis, error) {
	return w.update(ctx, changed)
}

func (w *Workspace) update(ctx context.Context, changed []string) (*Analysis, error) {
	res, _, err := w.p.Update(ctx, changed...)
	if err != nil {
		return nil, claerr.File(claerr.PhaseCompile, w.dir, err)
	}
	return w.adopt(res), nil
}

// TrackedFiles returns every file the current generation read — unit
// sources and their include closures — sorted.
func (w *Workspace) TrackedFiles() []string { return w.p.TrackedFiles() }

// Stale cheaply probes for drift without rebuilding: one stat per
// tracked file plus a directory listing. It returns the paths that look
// changed; pass them to Update to converge.
func (w *Workspace) Stale() (bool, []string) { return w.p.Stale() }

// Watch polls the workspace's tracked files every interval and refreshes
// when they change, calling fn with each new generation's Analysis (or
// with a nil Analysis and the error when a refresh fails — the loop
// keeps running, since a syntax error mid-edit is a normal watch-mode
// state). Watch blocks until ctx is done. Multi-file saves are coalesced
// into one refresh.
func (w *Workspace) Watch(ctx context.Context, interval time.Duration, fn func(*Analysis, error)) error {
	incr.WatchLoop(ctx, w.p, w.p.TrackedFiles, interval, func(r *incr.Result, st incr.RefreshStats, err error) {
		if err != nil {
			if fn != nil {
				fn(nil, claerr.File(claerr.PhaseCompile, w.dir, err))
			}
			return
		}
		if !st.Changed {
			return
		}
		if fn != nil {
			fn(w.adopt(r), nil)
		}
	})
	return ctx.Err()
}

// adopt installs a pipeline result as the current Analysis.
func (w *Workspace) adopt(r *incr.Result) *Analysis {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur == nil || w.cur.gen != r.Gen {
		w.cur = w.wrap(r)
	}
	return w.cur
}

// Close releases the workspace. With a CacheDir it first saves the
// latest solved generation there, so the next workspace over the
// unchanged tree reads it instead of linking and solving. Analyses
// already handed out remain valid.
func (w *Workspace) Close() error { return w.p.Close() }
