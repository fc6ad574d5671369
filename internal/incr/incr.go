// Package incr is the incremental watch-mode pipeline: a long-lived
// compile-link-analyze session over a directory of C units that
// recompiles only what changed. It is the CLA architecture's payoff for
// separate compilation — parsing dominates solving by more than an order
// of magnitude on real code, so a pipeline that re-parses one dirty unit
// instead of a million lines turns an edit-analyze round trip from
// seconds into milliseconds.
//
// The pipeline tracks two layers of reuse, each content-addressed:
//
//   - Unit databases. Every translation unit is keyed by its compile
//     options plus the srchash digest of the unit source and every file
//     in the include closure it actually read (recorded by a tracking
//     loader during compilation). Clean units are reused in memory;
//     with a cache directory configured they are also served from the
//     on-disk Store across sessions, so a fresh process starts without
//     parsing anything.
//   - The fixpoint. Each unit's compiled program is digested
//     (prim.Program.Digest) once, in the compile worker that built it,
//     and its store entry records that digest for later sessions. The
//     solve digest folds the unit digests in unit order with the solver,
//     extern model and configuration identity, and is checked before
//     linking: an unchanged digest keeps the current generation — linked
//     program and fixpoint — with no link and no solve. Link is a
//     deterministic fold of the unit programs and every solver is
//     deterministic, so equal unit programs under an identical
//     configuration reproduce the identical fixpoint, and the reuse is
//     byte-exact by construction. A comment edit that shifts no line
//     therefore costs one unit compile.
//
// Any other change relinks every unit with the one sequential fold
// (linker.LinkTraced) and solves again.
//
// Each successful refresh that changes the analysis yields a new
// *Result — an immutable generation snapshot. Queries in flight against
// an old generation keep it alive; nothing is mutated in place.
package incr

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/linker"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/srchash"
)

// Config parameterizes a pipeline. The zero value of Core is a valid
// ablation setting (everything off); most callers want
// core.DefaultConfig().
type Config struct {
	// Dir is the workspace root: every .c file directly under it is a
	// translation unit, and it is the first #include search directory.
	Dir string
	// Includes are extra #include search directories, after Dir.
	Includes []string
	// Frontend carries the compile options (struct mode, string
	// modeling, defines). They are part of every unit's cache key.
	Frontend frontend.Options
	// Solver selects the points-to algorithm for the analyze phase.
	Solver driver.Solver
	// Model selects the extern-code model applied after linking.
	Model extmodel.Model
	// Core configures the pre-transitive solver's ablation toggles.
	Core core.Config
	// Jobs bounds compile and solve parallelism (<= 0 means
	// GOMAXPROCS). Results are byte-identical at any setting.
	Jobs int
	// CacheDir, when non-empty, enables the on-disk unit store there, so
	// compiled units survive across pipeline sessions.
	CacheDir string
	// Obs receives phase spans, incr.* counters and the incr.refresh
	// latency histogram. Nil disables instrumentation.
	Obs *obs.Observer
}

// dep is one file a unit's compilation read: the unit source itself or a
// header in its include closure.
type dep struct {
	path string // as resolved by the loader
	hash string // srchash of its content at compile time
}

// unit is one translation unit's cached compilation.
type unit struct {
	path   string
	prog   *prim.Program
	deps   []dep  // sorted by path
	digest uint64 // prog.Digest() as compiled; a store entry records it
}

// stamp is a cheap stat-level fingerprint used by staleness probes.
type stamp struct {
	size  int64
	mtime int64
}

// RefreshStats reports what one refresh actually did.
type RefreshStats struct {
	// Units is the workspace's unit count; Recompiled of those were
	// dirty and re-parsed, StoreHits were dirty but served from the
	// on-disk store, and Reused were clean and kept from memory.
	Units, Recompiled, StoreHits, Reused int
	// MergesDone and MergesReused are always zero: the link is one
	// sequential fold with no merge tree. They remain only because the
	// benchmark harness still reads them.
	MergesDone, MergesReused int
	// SolveReused reports that the fixpoint was reused byte-for-byte
	// because the solve digest did not change.
	SolveReused bool
	// Changed reports that the refresh produced a new generation.
	Changed bool
	// Phase wall-clock split.
	Hash, Compile, Link, Solve, Total time.Duration
}

// Result is one immutable generation of the analysis. A Result never
// changes after it is returned; later refreshes produce new Results and
// leave old ones intact, so callers may keep querying a pinned
// generation while the pipeline moves on.
type Result struct {
	// Gen numbers generations from 1.
	Gen uint64
	// Prog is the analyzed program: the linked database with the extern
	// model applied (identical to Linked under the unsound model).
	Prog *prim.Program
	// Linked is the raw linked database before extern modeling.
	Linked *prim.Program
	// Src is the constraint source the solver consumed.
	Src pts.Source
	// Res is the converged points-to fixpoint.
	Res pts.Result
	// Digest identifies the solved configuration: the unit digests in
	// unit order plus solver, model and core config. A unit's digest is
	// that of its program as compiled; a unit served from the store
	// carries the digest recorded when it was compiled, while its
	// decoded program lists the same assignments in block order. Equal
	// digests therefore mean the same compiled units under the same
	// configuration — identical points-to sets and checks reports — but
	// not necessarily byte-identical Linked programs.
	Digest uint64
	// Built is when this generation finished.
	Built time.Time
	// Stats describes the refresh that built this generation.
	Stats RefreshStats
}

// Pipeline is a long-lived incremental compile-link-analyze session.
// All methods are safe for concurrent use; refreshes serialize.
type Pipeline struct {
	cfg   Config
	store *Store

	mu     sync.Mutex
	gen    uint64
	units  map[string]*unit
	stamps map[string]stamp
	cur    *Result
}

// Open builds the first generation: a full compile, link and solve of
// every unit under cfg.Dir (served from the on-disk store where valid,
// so a second session over an unchanged tree parses nothing).
func Open(ctx context.Context, cfg Config) (*Pipeline, error) {
	p, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	if _, _, err := p.refresh(ctx, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// CompileDir runs the pipeline's compile+link front half once and
// returns the linked database: the one directory-compile path, shared by
// the one-shot cla.CompileDir and the tools' directory inputs. Its output
// is exactly what Open analyzes.
func CompileDir(ctx context.Context, cfg Config) (*prim.Program, error) {
	p, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	units, _, err := p.compilePhase(ctx, nil)
	if err != nil {
		return nil, err
	}
	return p.linkPhase(units)
}

func newPipeline(cfg Config) (*Pipeline, error) {
	p := &Pipeline{cfg: cfg, units: map[string]*unit{}}
	if cfg.CacheDir != "" {
		st, err := OpenStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		p.store = st
	}
	return p, nil
}

// Current returns the latest generation snapshot.
func (p *Pipeline) Current() *Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// Generation returns the latest generation number.
func (p *Pipeline) Generation() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// Refresh re-checks every tracked file (unit sources, include closures,
// and the directory listing for added or removed units), rebuilds what
// changed, and returns the current generation — a new one if the
// analysis changed, the existing one otherwise.
func (p *Pipeline) Refresh(ctx context.Context) (*Result, RefreshStats, error) {
	return p.refresh(ctx, nil)
}

// Update is Refresh with a change hint: only the named files (plus the
// directory listing) are re-checked, so the cost of a no-op probe scales
// with the hint, not the workspace. An empty hint re-checks everything,
// like Refresh. Paths are matched against tracked files by cleaned
// absolute path.
func (p *Pipeline) Update(ctx context.Context, changed ...string) (*Result, RefreshStats, error) {
	if len(changed) == 0 {
		return p.refresh(ctx, nil)
	}
	hints := make(map[string]bool, len(changed))
	for _, c := range changed {
		hints[canon(c)] = true
	}
	return p.refresh(ctx, hints)
}

// TrackedFiles returns every file the current generation's compilation
// read — unit sources and include closures — sorted. It is the poll
// watcher's scan set.
func (p *Pipeline) TrackedFiles() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[string]bool{}
	for _, u := range p.units {
		for _, d := range u.deps {
			seen[d.path] = true
		}
	}
	files := make([]string, 0, len(seen))
	for f := range seen {
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}

// Stale probes for drift without rebuilding: it re-stats every tracked
// file against the stamps recorded at the last refresh and re-lists the
// unit directory. It returns the paths that look changed (stat drift,
// removal, or a new unit). A false result is cheap — one stat per
// tracked file and one ReadDir.
func (p *Pipeline) Stale() (bool, []string) {
	p.mu.Lock()
	stamps := p.stamps
	units := make(map[string]bool, len(p.units))
	for path := range p.units {
		units[path] = true
	}
	p.mu.Unlock()

	var changed []string
	for path, st := range stamps {
		fi, err := os.Stat(path)
		if err != nil || fi.Size() != st.size || fi.ModTime().UnixNano() != st.mtime {
			changed = append(changed, path)
		}
	}
	for _, u := range listUnits(p.cfg.Dir) {
		if !units[u] {
			changed = append(changed, u)
		}
	}
	sort.Strings(changed)
	return len(changed) > 0, changed
}

// listUnits returns the sorted .c files directly under dir.
func listUnits(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var units []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".c" {
			units = append(units, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(units)
	return units
}

func canon(path string) string {
	if a, err := filepath.Abs(path); err == nil {
		return a
	}
	return filepath.Clean(path)
}

// hashCache memoizes file hashing within one refresh, so a header shared
// by fifty units is read once, not fifty times.
type hashCache struct {
	mu sync.Mutex
	m  map[string]string // path -> hash, "" for unreadable
}

func newHashCache() *hashCache { return &hashCache{m: map[string]string{}} }

// hash returns the srchash of path's current content, or "" if the file
// is unreadable (which any comparison treats as changed).
func (hc *hashCache) hash(path string) string {
	hc.mu.Lock()
	h, ok := hc.m[path]
	hc.mu.Unlock()
	if ok {
		return h
	}
	h = ""
	if b, err := os.ReadFile(path); err == nil {
		h = srchash.Bytes(b)
	}
	hc.mu.Lock()
	hc.m[path] = h
	hc.mu.Unlock()
	return h
}

// optsFingerprint folds the semantically relevant compile options into
// unit keys.
func optsFingerprint(opts frontend.Options) string {
	keys := make([]string, 0, len(opts.Defines))
	for k, v := range opts.Defines {
		keys = append(keys, k+"="+v)
	}
	sort.Strings(keys)
	return fmt.Sprintf("mode=%d;strings=%v;defines=%v", opts.Mode, opts.ModelStrings, keys)
}

// dirty reports whether any of u's dependencies changed. With a hint
// set, only hinted dependencies are re-checked; without one, all are.
func dirty(u *unit, hints map[string]bool, hc *hashCache) bool {
	for _, d := range u.deps {
		if hints != nil && !hints[canon(d.path)] {
			continue
		}
		if hc.hash(d.path) != d.hash {
			return true
		}
	}
	return false
}

// trackLoader records the resolved path and content hash of every file
// read through it — the unit's dependency closure.
type trackLoader struct {
	inner cpp.Loader
	mu    sync.Mutex
	reads map[string]string // path -> hash
}

func (l *trackLoader) Load(name string) (string, string, error) {
	content, path, err := l.inner.Load(name)
	if err == nil {
		l.mu.Lock()
		l.reads[path] = srchash.String(content)
		l.mu.Unlock()
	}
	return content, path, err
}

func (l *trackLoader) deps() []dep {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]dep, 0, len(l.reads))
	for p, h := range l.reads {
		out = append(out, dep{path: p, hash: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// compileUnit parses one translation unit with dirs as the #include
// search path, recording the closure it reads.
func compileUnit(path string, dirs []string, opts frontend.Options) (*unit, error) {
	tl := &trackLoader{inner: cpp.OSLoader{Dirs: dirs}, reads: map[string]string{}}
	content, rpath, err := tl.Load(path)
	if err != nil {
		return nil, err
	}
	prog, err := frontend.CompileSource(rpath, content, tl, opts)
	if err != nil {
		return nil, err
	}
	return &unit{path: path, prog: prog, deps: tl.deps(), digest: prog.Digest()}, nil
}

// compileFn is the compile worker's compile step, a variable so tests
// can make a worker fail in ways real source cannot.
var compileFn = compileUnit

// compilePhase lists the workspace's units, decides which are dirty
// (under the optional hint set), and recompiles those — from the on-disk
// store when the closure still matches, by parsing otherwise. It returns
// the new sorted unit slice without committing it to the pipeline.
func (p *Pipeline) compilePhase(ctx context.Context, hints map[string]bool) ([]*unit, RefreshStats, error) {
	var st RefreshStats
	o := p.cfg.Obs
	hc := newHashCache()

	paths := listUnits(p.cfg.Dir)
	if len(paths) == 0 {
		return nil, st, fmt.Errorf("incr: no .c files in %s", p.cfg.Dir)
	}
	st.Units = len(paths)

	hashStart := time.Now()
	units := make([]*unit, len(paths))
	var dirtyIdx []int
	for i, path := range paths {
		if u := p.units[path]; u != nil && !dirty(u, hints, hc) {
			units[i] = u
			st.Reused++
			continue
		}
		dirtyIdx = append(dirtyIdx, i)
	}
	st.Hash = time.Since(hashStart)

	compileStart := time.Now()
	if len(dirtyIdx) > 0 {
		sp := o.Start("compile")
		dirs := append([]string{p.cfg.Dir}, p.cfg.Includes...)
		var hits atomic.Int64
		err := parallel.ForEachCtx(ctx, p.cfg.Jobs, len(dirtyIdx), func(k int) error {
			i := dirtyIdx[k]
			path := paths[i]
			if p.store != nil {
				if u, ok := p.store.load(path, dirs, p.cfg.Frontend, hc); ok {
					units[i] = u
					hits.Add(1)
					return nil
				}
			}
			usp := o.StartTrack(k+1, "unit "+filepath.Base(path))
			defer usp.End()
			u, err := compileFn(path, dirs, p.cfg.Frontend)
			if err != nil {
				return fmt.Errorf("incr: compile %s: %w", path, err)
			}
			if p.store != nil {
				p.store.save(u, dirs, p.cfg.Frontend) // best-effort
			}
			units[i] = u
			return nil
		})
		sp.End()
		if err != nil {
			return nil, st, err
		}
		st.StoreHits = int(hits.Load())
		st.Recompiled = len(dirtyIdx) - st.StoreHits
	}
	st.Compile = time.Since(compileStart)
	o.SetCounter("compile.units", int64(len(dirtyIdx)))
	return units, st, nil
}

// linkPhase links the units' programs in unit order.
func (p *Pipeline) linkPhase(units []*unit) (*prim.Program, error) {
	progs := make([]*prim.Program, len(units))
	for i, u := range units {
		progs[i] = u.prog
	}
	return linker.LinkTraced(progs, p.cfg.Obs)
}

// solveDigest identifies one solved configuration: the unit programs'
// digests in unit order plus everything else that shapes the fixpoint.
// It names the linked program without linking it, because Link is a
// deterministic fold of the unit programs. Jobs is deliberately
// excluded — results are byte-identical at any -j.
func (p *Pipeline) solveDigest(units []*unit) uint64 {
	h := srchash.Offset()
	h = srchash.FoldU32(h, uint32(len(units)))
	for _, u := range units {
		h = srchash.FoldU64(h, u.digest)
	}
	h = srchash.FoldU32(h, uint32(p.cfg.Solver))
	h = srchash.FoldU32(h, uint32(p.cfg.Model))
	var bits uint32
	if p.cfg.Core.Cache {
		bits |= 1
	}
	if p.cfg.Core.CycleElim {
		bits |= 2
	}
	if p.cfg.Core.DemandLoad {
		bits |= 4
	}
	h = srchash.FoldU32(h, bits)
	h = srchash.FoldU32(h, uint32(p.cfg.Core.MaxPasses))
	return h
}

// refresh runs one incremental build cycle and commits it atomically:
// on any error the pipeline keeps serving the previous generation
// untouched (a syntax error mid-edit must not take the session down).
func (p *Pipeline) refresh(ctx context.Context, hints map[string]bool) (*Result, RefreshStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	o := p.cfg.Obs

	units, st, err := p.compilePhase(ctx, hints)
	if err != nil {
		return nil, st, err
	}

	digest := p.solveDigest(units)
	var res *Result
	if p.cur != nil && p.cur.Digest == digest {
		// Every unit compiled to the program it had: keep the current
		// generation, with no link, extern-model clone or solve.
		st.SolveReused = true
		res = p.cur
	} else {
		linkStart := time.Now()
		linked, err := p.linkPhase(units)
		if err != nil {
			return nil, st, err
		}
		st.Link = time.Since(linkStart)

		solveStart := time.Now()
		aprog := linked
		if p.cfg.Model != extmodel.Unsound {
			aprog, _ = extmodel.ApplyClone(linked, p.cfg.Model)
		}
		src := pts.NewMemSource(aprog)
		cfg := p.cfg.Core
		cfg.Jobs = p.cfg.Jobs
		r, err := driver.Analyze(ctx, src, p.cfg.Solver, cfg, o)
		if err != nil {
			return nil, st, err
		}
		p.gen++
		st.Changed = true
		res = &Result{
			Gen: p.gen, Prog: aprog, Linked: linked, Src: src, Res: r,
			Digest: digest, Built: time.Now(),
		}
		st.Solve = time.Since(solveStart)
	}
	st.Total = time.Since(start)
	if st.Changed {
		res.Stats = st
	}

	// Commit: new unit set, fresh stat stamps for Stale probes.
	p.units = make(map[string]*unit, len(units))
	stamps := map[string]stamp{}
	for _, u := range units {
		p.units[u.path] = u
		for _, d := range u.deps {
			if _, ok := stamps[d.path]; ok {
				continue
			}
			if fi, err := os.Stat(d.path); err == nil {
				stamps[d.path] = stamp{size: fi.Size(), mtime: fi.ModTime().UnixNano()}
			}
		}
	}
	p.stamps = stamps
	p.cur = res

	o.Gauge("incr.generation").Set(int64(p.gen))
	o.Counter("incr.refreshes").Inc()
	o.Counter("incr.units_recompiled").Add(int64(st.Recompiled))
	o.Counter("incr.units_store_hits").Add(int64(st.StoreHits))
	o.Counter("incr.units_reused").Add(int64(st.Reused))
	if st.SolveReused {
		o.Counter("incr.solve_reused").Inc()
	}
	o.Histogram("incr.refresh").ObserveSince(start)
	return res, st, nil
}
