// Package incr is the incremental watch-mode pipeline: a long-lived
// compile-link-analyze session over a directory of C units that
// recompiles only what changed. It is the CLA architecture's payoff for
// separate compilation — parsing dominates solving by more than an order
// of magnitude on real code, so a pipeline that re-parses one dirty unit
// instead of a million lines turns an edit-analyze round trip from
// seconds into milliseconds.
//
// The pipeline tracks four layers of reuse, each content-addressed:
//
//   - Unit databases. Every translation unit is keyed by its compile
//     options plus the srchash digest of the unit source and every file
//     in the include closure it actually read (recorded by a tracking
//     loader during compilation). Clean units are reused in memory;
//     with a cache directory configured they are also served from the
//     on-disk Store across sessions, so a fresh process starts without
//     parsing anything. A unit served from the store is checked by its
//     manifest alone; its object file is decoded only when a link needs
//     its program.
//   - The token stream. A dirty unit is preprocessed again and offered
//     its previous compile (frontend.CompileSource): when the
//     fingerprint of its tokens, name, lowering options and leading
//     includes' contents is unchanged, parsing, checking, lowering and
//     digesting are cut off, and the unit keeps its program and digest
//     with the closure it just read. A unit served from the store, or
//     whose latest compile failed, has no previous compile to keep.
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
//     therefore costs one unit's preprocessing.
//   - The solved generation. With a cache directory, Close saves the
//     current generation there, when a refresh linked and solved it, as
//     a solved snapshot named by its solve digest. An Open whose units
//     fold to that digest serves generation 1 from it: no object file
//     is decoded and nothing is linked or solved. The first
//     later edit that must link decodes the units and solves from
//     scratch, since a snapshot carries no solver graph to start from.
//
// Any other change links and solves again. When exactly one unit's
// program changed, the link splices it into the current generation's
// link (linker.Relink): the units before it are copied, the ones after
// it copied with their ids shifted, and only its own symbols are looked
// up by name. Where the result would depend on other units' occurrences
// the splice does not keep, or on a unit list that changed, every unit
// is folded again. Both give the fold's program and remap tables, so
// nothing downstream can tell them apart. A pre-transitive solve under
// the Unsound model takes over the current generation's solver and
// re-solves its converged graph in place when the edit only adds, or
// drops only facts that nothing kept can see (warmEdit,
// core.SolveFrom); otherwise, or once a failed or cancelled warm solve
// has discarded that solver, it starts from nothing. Either way it
// reaches the same least fixpoint.
//
// Each successful refresh that changes the analysis yields a new
// *Result — an immutable generation snapshot. Queries in flight against
// an old generation keep it alive; the solver a warm solve edits in
// place is no part of it.
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
	// translation unit (driver.Units), and it is the first #include
	// search directory.
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
	// Jobs bounds compile and solve parallelism (<= 0 means GOMAXPROCS
	// compile workers; a scratch solve runs waves only at >= 2, see
	// core.Config.Jobs). Results are byte-identical at any setting.
	Jobs int
	// CacheDir, when non-empty, enables the on-disk unit store there, so
	// compiled units and the latest solved generation survive across
	// pipeline sessions. Close saves the generation.
	CacheDir string
	// Obs receives phase spans, incr.* counters, the incr.refresh
	// latency histogram and its per-phase split: incr.refresh.hash and
	// incr.refresh.compile for every committed refresh,
	// incr.refresh.link and incr.refresh.solve for those that linked and
	// solved, incr.snapshot.read for each refresh served from a saved
	// generation, and incr.snapshot.write for each save of a solved
	// generation by Close. Nil disables instrumentation.
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
	// compiled is the compile that built prog, which the unit's next
	// compile keeps when its tokens are unchanged (frontend cut-off);
	// nil for a unit served from the store.
	compiled *frontend.Compiled
}

// stamp is a cheap stat-level fingerprint used by staleness probes.
type stamp struct {
	size  int64
	mtime int64
}

func stampOf(fi os.FileInfo) stamp {
	return stamp{size: fi.Size(), mtime: fi.ModTime().UnixNano()}
}

// RefreshStats reports what one refresh actually did.
type RefreshStats struct {
	// Units is the workspace's unit count; Recompiled of those were
	// dirty and re-preprocessed, StoreHits were dirty but served from the
	// on-disk store, and Reused were clean and kept from memory.
	Units, Recompiled, StoreHits, Reused int
	// CutOff counts the recompiled units whose preprocessed tokens
	// matched their previous compile's, so they kept its program and
	// digest without parsing, checking or lowering.
	CutOff int
	// MergesDone and MergesReused are always zero: the link is one
	// sequential fold with no merge tree. They remain only because the
	// benchmark harness still reads them.
	MergesDone, MergesReused int
	// LinkSpliced reports that the link spliced the one changed unit
	// into the current generation's link instead of folding every unit
	// (linker.Relink); the linked program is the fold's either way.
	LinkSpliced bool
	// SolveReused reports that the fixpoint was reused byte-for-byte
	// because the solve digest did not change.
	SolveReused bool
	// Snapshot reports that the new generation was read from the
	// store's saved copy of the generation with its solve digest: no
	// link and no solve ran, so Link and Solve are zero and the read is
	// in Total only. Only an Open is served this way.
	Snapshot bool
	// SolveWarm reports that the new fixpoint was solved starting from
	// the previous generation's graph (core.SolveFrom) rather than from
	// nothing. Its points-to sets, PointerVars and Relations equal a
	// scratch solve's, and so do its cache counts at Jobs >= 2; its
	// Passes, EdgesAdded and Loaded describe the warm solve.
	SolveWarm bool
	// RegionNodes is how many nodes the warm solve's waves recomputed,
	// summed over its waves (core.Result.RegionNodes); 0 unless
	// SolveWarm.
	RegionNodes int
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
	// Linked is the raw linked database before extern modeling, nil for
	// a generation read from the store's saved copy (Stats.Snapshot).
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
	// key names the workspace's saved generations in the store; empty
	// without a store.
	key string
	// saveMu serializes saves; saved is the solve digest of the
	// generation last read from the store or saved there (0 for none).
	saveMu sync.Mutex
	saved  uint64
	// pre memoizes the units' shared leading includes across refreshes;
	// compiles through it give the programs and deps plain ones do.
	pre *frontend.Preambles

	mu     sync.Mutex
	gen    uint64
	units  map[string]*unit
	stamps map[string]stamp
	// failed holds the units whose latest compile failed: the compile
	// units holds for them is not their previous one, so their next
	// compile is not offered it.
	failed map[string]bool
	cur    *Result
	link   linkState // what cur's link folded
}

// Open builds the first generation: a full compile, link and solve of
// every unit under cfg.Dir (served from the on-disk store where valid,
// so a second session over an unchanged tree parses nothing).
func Open(ctx context.Context, cfg Config) (*Pipeline, error) {
	p := &Pipeline{cfg: cfg, units: map[string]*unit{}, failed: map[string]bool{}, pre: frontend.NewPreambles()}
	if cfg.CacheDir != "" {
		st, err := OpenStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		p.store = st
		p.key = p.genKey()
	}
	if _, _, err := p.refresh(ctx, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// Close saves the current generation in the store, when a store is
// configured and a refresh linked and solved that generation, so the
// next Open over the unchanged tree reads it instead of linking and
// solving. The save is best effort, like the unit entries, and Close
// always returns nil. Results already returned stay valid: one served
// from the store was read into memory, not mapped. The pipeline still
// refreshes after Close, and a later Close saves again.
func (p *Pipeline) Close() error {
	if p.store != nil {
		p.saveCurrent()
	}
	return nil
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
// read — unit sources and include closures — sorted. It is the set that
// Stale and a WatchLoop poll stat.
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

// compileUnit compiles one translation unit with dirs as the #include
// search path, through the leading-include memo pre (nil for none),
// recording the closure it reads. prev is the unit's previous compile
// (nil for none): when the unit's preprocessed tokens are unchanged the
// frontend cuts the compile off, and the unit keeps prev's program and
// digest with the closure just read.
func compileUnit(path string, dirs []string, opts frontend.Options, pre *frontend.Preambles, prev *unit) (*unit, error) {
	tl := &trackLoader{inner: cpp.OSLoader{Dirs: dirs}, reads: map[string]string{}}
	content, rpath, err := tl.Load(path)
	if err != nil {
		return nil, err
	}
	var last *frontend.Compiled
	if prev != nil {
		last = prev.compiled
	}
	c, err := pre.CompileSource(rpath, content, tl, opts, last)
	if err != nil {
		return nil, err
	}
	u := &unit{path: path, prog: c.Prog, deps: tl.deps(), compiled: c}
	if u.cutOff(prev) {
		u.digest = prev.digest
	} else {
		u.digest = c.Prog.Digest()
	}
	return u, nil
}

// cutOff reports whether u kept prev's compile.
func (u *unit) cutOff(prev *unit) bool {
	return prev != nil && prev.compiled != nil && u.compiled == prev.compiled
}

// compileFn is the compile worker's compile step, a variable so tests
// can make a worker fail in ways real source cannot, or check each
// cut-off against a full compile.
var compileFn = compileUnit

// compilePhase lists the workspace's units, decides which are dirty
// (under the optional hint set), and recompiles those — from the on-disk
// store when the closure still matches, by parsing otherwise. It returns
// the new sorted unit slice without committing it to the pipeline.
func (p *Pipeline) compilePhase(ctx context.Context, hints map[string]bool) ([]*unit, RefreshStats, error) {
	var st RefreshStats
	o := p.cfg.Obs
	hc := newHashCache()

	paths, err := driver.Units(p.cfg.Dir)
	if err != nil {
		return nil, st, err
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
		var hits, cutoffs atomic.Int64
		failed := make([]bool, len(dirtyIdx))
		preHits, preMisses, preRechecks := p.pre.Counts()
		err := parallel.ForEachCtx(ctx, p.cfg.Jobs, len(dirtyIdx), func(k int) error {
			i := dirtyIdx[k]
			path := paths[i]
			if p.store != nil {
				if u, ok := p.store.lookup(path, dirs, p.cfg.Frontend, hc); ok {
					units[i] = u
					hits.Add(1)
					return nil
				}
			}
			usp := o.StartTrack(k+1, "unit "+filepath.Base(path))
			defer usp.End()
			prev := p.units[path]
			if p.failed[path] {
				prev = nil
			}
			u, err := compileFn(path, dirs, p.cfg.Frontend, p.pre, prev)
			if err != nil {
				failed[k] = true
				return fmt.Errorf("incr: compile %s: %w", path, err)
			}
			cut := u.cutOff(prev)
			if cut {
				cutoffs.Add(1)
				usp.Rename("unit " + filepath.Base(path) + " (cut off)")
			}
			if p.store != nil {
				p.store.save(u, dirs, p.cfg.Frontend, cut) // best-effort
			}
			units[i] = u
			return nil
		})
		sp.End()
		for k, i := range dirtyIdx {
			switch {
			case failed[k]:
				p.failed[paths[i]] = true
			case units[i] != nil:
				delete(p.failed, paths[i])
			}
		}
		st.StoreHits = int(hits.Load())
		st.Recompiled = len(dirtyIdx) - st.StoreHits
		st.CutOff = int(cutoffs.Load())
		o.Counter("compile.cutoff").Add(cutoffs.Load())
		h, m, r := p.pre.Counts()
		o.Counter("compile.preamble_hits").Add(h - preHits)
		o.Counter("compile.preamble_misses").Add(m - preMisses)
		o.Counter("compile.preamble_rechecks").Add(r - preRechecks)
		if st.Recompiled > 0 {
			p.pre.Sweep()
		}
		if err != nil {
			return nil, st, err
		}
	}
	st.Compile = time.Since(compileStart)
	o.SetCounter("compile.units", int64(len(dirtyIdx)))
	return units, st, nil
}

// loadPrograms fills in, in parallel, the programs of the units served
// from their store manifests alone, decoding each unit's object file. A
// unit whose object file is missing or does not decode is compiled
// again and counts as recompiled. Decode and compile time count in
// st.Compile.
func (p *Pipeline) loadPrograms(ctx context.Context, units []*unit, st *RefreshStats) error {
	var todo []int
	for i, u := range units {
		if u.prog == nil {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	start := time.Now()
	sp := p.cfg.Obs.Start("load")
	dirs := append([]string{p.cfg.Dir}, p.cfg.Includes...)
	stored := make([]*unit, len(todo))
	for k, i := range todo {
		stored[k] = units[i]
	}
	recompiled := make([]bool, len(todo))
	err := parallel.ForEachCtx(ctx, p.cfg.Jobs, len(todo), func(k int) error {
		u := stored[k]
		if prog, err := p.store.program(u.path, dirs, p.cfg.Frontend); err == nil {
			units[todo[k]] = &unit{path: u.path, prog: prog, deps: u.deps, digest: u.digest}
			return nil
		}
		nu, err := compileFn(u.path, dirs, p.cfg.Frontend, p.pre, nil)
		if err != nil {
			return fmt.Errorf("incr: compile %s: %w", u.path, err)
		}
		p.store.save(nu, dirs, p.cfg.Frontend, false) // best-effort
		units[todo[k]] = nu
		recompiled[k] = true
		return nil
	})
	sp.End()
	decoded := 0
	for k, u := range stored {
		switch {
		case !recompiled[k]:
			decoded++
			continue
		case p.units[u.path] == u: // kept from memory
			st.Reused--
		default: // served from the store this refresh
			st.StoreHits--
		}
		st.Recompiled++
	}
	p.cfg.Obs.Counter("incr.units_decoded").Add(int64(decoded))
	st.Compile += time.Since(start)
	return err
}

// linkFn is the link step, a variable so tests can make it fail in ways
// real units cannot.
var linkFn = linker.LinkTraced

// linkPhase links the units' programs in unit order, splicing the one
// changed unit into prev, the fold of the current generation, when
// exactly one unit's program changed (nil prev folds every unit).
func (p *Pipeline) linkPhase(prev *linker.Fold, units []*unit) (*linker.Fold, error) {
	progs := make([]*prim.Program, len(units))
	for i, u := range units {
		progs[i] = u.prog
	}
	return linkFn(prev, progs, p.cfg.Obs)
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
	return p.foldConfig(h)
}

// foldConfig folds the solver, extern model and core configuration into
// h.
func (p *Pipeline) foldConfig(h uint64) uint64 {
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
// untouched (a syntax error mid-edit must not take the session down). A
// panic in the build — in a pool task or in the link, symbol map, warm
// start or extern model that run on this goroutine — fails the
// refresh as a *parallel.PanicError carrying its stack.
func (p *Pipeline) refresh(ctx context.Context, hints map[string]bool) (*Result, RefreshStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	o := p.cfg.Obs

	var (
		b  built
		st RefreshStats
	)
	err := parallel.Contain(func() (err error) {
		b, st, err = p.build(ctx, hints)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	res := p.cur
	if b.res != nil {
		p.gen++
		b.res.Gen = p.gen
		res = b.res
		p.link = b.link
	}
	st.Total = time.Since(start)
	if st.Changed {
		res.Stats = st
	}

	// Commit: new unit set, fresh stat stamps for Stale probes.
	p.units = make(map[string]*unit, len(b.units))
	stamps := map[string]stamp{}
	for _, u := range b.units {
		p.units[u.path] = u
		for _, d := range u.deps {
			if _, ok := stamps[d.path]; ok {
				continue
			}
			if fi, err := os.Stat(d.path); err == nil {
				stamps[d.path] = stampOf(fi)
			}
		}
	}
	p.stamps = stamps
	p.cur = res
	if st.Snapshot {
		p.saveMu.Lock()
		p.saved = res.Digest
		p.saveMu.Unlock()
	}

	o.Gauge("incr.generation").Set(int64(p.gen))
	o.Counter("incr.refreshes").Inc()
	o.Counter("incr.units_recompiled").Add(int64(st.Recompiled))
	o.Counter("incr.units_store_hits").Add(int64(st.StoreHits))
	o.Counter("incr.units_reused").Add(int64(st.Reused))
	switch {
	case st.SolveReused:
		o.Counter("incr.solve_reused").Inc()
	case st.Snapshot:
		o.Counter("incr.solve_snapshot").Inc()
	case st.SolveWarm:
		o.Counter("incr.solve_warm").Inc()
	default:
		o.Counter("incr.solve_scratch").Inc()
	}
	o.Histogram("incr.refresh").ObserveSince(start)
	o.Histogram("incr.refresh.hash").Observe(int64(st.Hash))
	o.Histogram("incr.refresh.compile").Observe(int64(st.Compile))
	if !st.SolveReused && !st.Snapshot {
		if st.LinkSpliced {
			o.Counter("incr.link_spliced").Inc()
		} else {
			o.Counter("incr.link_folded").Inc()
		}
		o.Histogram("incr.refresh.link").Observe(int64(st.Link))
		o.Histogram("incr.refresh.solve").Observe(int64(st.Solve))
	}
	return res, st, nil
}

// built is one refresh's work before its commit: the compiled units and,
// unless the current fixpoint is reused, the new generation (its Gen not
// yet assigned) and what its link folded.
type built struct {
	units []*unit
	res   *Result
	link  linkState
}

// build compiles what changed and, unless the solve digest shows the
// current fixpoint still holds, links (splicing a single changed unit
// into the current link where it can) and solves: warm from
// the current generation where warmEdit allows it, from scratch
// otherwise. An Open is served from the store's saved generation instead
// when it holds one with the solve digest. It reads the pipeline's state
// but changes none of it.
func (p *Pipeline) build(ctx context.Context, hints map[string]bool) (built, RefreshStats, error) {
	units, st, err := p.compilePhase(ctx, hints)
	if err != nil {
		return built{}, st, err
	}
	digest := p.solveDigest(units)
	if p.cur != nil && p.cur.Digest == digest {
		// Every unit compiled to the program it had: keep the current
		// generation, with no link, extern-model clone or solve.
		st.SolveReused = true
		return built{units: units}, st, nil
	}
	if p.cur == nil && p.store != nil {
		if res, ok := p.savedGeneration(digest); ok {
			st.Snapshot, st.Changed = true, true
			return built{units: units, res: res}, st, nil
		}
	}
	if err := p.loadPrograms(ctx, units, &st); err != nil {
		return built{}, st, err
	}
	digest = p.solveDigest(units)

	linkStart := time.Now()
	f, err := p.linkPhase(p.link.fold, units)
	if err != nil {
		return built{}, st, err
	}
	linked := f.Prog
	st.Link = time.Since(linkStart)
	st.LinkSpliced = f.Splice != nil

	solveStart := time.Now()
	aprog := linked
	if p.cfg.Model != extmodel.Unsound {
		aprog, _ = extmodel.ApplyClone(linked, p.cfg.Model)
	}
	src := pts.NewMemSource(aprog)
	cfg := p.cfg.Core
	cfg.Jobs = p.cfg.Jobs
	var r pts.Result
	if prev, ed, ok := p.warmEdit(units, f); ok {
		r, st.SolveWarm, err = driver.AnalyzeFrom(ctx, src, cfg, prev, ed, p.cfg.Obs)
		if st.SolveWarm {
			st.RegionNodes = r.(*core.Result).RegionNodes()
		}
	} else {
		r, err = driver.Analyze(ctx, src, p.cfg.Solver, cfg, p.cfg.Obs)
	}
	if err != nil {
		return built{}, st, err
	}
	st.Changed = true
	st.Solve = time.Since(solveStart)
	res := &Result{
		Prog: aprog, Linked: linked, Src: src, Res: r,
		Digest: digest, Built: time.Now(),
	}
	return built{units: units, res: res, link: linkState{units: units, fold: f}}, st, nil
}
