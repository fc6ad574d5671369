package cla

import (
	"context"
	"sync"

	"cla/internal/claerr"
	"cla/internal/depend"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/snapfile"
)

// Algorithm selects a points-to solver.
type Algorithm int

// Solver algorithms.
const (
	// PreTransitive is the paper's pre-transitive graph algorithm with
	// cached reachability and cycle elimination (the default).
	PreTransitive Algorithm = iota
	// WorklistAndersen is the classic transitively-closed baseline.
	WorklistAndersen
	// SteensgaardUnify is the unification-based baseline.
	SteensgaardUnify
	// BitVectorAndersen is Andersen's analysis over dense bit-vector
	// sets, another subset-based implementation built on the same
	// database (Section 4 of the paper).
	BitVectorAndersen
	// OneLevelFlow is Das's hybrid (PLDI 2000, the paper's reference
	// [8]): directional subset edges at the top level of the points-to
	// graph, unification below it.
	OneLevelFlow
)

// solver maps the public algorithm onto the driver's solver; the two
// enumerations share one order.
func (a Algorithm) solver() driver.Solver { return driver.Solver(a) }

// String returns the solver's flag spelling, matching the -solver names
// the CLIs accept.
func (a Algorithm) String() string { return a.solver().String() }

// ExtModel selects how undefined externals are treated, making the
// analysis sound on incomplete programs (libraries, single modules,
// programs calling undefined library code).
type ExtModel int

// Extern models, from no modeling to full PIP-style closure.
const (
	// ExtModelUnsound ignores undefined externals: reads from them point
	// nowhere. This is the classic (unsound) default and leaves the
	// database byte-for-byte untouched.
	ExtModelUnsound ExtModel = iota
	// ExtModelBlanket adds one abstract external-world object: undefined
	// functions return it, their pointer arguments escape into it, and
	// undefined globals may point to it.
	ExtModelBlanket
	// ExtModelEscape is ExtModelBlanket plus mutual aliasing among escaped
	// objects: external code may store any escaped pointer into any
	// escaped object.
	ExtModelEscape
)

// String returns the flag spelling ("unsound", "blanket", "escape").
func (m ExtModel) String() string { return m.model().String() }

func (m ExtModel) model() extmodel.Model {
	switch m {
	case ExtModelBlanket:
		return extmodel.Blanket
	case ExtModelEscape:
		return extmodel.Escape
	}
	return extmodel.Unsound
}

// ParseExtModel parses a model name as spelled on the -extmodel flags;
// the empty string selects ExtModelUnsound.
func ParseExtModel(name string) (ExtModel, error) {
	m, err := extmodel.ParseModel(name)
	if err != nil {
		return ExtModelUnsound, claerr.New(claerr.PhaseUsage, err)
	}
	switch m {
	case extmodel.Blanket:
		return ExtModelBlanket, nil
	case extmodel.Escape:
		return ExtModelEscape, nil
	}
	return ExtModelUnsound, nil
}

// UndefExtern is one referenced-but-undefined external symbol.
type UndefExtern struct {
	// Name is the symbol name; Func distinguishes functions from data.
	Name string
	Func bool
	// File and Line locate the first reference.
	File string
	Line int
}

// Undefined inventories the externals the database references but does
// not define, in stable order. A non-empty result means the database is
// an incomplete program: analyzing it with ExtModelUnsound is unsound.
func (db *Database) Undefined() []UndefExtern {
	var out []UndefExtern
	for _, u := range extmodel.Undefined(db.prog) {
		out = append(out, UndefExtern{
			Name: u.Name,
			Func: u.Kind == prim.SymFunc,
			File: u.Loc.File,
			Line: int(u.Loc.Line),
		})
	}
	return out
}

// AnalyzeOptions configures an analysis run. It is WorkspaceOptions:
// the one-shot analyze entry points read its analyze half (Algorithm,
// ExtModel, the ablation toggles, Jobs, Observer). Under a non-unsound
// ExtModel the database itself is not modified; the analysis runs over
// an extended copy.
type AnalyzeOptions = WorkspaceOptions

// Analysis holds a solved points-to relation over a database.
type Analysis struct {
	db   *Database
	src  pts.Source
	res  pts.Result
	alg  Algorithm        // the solver that produced res
	ext  ExtModel         // the extern model the solve ran under
	r    *objfile.Reader  // non-nil for AnalyzeFile
	snap *snapfile.Reader // non-nil for OpenSnapshot
	o    *obs.Observer    // non-nil when an Observer was attached
	gen  uint64           // workspace generation; 0 for one-shot analyses

	// evOnce lazily builds the query evaluator shared by Analysis.Query
	// and Serve (see serve.go).
	evOnce sync.Once
	ev     *evalState
	evErr  error
}

// Analyze runs points-to analysis over the database.
func (db *Database) Analyze(opts *AnalyzeOptions) (*Analysis, error) {
	return db.AnalyzeCtx(context.Background(), opts)
}

// AnalyzeCtx is Analyze under a context: the solver fixpoint checks for
// cancellation and returns ctx's error when it fires. Under a non-unsound
// ExtModel the Analysis is backed by an extended copy of db (reachable via
// Analysis.Database) holding the external-world symbols; db itself is
// untouched.
func (db *Database) AnalyzeCtx(ctx context.Context, opts *AnalyzeOptions) (*Analysis, error) {
	adb := db
	if m := opts.extModel(); m != ExtModelUnsound {
		prog, _ := extmodel.ApplyClone(db.prog, m.model())
		adb = &Database{prog: prog}
	}
	src := pts.NewMemSource(adb.prog)
	res, err := solve(ctx, src, opts)
	if err != nil {
		return nil, claerr.New(claerr.PhaseAnalyze, err)
	}
	return &Analysis{db: adb, src: src, res: res, alg: opts.algorithm(),
		ext: opts.extModel(), o: opts.observer()}, nil
}

// AnalyzeFile opens a serialized database and analyzes it with demand
// loading directly from the file — the full CLA analyze phase. Call Close
// when done.
func AnalyzeFile(path string, opts *AnalyzeOptions) (*Analysis, error) {
	return AnalyzeFileCtx(context.Background(), path, opts)
}

// AnalyzeFileCtx is AnalyzeFile under a context (see AnalyzeCtx). A
// non-unsound ExtModel materializes the database into memory (the model's
// constraints have no blocks in the file to demand-load from).
func AnalyzeFileCtx(ctx context.Context, path string, opts *AnalyzeOptions) (*Analysis, error) {
	r, err := objfile.Open(path)
	if err != nil {
		return nil, claerr.File(claerr.PhaseObject, path, err)
	}
	if m := opts.extModel(); m != ExtModelUnsound {
		prog, err := r.Program()
		r.Close()
		if err != nil {
			return nil, claerr.File(claerr.PhaseObject, path, err)
		}
		extmodel.Apply(prog, m.model())
		src := pts.NewMemSource(prog)
		res, err := solve(ctx, src, opts)
		if err != nil {
			return nil, claerr.File(claerr.PhaseAnalyze, path, err)
		}
		db := &Database{prog: prog}
		return &Analysis{db: db, src: src, res: res, alg: opts.algorithm(),
			ext: m, o: opts.observer()}, nil
	}
	src := &pts.FileSource{R: r}
	res, err := solve(ctx, src, opts)
	if err != nil {
		r.Close()
		return nil, claerr.File(claerr.PhaseAnalyze, path, err)
	}
	r.LoadStats().Publish(opts.observer())
	// Materialize symbols for Object accessors.
	prog := &prim.Program{Syms: append([]prim.Symbol(nil), r.Syms()...)}
	db := &Database{prog: prog}
	return &Analysis{db: db, src: src, res: res, alg: opts.algorithm(),
		r: r, o: opts.observer()}, nil
}

// Close releases the underlying file for AnalyzeFile analyses and the
// snapshot mapping for OpenSnapshot ones. After Close, objects returned
// by a snapshot-backed analysis's queries must not be used.
func (a *Analysis) Close() error {
	if a.r != nil {
		return a.r.Close()
	}
	if a.snap != nil {
		return a.snap.Close()
	}
	return nil
}

func solve(ctx context.Context, src pts.Source, opts *AnalyzeOptions) (pts.Result, error) {
	return driver.Analyze(ctx, src, opts.algorithm().solver(), opts.coreConfig(), opts.observer())
}

// Database returns the analyzed database.
func (a *Analysis) Database() *Database { return a.db }

// Generation returns the workspace generation this analysis snapshots,
// numbered from 1. One-shot analyses (Analyze, AnalyzeFile,
// OpenSnapshot) are generation 1 of an implicit single-generation
// workspace.
func (a *Analysis) Generation() uint64 {
	if a.gen == 0 {
		return 1
	}
	return a.gen
}

// PointsTo returns the objects obj may point to.
func (a *Analysis) PointsTo(obj Object) []Object {
	if !obj.Valid() {
		return nil
	}
	var out []Object
	for _, z := range a.res.PointsTo(obj.id) {
		out = append(out, Object{db: a.db, id: z})
	}
	return out
}

// PointsToName returns the union of points-to sets over all objects with
// the given name.
func (a *Analysis) PointsToName(name string) []Object {
	seen := map[prim.SymID]bool{}
	var out []Object
	for _, o := range a.db.Lookup(name) {
		for _, z := range a.res.PointsTo(o.id) {
			if !seen[z] {
				seen[z] = true
				out = append(out, Object{db: a.db, id: z})
			}
		}
	}
	return out
}

// MayAlias reports whether two pointer objects may point to a common
// location.
func (a *Analysis) MayAlias(x, y Object) bool {
	if !x.Valid() || !y.Valid() {
		return false
	}
	xs := a.res.PointsTo(x.id)
	ys := a.res.PointsTo(y.id)
	i, j := 0, 0
	for i < len(xs) && j < len(ys) {
		switch {
		case xs[i] < ys[j]:
			i++
		case xs[i] > ys[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Metrics reports solver statistics (the measurement columns of the
// paper's Table 3).
type Metrics struct {
	PointerVars  int
	Relations    int
	InCore       int
	Loaded       int
	InFile       int
	Passes       int
	Unifications int
}

// Metrics returns the analysis statistics.
func (a *Analysis) Metrics() Metrics {
	m := a.res.Metrics()
	return Metrics{
		PointerVars:  m.PointerVars,
		Relations:    m.Relations,
		InCore:       m.InCore,
		Loaded:       m.Loaded,
		InFile:       m.InFile,
		Passes:       m.Passes,
		Unifications: m.Unifications,
	}
}

// DependOptions configures a dependence query.
type DependOptions struct {
	// NonTargets are objects asserted not to depend on the target;
	// traversal neither reports nor crosses them.
	NonTargets []Object
	// DropWeak excludes chains that pass through weak operations.
	DropWeak bool
}

// Dependent is one object dependent on the target, with its chain class.
type Dependent struct {
	Object Object
	// Strong reports whether the best chain uses only shape-preserving
	// operations (Table 1).
	Strong bool
	// Distance is the best chain's length.
	Distance int
	// Chain is the printable dependence chain (Figure 1 format).
	Chain string
}

// Dependence runs the forward data-dependence analysis of the paper's
// Section 2 from the given target objects.
func (a *Analysis) Dependence(targets []Object, opts *DependOptions) ([]Dependent, error) {
	var ids []prim.SymID
	for _, t := range targets {
		if !t.Valid() {
			return nil, claerr.Newf(claerr.PhaseQuery, "invalid target object")
		}
		ids = append(ids, t.id)
	}
	dopts := depend.Options{NonTargets: map[prim.SymID]bool{}}
	if opts != nil {
		dopts.DropWeak = opts.DropWeak
		for _, nt := range opts.NonTargets {
			dopts.NonTargets[nt.id] = true
		}
	}
	res, err := depend.Analyze(a.src, a.res, ids, dopts)
	if err != nil {
		return nil, claerr.New(claerr.PhaseQuery, err)
	}
	var out []Dependent
	for _, d := range res.Dependents() {
		out = append(out, Dependent{
			Object:   Object{db: a.db, id: d.Sym},
			Strong:   d.Strength == prim.Strong,
			Distance: d.Dist,
			Chain:    res.FormatChain(d.Sym),
		})
	}
	return out, nil
}

// DependenceByName is a convenience wrapper targeting every object named
// name.
func (a *Analysis) DependenceByName(name string, opts *DependOptions) ([]Dependent, error) {
	targets := a.db.Lookup(name)
	if len(targets) == 0 {
		return nil, claerr.Newf(claerr.PhaseQuery, "no object named %q: %w", name, claerr.ErrNotFound)
	}
	return a.Dependence(targets, opts)
}
