// Package cla is a fast aliasing-analysis toolkit for C code bases,
// reproducing Heintze & Tardieu's compile-link-analyze (CLA) architecture
// and pre-transitive points-to algorithm (PLDI 2001).
//
// The workflow mirrors a compiler toolchain:
//
//	db1, _ := cla.CompileFile("a.c", nil)     // compile: C → assignment database
//	db2, _ := cla.CompileFile("b.c", nil)
//	db, _ := cla.Link(db1, db2)               // link: merge databases
//	an, _ := db.Analyze(nil)                  // analyze: points-to solving
//	for _, obj := range an.PointsToName("p") { ... }
//
// Databases serialize to an indexed binary format supporting demand
// loading (WriteFile / OpenFile / AnalyzeFile), and analyses feed the
// forward data-dependence tool of the paper's Section 2 (Analysis.
// Dependence), which finds every object whose type must change together
// with a target object and ranks the dependence chains.
package cla

import (
	"context"

	"cla/internal/claerr"
	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/incr"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/prim"
)

// StructMode selects how struct/union fields are modeled.
type StructMode int

// Struct modes (see the paper's Section 3).
const (
	// FieldBased maps x.f to the per-struct-type field variable S.f.
	FieldBased StructMode = iota
	// FieldIndependent maps x.f to the base object x.
	FieldIndependent
)

// Options configures the compile phase. It is WorkspaceOptions: the
// one-shot compile entry points read its compile half (Mode,
// IncludeDirs, Defines, ModelStrings, Jobs, Observer). IncludeDirs is the
// whole #include search path for CompileFile and CompileSource, and the
// extra directories after dir for CompileDir.
type Options = WorkspaceOptions

// Database is a linked (or single-unit) primitive-assignment database: the
// object-file contents of the CLA architecture, held in memory.
type Database struct {
	prog *prim.Program
}

// CompileFile compiles one C source file into a database.
func CompileFile(path string, opts *Options) (*Database, error) {
	loader := opts.loader()
	content, name, err := loader.Load(path)
	if err != nil {
		return nil, claerr.File(claerr.PhaseCompile, path, err)
	}
	return compileText(name, content, loader, opts)
}

// CompileSource compiles C source text (name is used in locations).
func CompileSource(name, src string, opts *Options) (*Database, error) {
	return compileText(name, src, opts.loader(), opts)
}

func compileText(name, src string, loader cpp.Loader, opts *Options) (*Database, error) {
	sp := opts.observer().Start("compile " + name)
	defer sp.End()
	prog, err := frontend.CompileSource(name, src, loader, opts.frontend())
	if err != nil {
		return nil, claerr.File(claerr.PhaseCompile, name, err)
	}
	return &Database{prog: prog}, nil
}

// CompileDir compiles and links every .c file in dir, fanning the unit
// compiles out across Options.Jobs workers.
func CompileDir(dir string, opts *Options) (*Database, error) {
	return CompileDirCtx(context.Background(), dir, opts)
}

// CompileDirCtx is CompileDir under a context: a cancellation stops
// undispatched unit compiles and returns ctx's error. Options.IncludeDirs
// joins dir on the #include search path of every unit.
//
// This is the compile half of a single-generation Workspace: it runs
// the incremental pipeline's compile+link front end once (so the output
// is exactly what OpenWorkspace would analyze). For a session that
// stays open and recompiles only what changes, use OpenWorkspace.
func CompileDirCtx(ctx context.Context, dir string, opts *Options) (*Database, error) {
	prog, err := incr.CompileDir(ctx, opts.incrConfig(dir))
	if err != nil {
		return nil, claerr.File(claerr.PhaseCompile, dir, err)
	}
	return &Database{prog: prog}, nil
}

// Link merges databases, unifying global symbols by name.
func Link(dbs ...*Database) (*Database, error) {
	progs := make([]*prim.Program, len(dbs))
	for i, db := range dbs {
		if db == nil {
			return nil, claerr.Newf(claerr.PhaseLink, "nil database at index %d", i)
		}
		progs[i] = db.prog
	}
	merged, err := linker.Link(progs)
	if err != nil {
		return nil, claerr.New(claerr.PhaseLink, err)
	}
	return &Database{prog: merged}, nil
}

// WriteFile serializes the database to the indexed object-file format.
func (db *Database) WriteFile(path string) error {
	return claerr.File(claerr.PhaseObject, path, objfile.WriteFile(path, db.prog))
}

// OpenFile loads a serialized database fully into memory. For the
// demand-loaded analysis path use AnalyzeFile instead.
func OpenFile(path string) (*Database, error) {
	r, err := objfile.Open(path)
	if err != nil {
		return nil, claerr.File(claerr.PhaseObject, path, err)
	}
	defer r.Close()
	prog, err := r.Program()
	if err != nil {
		return nil, claerr.File(claerr.PhaseObject, path, err)
	}
	return &Database{prog: prog}, nil
}

// Object identifies a program object (variable, field, function, heap
// site...) in a database.
type Object struct {
	db *Database
	id prim.SymID
}

// Name returns the object's (possibly synthesized) name, e.g. "x", "S.f",
// "f$ret" or "heap@a.c:10#1".
func (o Object) Name() string { return o.sym().Name }

// Type returns the printable C type.
func (o Object) Type() string { return o.sym().Type }

// Kind describes the object class: "global", "static", "local", "field",
// "temp", "heap", "func", "param", "ret" or "string".
func (o Object) Kind() string { return o.sym().Kind.String() }

// Pos returns the declaration position "file:line".
func (o Object) Pos() string { return o.sym().Loc.String() }

// FuncName returns the enclosing function for locals and parameters.
func (o Object) FuncName() string { return o.sym().FuncName }

// String renders the object like the paper's chains: name/type <file:line>.
func (o Object) String() string { return o.sym().String() }

// Valid reports whether the object exists.
func (o Object) Valid() bool {
	return o.db != nil && int(o.id) >= 0 && int(o.id) < len(o.db.prog.Syms)
}

func (o Object) sym() *prim.Symbol { return o.db.prog.Sym(o.id) }

// Lookup returns all objects with the given source name.
func (db *Database) Lookup(name string) []Object {
	var out []Object
	for i := range db.prog.Syms {
		if db.prog.Syms[i].Name == name {
			out = append(out, Object{db: db, id: prim.SymID(i)})
		}
	}
	return out
}

// Objects returns every program object in the database (excluding
// compiler temporaries).
func (db *Database) Objects() []Object {
	var out []Object
	for i := range db.prog.Syms {
		if db.prog.Syms[i].Kind == prim.SymTemp {
			continue
		}
		out = append(out, Object{db: db, id: prim.SymID(i)})
	}
	return out
}

// Stats summarizes the database (Table 2 columns).
type Stats struct {
	Symbols     int
	ProgramVars int
	// Assignments by kind: x=y, x=&y, *x=y, *x=*y, x=*y.
	Simple, Base, Store, Copy, Load int
}

// Total returns the total assignment count.
func (s Stats) Total() int { return s.Simple + s.Base + s.Store + s.Copy + s.Load }

// Stats summarizes the database.
func (db *Database) Stats() Stats {
	counts := db.prog.CountByKind()
	st := Stats{
		Symbols: len(db.prog.Syms),
		Simple:  counts[prim.Simple],
		Base:    counts[prim.Base],
		Store:   counts[prim.StoreInd],
		Copy:    counts[prim.CopyInd],
		Load:    counts[prim.LoadInd],
	}
	for i := range db.prog.Syms {
		switch db.prog.Syms[i].Kind {
		case prim.SymGlobal, prim.SymStatic, prim.SymLocal, prim.SymField:
			st.ProgramVars++
		}
	}
	return st
}
