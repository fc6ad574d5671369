// Package extmodel makes the analysis sound on incomplete programs by
// modeling referenced-but-undefined functions and globals, following the
// blanket-assignment/escape treatment of PIP (Krogstie & Själander).
//
// A linked database normally describes only the code the linker saw; calls
// to undefined externals silently produce nothing, so every points-to fact
// involving them is unsound. Apply closes the program under a chosen model
// by introducing one abstract "external world" object and emitting ordinary
// primitive assignments for the undefined set:
//
//	extp = &ext       the external world, via a helper pointer
//	*extp = extp      external memory may point to external memory
//	extfnp = &extfn   external memory may hold external function pointers
//	*extp = extfnp
//
// per undefined function f (and for the external stand-in function extfn):
//
//	*extp = f$i       every argument escapes into the external world
//	f$ret = extp      f may return the external object itself
//	f$ret = *extp     ... or anything that previously escaped
//
// per undefined global g (Blanket):
//
//	g = extp          external code may write external memory into g
//	g = *extp         ... or any pointer that escaped
//
// and additionally under Escape:
//
//	*extp = g         external code may read g (its value escapes)
//	t = *extp         t ranges over the escaped objects:
//	*extp = *t        anything reachable from an escaped object escapes,
//	*t = extp         and escaped objects may be overwritten with external
//	*t = *extp        memory or with any other escaped pointer
//
// Because the model is expressed in the five primitive forms, every solver
// (pre-transitive, worklist, bitvec, one-level, Steensgaard) inherits it
// with no solver-specific code, and indirect calls that resolve to the
// external stand-in function link through the ordinary FuncRecord path.
package extmodel

import (
	"fmt"

	"cla/internal/prim"
)

// Model selects how undefined external symbols are treated.
type Model uint8

const (
	// Unsound ignores undefined symbols: the historical behavior, and the
	// default. Output is byte-identical to an analysis without this package.
	Unsound Model = iota
	// Blanket introduces the abstract external-world object: undefined
	// functions return it and all their arguments escape into it, and
	// undefined globals may hold it or anything that escaped.
	Blanket
	// Escape extends Blanket: globals passed to unknown code escape too,
	// and all escaped objects are treated as mutually aliased.
	Escape
)

func (m Model) String() string {
	switch m {
	case Unsound:
		return "unsound"
	case Blanket:
		return "blanket"
	case Escape:
		return "escape"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ParseModel parses an -extmodel flag value.
func ParseModel(s string) (Model, error) {
	switch s {
	case "unsound", "":
		return Unsound, nil
	case "blanket":
		return Blanket, nil
	case "escape":
		return Escape, nil
	}
	return Unsound, fmt.Errorf("extmodel: unknown model %q (want unsound, blanket or escape)", s)
}

// Models lists all models in ascending strength order.
func Models() []Model { return []Model{Unsound, Blanket, Escape} }

// Names of the synthesized symbols. The angle brackets keep them outside
// the C identifier space, so they can never collide with program symbols.
const (
	// ExtName is the abstract external-world object.
	ExtName = "<external>"
	// ExtFnName is the stand-in for functions defined in external code.
	ExtFnName = "<external>$fn"

	extPtrName = "<external>$ptr"
	extTmpName = "<external>$tmp"
	extFnPName = "<external>$fnp"
)

// Undef is one referenced-but-undefined external symbol in a linked
// database: a SymFunc without a body, or a SymGlobal declared only via
// plain `extern` (including implicitly declared functions).
type Undef struct {
	Sym  prim.SymID
	Name string
	Kind prim.SymKind
	Loc  prim.Loc
}

// Undefined returns the undefined-external inventory of p in symbol-id
// order. On a linked program the Defined flags have been OR-merged across
// all units, so a clear flag means no unit defines the symbol.
func Undefined(p *prim.Program) []Undef {
	var out []Undef
	for i := range p.Syms {
		s := &p.Syms[i]
		if s.Defined {
			continue
		}
		if s.Kind != prim.SymFunc && s.Kind != prim.SymGlobal {
			continue
		}
		out = append(out, Undef{
			Sym: prim.SymID(i), Name: s.Name, Kind: s.Kind, Loc: s.Loc,
		})
	}
	return out
}

// Info summarizes an Apply run.
type Info struct {
	Model Model
	// Ext is the external-world object, or NoSym under Unsound.
	Ext prim.SymID
	// ExtFn is the external stand-in function, or NoSym under Unsound.
	ExtFn prim.SymID
	// UndefFuncs and UndefGlobals count the modeled undefined symbols.
	UndefFuncs   int
	UndefGlobals int
	// Syms and Assigns count what Apply added to the program.
	Syms    int
	Assigns int
}

// Apply mutates p in place, appending the model's symbols and constraints.
// Under Unsound it is a no-op that leaves p byte-identical. Apply is meant
// to run on a fully linked program, after which p solves like any other
// database. The emission order is deterministic: it depends only on the
// symbol and function-record order of p.
func Apply(p *prim.Program, m Model) Info {
	info := Info{Model: m, Ext: prim.NoSym, ExtFn: prim.NoSym}
	if m == Unsound {
		return info
	}
	undef := Undefined(p)
	syms0, assigns0 := len(p.Syms), len(p.Assigns)

	ext := p.AddSym(prim.Symbol{
		Name: ExtName, Kind: prim.SymExtern, Type: "external", Defined: true,
	})
	extp := p.AddSym(prim.Symbol{
		Name: extPtrName, Kind: prim.SymTemp, Type: "external *", Defined: true,
	})
	info.Ext = ext

	// Model constraints carry the external scope name, so analysis clients
	// (MOD/REF) attribute their effects to external code rather than to
	// file-scope initializers.
	scope := p.Intern(ExtName)
	emit := func(k prim.Kind, dst, src prim.SymID) {
		p.AddAssign(prim.Assign{
			Kind: k, Dst: dst, Src: src,
			Op: prim.OpCopy, Strength: prim.Strong, Func: scope,
		})
	}
	emit(prim.Base, extp, ext)      // extp = &ext
	emit(prim.StoreInd, extp, extp) // ext may point to ext

	// The external stand-in function: anything loaded from external memory
	// may be a pointer to a function defined outside the program, so give
	// the model a callable function symbol whose arguments escape and whose
	// result is external. Its arity covers the widest function record in
	// the program, so positional linking at indirect call sites never drops
	// an argument.
	arity := 0
	for i := range p.Funcs {
		if n := len(p.Funcs[i].Params); n > arity {
			arity = n
		}
	}
	extfn := p.AddSym(prim.Symbol{
		Name: ExtFnName, Kind: prim.SymFunc, Type: "external ()",
		Internal: true, Defined: true,
	})
	info.ExtFn = extfn
	fnRec := prim.FuncRecord{Func: extfn, Ret: prim.NoSym, Variadic: true}
	for i := 1; i <= arity; i++ {
		fnRec.Params = append(fnRec.Params, p.AddSym(prim.Symbol{
			Name: fmt.Sprintf("%s$%d", ExtFnName, i), Kind: prim.SymParam,
			Internal: true, Defined: true, FuncName: ExtFnName,
		}))
	}
	fnRec.Ret = p.AddSym(prim.Symbol{
		Name: ExtFnName + "$ret", Kind: prim.SymRet,
		Internal: true, Defined: true, FuncName: ExtFnName,
	})
	p.Funcs = append(p.Funcs, fnRec)
	extfnp := p.AddSym(prim.Symbol{
		Name: extFnPName, Kind: prim.SymTemp, Type: "external (*)()", Defined: true,
	})
	emit(prim.Base, extfnp, extfn)    // extfnp = &extfn
	emit(prim.StoreInd, extp, extfnp) // ext may hold external function pointers
	modelFunc := func(rec *prim.FuncRecord) {
		for _, prm := range rec.Params {
			emit(prim.StoreInd, extp, prm) // arguments escape
		}
		if rec.Ret != prim.NoSym {
			emit(prim.Simple, rec.Ret, extp)  // may return the external world
			emit(prim.LoadInd, rec.Ret, extp) // ... or anything escaped
		}
	}
	modelFunc(&p.Funcs[len(p.Funcs)-1])

	// Undefined functions behave like the stand-in. A function called only
	// for effect has no return symbol yet; synthesize one so that calls
	// reaching it through function pointers still see an external result.
	for i := range p.Funcs {
		rec := &p.Funcs[i]
		s := p.Sym(rec.Func)
		if s.Kind != prim.SymFunc || s.Defined {
			continue
		}
		if rec.Ret == prim.NoSym {
			rec.Ret = p.AddSym(prim.Symbol{
				Name: s.Name + "$ret", Kind: prim.SymRet,
				Internal: s.Internal, Defined: true, FuncName: s.Name,
				Loc: s.Loc,
			})
		}
		modelFunc(rec)
	}

	// Undefined globals are blanket-assigned: external code may store into
	// them at any time.
	for _, u := range undef {
		if u.Kind != prim.SymGlobal {
			continue
		}
		emit(prim.Simple, u.Sym, extp)  // g = extp
		emit(prim.LoadInd, u.Sym, extp) // g = *extp
		if m == Escape {
			emit(prim.StoreInd, extp, u.Sym) // external code may read g
		}
	}

	if m == Escape {
		// Everything that escaped is mutually aliased: external code may
		// store external memory — or any escaped pointer — through any
		// escaped object.
		t := p.AddSym(prim.Symbol{
			Name: extTmpName, Kind: prim.SymTemp, Type: "external *", Defined: true,
		})
		emit(prim.LoadInd, t, extp)  // t = *extp: t ranges over escaped objects
		emit(prim.CopyInd, extp, t)  // *extp = *t: escape is transitive
		emit(prim.StoreInd, t, extp) // *t = extp
		emit(prim.CopyInd, t, extp)  // *t = *extp
	}

	for _, u := range undef {
		if u.Kind == prim.SymFunc {
			info.UndefFuncs++
		} else {
			info.UndefGlobals++
		}
	}
	info.Syms = len(p.Syms) - syms0
	info.Assigns = len(p.Assigns) - assigns0
	return info
}

// ApplyClone applies the model to a copy of p, leaving p untouched. The
// public API uses it so that a caller's Database is not mutated by an
// analysis option.
func ApplyClone(p *prim.Program, m Model) (*prim.Program, Info) {
	if m == Unsound {
		return p, Info{Model: m, Ext: prim.NoSym, ExtFn: prim.NoSym}
	}
	q := &prim.Program{
		Syms:    append([]prim.Symbol(nil), p.Syms...),
		Assigns: append([]prim.Assign(nil), p.Assigns...),
		Funcs:   make([]prim.FuncRecord, len(p.Funcs)),
		Calls:   append([]prim.CallSite(nil), p.Calls...),
		Strs:    p.Strs, // Apply's Intern copies before it adds
	}
	// Apply may synthesize return symbols into undefined functions'
	// records, so the records need their own storage; Params stay shared
	// (read-only to Apply).
	copy(q.Funcs, p.Funcs)
	info := Apply(q, m)
	return q, info
}
