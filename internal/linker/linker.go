// Package linker implements the CLA link phase: it merges the object
// databases of many translation units into one database with the same
// format, unifying global symbols (variables, functions, struct fields and
// the standardized parameter/return symbols) by name and recomputing the
// block and target indexes via the object-file writer.
package linker

import (
	"fmt"
	"path/filepath"
	"slices"

	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
)

// Link merges unit databases into a single program. Symbols with external
// linkage are unified by name; internal symbols (locals, temporaries,
// statics, heap sites) stay distinct. Function records for the same
// function are merged, preferring complete information.
func Link(units []*prim.Program) (*prim.Program, error) {
	f, err := fold(units)
	if err != nil {
		return nil, err
	}
	return f.Prog, nil
}

// Fold is one link of unit programs in unit order: the linked program,
// the fold's remap tables (Remaps[u][i] is the linked id of unit u's
// symbol i), and what Relink needs to splice a changed unit into it
// instead of folding every unit again. A Fold is immutable.
type Fold struct {
	Prog   *prim.Program
	Remaps [][]prim.SymID
	// Spliced reports that Relink built this fold by splicing one
	// changed unit into the previous fold. Prog and Remaps equal the
	// full fold's either way.
	Spliced bool

	units []*prim.Program
	// ends[u] is where the symbols, assignments, call sites and
	// function records that unit u added to Prog end; they start where
	// unit u-1's end.
	ends []span
	// refs[id] counts the by-name symbols, over all units, that map to
	// linked symbol id (0 for an internal symbol); own[id] holds the
	// attributes (ownType...) that the unit which added id set itself.
	refs []int32
	own  []uint8
	// strMaps[u][k] is the linked string id of unit u's string k.
	strMaps [][]prim.Str
}

// span is the end of one unit's ranges in a linked program.
type span struct{ syms, assigns, calls, funcs int32 }

// The attributes a by-name symbol's first unit may set itself: once
// set there, no later unit's occurrence changes them.
const (
	ownType uint8 = 1 << iota
	ownLoc
	ownFuncPtr
	ownDefined
)

// owned returns the attribute bits s sets.
func owned(s *prim.Symbol) uint8 {
	var b uint8
	if s.Type != "" {
		b |= ownType
	}
	if !s.Loc.IsZero() {
		b |= ownLoc
	}
	if s.FuncPtr {
		b |= ownFuncPtr
	}
	if s.Defined {
		b |= ownDefined
	}
	return b
}

// fold links units in order: every internal symbol is added, a by-name
// symbol is added by the first unit that has it and merged into that
// canonical symbol by every later one, and each unit's assignments and
// call sites are appended through its remap table.
func fold(units []*prim.Program) (*Fold, error) {
	out := &prim.Program{}
	// The fold keeps every unit's assignments and call sites, so size
	// them once (nil, as before, when there are none). The units' symbol
	// count bounds the linked symbols and the by-name table, which would
	// otherwise grow by doubling and rehashing.
	var syms, assigns, calls int
	for _, u := range units {
		syms += len(u.Syms)
		assigns += len(u.Assigns)
		calls += len(u.Calls)
	}
	f := &Fold{Prog: out, Remaps: make([][]prim.SymID, len(units)),
		units: slices.Clone(units), ends: make([]span, len(units)),
		strMaps: make([][]prim.Str, len(units))}
	if syms > 0 {
		out.Syms = make([]prim.Symbol, 0, syms)
		f.refs = make([]int32, 0, syms)
		f.own = make([]uint8, 0, syms)
	}
	if assigns > 0 {
		out.Assigns = make([]prim.Assign, 0, assigns)
	}
	if calls > 0 {
		out.Calls = make([]prim.CallSite, 0, calls)
	}
	globals := make(map[string]prim.SymID, syms)
	recIdx := map[prim.SymID]int{}
	strs := prim.NewInterner(out)
	add := func(s *prim.Symbol, refs int32) prim.SymID {
		f.refs = append(f.refs, refs)
		f.own = append(f.own, owned(s))
		return out.AddSym(*s)
	}

	for ui, u := range units {
		smap := internAll(strs, u.Strs)
		f.strMaps[ui] = smap
		ns := prim.Str(len(smap))
		remap := make([]prim.SymID, len(u.Syms))
		f.Remaps[ui] = remap
		for i := range u.Syms {
			s := u.Syms[i]
			if s.Loc.File >= ns {
				return nil, fmt.Errorf("linker: unit %d has symbol with bad string", ui)
			}
			s.Loc.File = smap[s.Loc.File]
			if !s.LinksByName() {
				remap[i] = add(&s, 0)
				continue
			}
			if id, ok := globals[s.Name]; ok {
				// Merge attributes into the canonical symbol.
				canon := out.Sym(id)
				if s.Kind != canon.Kind && !compatibleKinds(s.Kind, canon.Kind) {
					return nil, fmt.Errorf(
						"linker: symbol %q is %v in unit %d but %v earlier",
						s.Name, s.Kind, ui, canon.Kind)
				}
				canon.FuncPtr = canon.FuncPtr || s.FuncPtr
				canon.Defined = canon.Defined || s.Defined
				if canon.Type == "" {
					canon.Type = s.Type
				}
				if canon.Loc.IsZero() {
					canon.Loc = s.Loc
				}
				f.refs[id]++
				remap[i] = id
				continue
			}
			id := add(&s, 1)
			globals[s.Name] = id
			remap[i] = id
		}

		for _, a := range u.Assigns {
			if !inRange(a.Dst, remap) || !inRange(a.Src, remap) || a.Loc.File >= ns || a.Func >= ns {
				return nil, fmt.Errorf("linker: unit %d has assignment with bad symbol or string", ui)
			}
			a.Dst = remap[a.Dst]
			a.Src = remap[a.Src]
			a.Loc.File, a.Func = smap[a.Loc.File], smap[a.Func]
			out.AddAssign(a)
		}

		for _, c := range u.Calls {
			if !inRange(c.Callee, remap) || c.Loc.File >= ns || c.Caller >= ns {
				return nil, fmt.Errorf("linker: unit %d has call site with bad symbol or string", ui)
			}
			c.Callee = remap[c.Callee]
			c.Loc.File, c.Caller = smap[c.Loc.File], smap[c.Caller]
			out.AddCall(c)
		}

		for _, fr := range u.Funcs {
			if !recordInRange(&fr, remap) {
				return nil, fmt.Errorf("linker: unit %d has function record with bad symbol", ui)
			}
			fn := remap[fr.Func]
			var params []prim.SymID
			for _, p := range fr.Params {
				params = append(params, remap[p])
			}
			ret := prim.NoSym
			if fr.Ret != prim.NoSym {
				ret = remap[fr.Ret]
			}
			if idx, ok := recIdx[fn]; ok {
				rec := &out.Funcs[idx]
				if len(params) > len(rec.Params) {
					rec.Params = params
				}
				if rec.Ret == prim.NoSym {
					rec.Ret = ret
				}
				rec.Variadic = rec.Variadic || fr.Variadic
				continue
			}
			recIdx[fn] = len(out.Funcs)
			out.Funcs = append(out.Funcs, prim.FuncRecord{
				Func: fn, Params: params, Ret: ret, Variadic: fr.Variadic,
			})
		}
		f.ends[ui] = span{int32(len(out.Syms)), int32(len(out.Assigns)),
			int32(len(out.Calls)), int32(len(out.Funcs))}
	}
	return f, nil
}

// internAll interns a unit's string table into the linked one and
// returns the unit's string map: map[k] is the linked id of the unit's
// string k, 0 for 0. Each distinct string of a unit is looked up once;
// its records then map their ids through the slice.
func internAll(in *prim.Interner, strs []string) []prim.Str {
	m := make([]prim.Str, len(strs)+1)
	for k, s := range strs {
		m[k+1] = in.Intern(s)
	}
	return m
}

// inRange reports whether id is one of the unit's symbols.
func inRange(id prim.SymID, remap []prim.SymID) bool {
	return id >= 0 && int(id) < len(remap)
}

// recordInRange reports whether every symbol r names is one of the
// unit's symbols.
func recordInRange(r *prim.FuncRecord, remap []prim.SymID) bool {
	if !inRange(r.Func, remap) || r.Ret != prim.NoSym && !inRange(r.Ret, remap) {
		return false
	}
	for _, p := range r.Params {
		if !inRange(p, remap) {
			return false
		}
	}
	return true
}

// LinkParallel is Link; jobs is unused. It keeps the name the benchmark
// harness calls. The link has no parallel form: a pairwise tree merge
// recopies every symbol and assignment once per round, which costs more
// than two or eight workers repay.
func LinkParallel(units []*prim.Program, jobs int) (*prim.Program, error) {
	return Link(units)
}

// LinkTraced is Relink inside a "link" span, with the unit count in the
// link.units counter and the sum of the units' symbol counts, which a
// full fold reads one by one, in link.unit_syms: the one traced link
// entry shared by the driver, the incremental pipeline and the tools
// (a nil prev folds). The nil observer costs nothing.
func LinkTraced(prev *Fold, units []*prim.Program, o *obs.Observer) (*Fold, error) {
	sp := o.Start("link")
	defer sp.End()
	o.SetCounter("link.units", int64(len(units)))
	var syms int
	for _, u := range units {
		syms += len(u.Syms)
	}
	o.SetCounter("link.unit_syms", int64(syms))
	return Relink(prev, units)
}

// compatibleKinds reports whether two linked symbol kinds may unify.
// Real C code base headers sometimes declare an object in one unit and
// define a function elsewhere under the same name guard; we allow func/
// global unification (the function identity wins downstream via records).
func compatibleKinds(a, b prim.SymKind) bool {
	isObj := func(k prim.SymKind) bool {
		return k == prim.SymGlobal || k == prim.SymFunc
	}
	return isObj(a) && isObj(b)
}

// LinkFiles opens, decodes and links the named object files. Under an
// observer the decodes run as child spans of a "read" phase, the merge
// inside a "link" phase; the nil observer costs nothing.
func LinkFiles(paths []string, o *obs.Observer) (*prim.Program, error) {
	sp := o.Start("read")
	var units []*prim.Program
	for _, path := range paths {
		fsp := sp.Child("read " + filepath.Base(path))
		p, err := objfile.ReadFile(path)
		fsp.End()
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("linker: %s: %w", path, err)
		}
		units = append(units, p)
	}
	sp.End()
	f, err := LinkTraced(nil, units, o)
	if err != nil {
		return nil, err
	}
	return f.Prog, nil
}
