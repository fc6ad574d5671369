// Package linker implements the CLA link phase: it merges the object
// databases of many translation units into one database with the same
// format, unifying global symbols (variables, functions, struct fields and
// the standardized parameter/return symbols) by name and recomputing the
// block and target indexes via the object-file writer.
package linker

import (
	"fmt"
	"path/filepath"

	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
)

// Link merges unit databases into a single program. Symbols with external
// linkage are unified by name; internal symbols (locals, temporaries,
// statics, heap sites) stay distinct. Function records for the same
// function are merged, preferring complete information.
func Link(units []*prim.Program) (*prim.Program, error) {
	out := &prim.Program{}
	globals := map[string]prim.SymID{}
	recIdx := map[prim.SymID]int{}

	for ui, u := range units {
		remap := make([]prim.SymID, len(u.Syms))
		for i := range u.Syms {
			s := u.Syms[i]
			if !s.LinksByName() {
				remap[i] = out.AddSym(s)
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
				remap[i] = id
				continue
			}
			id := out.AddSym(s)
			globals[s.Name] = id
			remap[i] = id
		}

		for _, a := range u.Assigns {
			if int(a.Dst) < 0 || int(a.Dst) >= len(remap) ||
				int(a.Src) < 0 || int(a.Src) >= len(remap) {
				return nil, fmt.Errorf("linker: unit %d has assignment with bad symbol", ui)
			}
			a.Dst = remap[a.Dst]
			a.Src = remap[a.Src]
			out.AddAssign(a)
		}

		for _, c := range u.Calls {
			if int(c.Callee) < 0 || int(c.Callee) >= len(remap) {
				return nil, fmt.Errorf("linker: unit %d has call site with bad symbol", ui)
			}
			c.Callee = remap[c.Callee]
			out.AddCall(c)
		}

		for _, f := range u.Funcs {
			if int(f.Func) < 0 || int(f.Func) >= len(remap) {
				return nil, fmt.Errorf("linker: unit %d has function record with bad symbol", ui)
			}
			fn := remap[f.Func]
			var params []prim.SymID
			for _, p := range f.Params {
				params = append(params, remap[p])
			}
			ret := prim.NoSym
			if f.Ret != prim.NoSym {
				ret = remap[f.Ret]
			}
			if idx, ok := recIdx[fn]; ok {
				rec := &out.Funcs[idx]
				if len(params) > len(rec.Params) {
					rec.Params = params
				}
				if rec.Ret == prim.NoSym {
					rec.Ret = ret
				}
				rec.Variadic = rec.Variadic || f.Variadic
				continue
			}
			recIdx[fn] = len(out.Funcs)
			out.Funcs = append(out.Funcs, prim.FuncRecord{
				Func: fn, Params: params, Ret: ret, Variadic: f.Variadic,
			})
		}
	}
	return out, nil
}

// LinkParallel is Link; jobs is unused. It keeps the name the benchmark
// harness calls. The link has no parallel form: a pairwise tree merge
// recopies every symbol and assignment once per round, which costs more
// than two or eight workers repay.
func LinkParallel(units []*prim.Program, jobs int) (*prim.Program, error) {
	return Link(units)
}

// LinkTraced is Link inside a "link" span, with the unit count in the
// link.units counter: the one traced link entry shared by the driver,
// the incremental pipeline and the tools. The nil observer costs
// nothing.
func LinkTraced(units []*prim.Program, o *obs.Observer) (*prim.Program, error) {
	sp := o.Start("link")
	defer sp.End()
	o.SetCounter("link.units", int64(len(units)))
	return Link(units)
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
		r, err := objfile.Open(path)
		if err != nil {
			fsp.End()
			sp.End()
			return nil, fmt.Errorf("linker: %w", err)
		}
		p, err := r.Program()
		r.Close()
		fsp.End()
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("linker: %s: %w", path, err)
		}
		units = append(units, p)
	}
	sp.End()
	return LinkTraced(units, o)
}
