package incr

import (
	"cla/internal/core"
	"cla/internal/extmodel"
	"cla/internal/linker"
	"cla/internal/prim"
)

// linkState is what the current generation's link folded: its units in
// fold order and the fold, whose remap tables (unit symbol index →
// linked id) the next generation's warm start maps symbols through and
// which the next link splices a changed unit into.
type linkState struct {
	units []*unit
	fold  *linker.Fold
}

// warmEdit relates the new link (units folded into linked through
// remaps) to the current generation, for core.SolveFrom: the map from
// the current generation's symbols to linked's, and the assignments
// linked adds. It reports false when the current generation cannot seed
// the new one:
//
//   - the current result is not pre-transitive, or the extern model is
//     not Unsound (a model rewrites the program after the link);
//   - some dropped assignment — an old assignment with no image in
//     linked — is not a base, simple or load assignment whose
//     destination was removed;
//   - some kept symbol changed kind or lost its function-pointer mark;
//   - some function record does not map to an identical record.
//
// Symbols map through the remap tables. An unchanged unit (same path,
// same digest) maps index by index. In a changed unit an internal symbol
// maps to the new unit's symbol of the same name, kind and function and
// the same occurrence among those, wherever an edit moved it (a header
// entry the unit newly uses shifts every index); globals of changed
// units map by name. Assignments are diffed only over the changed
// units; the other checks are one pass over the symbol map and one over
// the function records, so the whole check costs milliseconds, not a
// pass over the program's assignments.
func (p *Pipeline) warmEdit(units []*unit, remaps [][]prim.SymID, linked *prim.Program) (*core.Result, core.Edit, bool) {
	if p.cur == nil {
		return nil, core.Edit{}, false
	}
	prev, ok := p.cur.Res.(*core.Result)
	if !ok || p.cfg.Model != extmodel.Unsound {
		return nil, core.Edit{}, false
	}
	old := p.link
	oldProg := p.cur.Linked
	m := make([]prim.SymID, len(oldProg.Syms))
	for i := range m {
		m[i] = prim.NoSym
	}
	set := func(o, n prim.SymID) bool {
		if m[o] == prim.NoSym {
			m[o] = n
		}
		return m[o] == n
	}

	// A side is one changed unit's program and remap table in the old
	// link (before) or the new one (after); an added unit has only an
	// after side, a removed unit only a before side.
	type side struct {
		prog  *prim.Program
		remap []prim.SymID
	}
	var before, after []side
	oldAt := make(map[string]int, len(old.units))
	for j, u := range old.units {
		oldAt[u.path] = j
	}
	for i, u := range units {
		j, had := oldAt[u.path]
		if !had {
			after = append(after, side{u.prog, remaps[i]})
			continue
		}
		delete(oldAt, u.path)
		ou, or := old.units[j], old.fold.Remaps[j]
		if ou.digest == u.digest && len(ou.prog.Syms) == len(u.prog.Syms) {
			for k, o := range or {
				if !set(o, remaps[i][k]) {
					return nil, core.Edit{}, false
				}
			}
			continue
		}
		before = append(before, side{ou.prog, or})
		after = append(after, side{u.prog, remaps[i]})
		newAt := internalIndex(u.prog)
		for k, o := range internalIndex(ou.prog) {
			if n, ok := newAt[k]; ok && !set(or[o], remaps[i][n]) {
				return nil, core.Edit{}, false
			}
		}
	}
	for _, j := range oldAt {
		before = append(before, side{old.units[j].prog, old.fold.Remaps[j]})
	}

	// Globals of changed units map by name.
	newGlobal := map[string]prim.SymID{}
	for _, a := range after {
		for k := range a.prog.Syms {
			if s := &a.prog.Syms[k]; s.LinksByName() {
				newGlobal[s.Name] = a.remap[k]
			}
		}
	}
	for _, b := range before {
		for k := range b.prog.Syms {
			if s := &b.prog.Syms[k]; s.LinksByName() {
				if n, ok := newGlobal[s.Name]; ok && !set(b.remap[k], n) {
					return nil, core.Edit{}, false
				}
			}
		}
	}

	// Kept symbols keep what the solver reads of them.
	for o, n := range m {
		if n == prim.NoSym {
			continue
		}
		os, ns := &oldProg.Syms[o], &linked.Syms[n]
		if os.Kind != ns.Kind || os.FuncPtr && !ns.FuncPtr {
			return nil, core.Edit{}, false
		}
	}
	if !sameFuncs(oldProg.Funcs, linked, m) {
		return nil, core.Edit{}, false
	}

	// Diff the changed units' assignments as multisets of (kind, dst,
	// src) in new ids.
	type akey struct {
		kind     prim.Kind
		dst, src prim.SymID
	}
	count := map[akey]int{}
	for _, b := range before {
		for _, a := range b.prog.Assigns {
			d, s := m[b.remap[a.Dst]], m[b.remap[a.Src]]
			if d == prim.NoSym || s == prim.NoSym {
				if d != prim.NoSym || (a.Kind != prim.Base && a.Kind != prim.Simple && a.Kind != prim.LoadInd) {
					return nil, core.Edit{}, false
				}
				continue
			}
			count[akey{a.Kind, d, s}]++
		}
	}
	var added []prim.Assign
	for _, a := range after {
		for _, as := range a.prog.Assigns {
			k := akey{as.Kind, a.remap[as.Dst], a.remap[as.Src]}
			if count[k] > 0 {
				count[k]--
				continue
			}
			added = append(added, prim.Assign{Kind: k.kind, Dst: k.dst, Src: k.src})
		}
	}
	for _, c := range count {
		if c > 0 {
			return nil, core.Edit{}, false
		}
	}
	return prev, core.Edit{Map: m, Added: added}, true
}

// symKey identifies an internal symbol within its unit: the occ-th
// symbol, in unit order, with this name, kind and enclosing function.
type symKey struct {
	name, fn string
	kind     prim.SymKind
	occ      int
}

// internalIndex keys each of p's internal symbols (those not linked by
// name) to its index.
func internalIndex(p *prim.Program) map[symKey]int {
	at := map[symKey]int{}
	seen := map[symKey]int{}
	for i := range p.Syms {
		s := &p.Syms[i]
		if s.LinksByName() {
			continue
		}
		k := symKey{name: s.Name, fn: s.FuncName, kind: s.Kind}
		k.occ = seen[k]
		seen[k]++
		at[k] = i
	}
	return at
}

// sameFuncs reports whether every function record of the old program
// maps through m to an identical record of linked.
func sameFuncs(old []prim.FuncRecord, linked *prim.Program, m []prim.SymID) bool {
	recOf := make(map[prim.SymID]int, len(linked.Funcs))
	for i, f := range linked.Funcs {
		recOf[f.Func] = i
	}
	for _, f := range old {
		i, ok := recOf[m[f.Func]]
		if !ok {
			return false
		}
		g := &linked.Funcs[i]
		if len(g.Params) != len(f.Params) || g.Variadic != f.Variadic {
			return false
		}
		for k, prm := range f.Params {
			if m[prm] != g.Params[k] {
				return false
			}
		}
		if (f.Ret == prim.NoSym) != (g.Ret == prim.NoSym) || f.Ret != prim.NoSym && m[f.Ret] != g.Ret {
			return false
		}
	}
	return true
}
