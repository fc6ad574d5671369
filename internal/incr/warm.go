package incr

import (
	"slices"

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

// warmEdit relates the new link f of units to the current generation,
// for core.SolveFrom: the map from the current generation's symbols to
// the new link's, and the assignments the new link adds. It reports
// false when the current generation cannot seed the new one:
//
//   - the current result is not pre-transitive, or the extern model is
//     not Unsound (a model rewrites the program after the link);
//   - some dropped assignment — an old assignment with no image in the
//     new link — is not a base, simple or load assignment whose
//     destination was removed;
//   - some kept symbol changed kind or lost its function-pointer mark;
//   - some function record does not map to an identical record.
//
// In a changed unit an internal symbol maps to the new unit's symbol of
// the same name, kind and function and the same occurrence among those,
// wherever an edit moved it (a header entry the unit newly uses shifts
// every index); globals map by name. A link that spliced one changed
// unit gives the rest of the map as its shift (spliceEdit); otherwise
// symbols map through the remap tables (foldEdit).
func (p *Pipeline) warmEdit(units []*unit, f *linker.Fold) (*core.Result, core.Edit, bool) {
	if p.cur == nil {
		return nil, core.Edit{}, false
	}
	prev, ok := p.cur.Res.(*core.Result)
	if !ok || p.cfg.Model != extmodel.Unsound {
		return nil, core.Edit{}, false
	}
	var ed core.Edit
	if f.Splice != nil {
		ed, ok = spliceEdit(p.link, units, f, p.cur.Linked)
	} else {
		ed, ok = foldEdit(p.link, units, f, p.cur.Linked)
	}
	return prev, ed, ok
}

// side is one changed unit's program and remap table in the old link
// or the new one.
type side struct {
	prog  *prim.Program
	remap []prim.SymID
}

// spliceEdit is warmEdit for a link that spliced unit c into the
// current generation's fold: the shift maps every symbol outside c's
// range and c's by-name symbols, and only c's internal symbols are
// matched. Only what the splice changed is checked: c's symbols and
// the symbols it patched, c's function records and its assignments. So
// it costs the changed unit, not the program.
func spliceEdit(old linkState, units []*unit, f *linker.Fold, oldProg *prim.Program) (core.Edit, bool) {
	c, linked := f.Splice.Unit, f.Prog
	sh := f.Splice.Shift
	sh.Own = slices.Clone(sh.Own)
	before := side{old.units[c].prog, old.fold.Remaps[c]}
	after := side{units[c].prog, f.Remaps[c]}
	ok := matchInternals(before, after, func(o, n prim.SymID) bool {
		i := o - sh.Lo
		if i < 0 || int(i) >= len(sh.Own) {
			return false
		}
		if sh.Own[i] == prim.NoSym {
			sh.Own[i] = n
		}
		return sh.Own[i] == n
	})
	if !ok {
		return core.Edit{}, false
	}
	for i, n := range sh.Own {
		if n != prim.NoSym && !keepsSolverView(&oldProg.Syms[sh.Lo+prim.SymID(i)], &linked.Syms[n]) {
			return core.Edit{}, false
		}
	}
	for _, id := range f.Splice.Patched {
		if !keepsSolverView(&oldProg.Syms[id], &linked.Syms[id]) {
			return core.Edit{}, false
		}
	}
	if !sameFuncs(old.fold.UnitFuncs(c), f.UnitFuncs(c), sh.Of) {
		return core.Edit{}, false
	}
	added, ok := diffAssigns([]change{{before, after}}, sh.Of)
	return core.Edit{Lo: sh.Lo, Own: sh.Own, Added: added}, ok
}

// foldEdit is warmEdit for a link that folded every unit. Symbols map
// through the remap tables: an unchanged unit (same path, same digest)
// maps index by index, a changed unit's internal symbols are matched and
// the globals of changed units map by name. Assignments are diffed only
// over the changed units; the other checks are one pass over the symbol
// map and one over the function records.
func foldEdit(old linkState, units []*unit, f *linker.Fold, oldProg *prim.Program) (core.Edit, bool) {
	linked, remaps := f.Prog, f.Remaps
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

	var changes []change
	oldAt := make(map[string]int, len(old.units))
	for j, u := range old.units {
		oldAt[u.path] = j
	}
	for i, u := range units {
		j, had := oldAt[u.path]
		if !had {
			changes = append(changes, change{after: side{u.prog, remaps[i]}})
			continue
		}
		delete(oldAt, u.path)
		ou, or := old.units[j], old.fold.Remaps[j]
		if ou.digest == u.digest && len(ou.prog.Syms) == len(u.prog.Syms) {
			for k, o := range or {
				if !set(o, remaps[i][k]) {
					return core.Edit{}, false
				}
			}
			continue
		}
		c := change{side{ou.prog, or}, side{u.prog, remaps[i]}}
		changes = append(changes, c)
		if !matchInternals(c.before, c.after, set) {
			return core.Edit{}, false
		}
	}
	for _, j := range oldAt {
		changes = append(changes, change{before: side{old.units[j].prog, old.fold.Remaps[j]}})
	}

	// Globals of changed units map by name.
	newGlobal := map[string]prim.SymID{}
	for _, c := range changes {
		if a := c.after; a.prog != nil {
			for k := range a.prog.Syms {
				if s := &a.prog.Syms[k]; s.LinksByName() {
					newGlobal[s.Name] = a.remap[k]
				}
			}
		}
	}
	for _, c := range changes {
		if b := c.before; b.prog != nil {
			for k := range b.prog.Syms {
				if s := &b.prog.Syms[k]; s.LinksByName() {
					if n, ok := newGlobal[s.Name]; ok && !set(b.remap[k], n) {
						return core.Edit{}, false
					}
				}
			}
		}
	}

	for o, n := range m {
		if n != prim.NoSym && !keepsSolverView(&oldProg.Syms[o], &linked.Syms[n]) {
			return core.Edit{}, false
		}
	}
	of := func(id prim.SymID) prim.SymID { return m[id] }
	if !sameFuncs(oldProg.Funcs, linked.Funcs, of) {
		return core.Edit{}, false
	}
	added, ok := diffAssigns(changes, of)
	return core.Edit{Own: m, Added: added}, ok
}

// matchInternals calls set(old id, new id) for every internal symbol of
// b's unit that a's has under the same key (internalIndex), and reports
// false as soon as set does.
func matchInternals(b, a side, set func(o, n prim.SymID) bool) bool {
	newAt := internalIndex(a.prog)
	for k, o := range internalIndex(b.prog) {
		if n, ok := newAt[k]; ok && !set(b.remap[o], a.remap[n]) {
			return false
		}
	}
	return true
}

// keepsSolverView reports whether kept symbol o's image n keeps what the
// solver reads of it: its kind and its function-pointer mark.
func keepsSolverView(o, n *prim.Symbol) bool {
	return o.Kind == n.Kind && (!o.FuncPtr || n.FuncPtr)
}

// change is one changed unit's program before and after the edit; an
// added unit has only an after side, a removed unit only a before side
// (a zero side).
type change struct{ before, after side }

// unmatched returns c's assignments before and after the edit, less
// those that agree, mapped through of, at the same place from the start
// or from the end: all but an edit's own, in the usual case.
func (c change) unmatched(of func(prim.SymID) prim.SymID) (bs, as []prim.Assign) {
	if c.before.prog != nil {
		bs = c.before.prog.Assigns
	}
	if c.after.prog != nil {
		as = c.after.prog.Assigns
	}
	same := func(x, y prim.Assign) bool {
		return x.Kind == y.Kind && of(c.before.remap[x.Dst]) == c.after.remap[y.Dst] &&
			of(c.before.remap[x.Src]) == c.after.remap[y.Src]
	}
	for len(bs) > 0 && len(as) > 0 && same(bs[0], as[0]) {
		bs, as = bs[1:], as[1:]
	}
	for len(bs) > 0 && len(as) > 0 && same(bs[len(bs)-1], as[len(as)-1]) {
		bs, as = bs[:len(bs)-1], as[:len(as)-1]
	}
	return bs, as
}

// diffAssigns diffs the changed units' assignments as multisets of
// (kind, dst, src) in new ids, the old ones mapped through of, and
// returns the new ones with no old image. It reports false when an old
// one with no image is not a base, simple or load assignment whose
// destination was removed. The assignments each unit keeps in place are
// matched first (change.unmatched), and only the rest go through the
// multiset.
func diffAssigns(changes []change, of func(prim.SymID) prim.SymID) ([]prim.Assign, bool) {
	type akey struct {
		kind     prim.Kind
		dst, src prim.SymID
	}
	bs, as := make([][]prim.Assign, len(changes)), make([][]prim.Assign, len(changes))
	for i, c := range changes {
		bs[i], as[i] = c.unmatched(of)
	}
	count := map[akey]int{}
	for i, c := range changes {
		for _, a := range bs[i] {
			d, s := of(c.before.remap[a.Dst]), of(c.before.remap[a.Src])
			if d == prim.NoSym || s == prim.NoSym {
				if d != prim.NoSym || (a.Kind != prim.Base && a.Kind != prim.Simple && a.Kind != prim.LoadInd) {
					return nil, false
				}
				continue
			}
			count[akey{a.Kind, d, s}]++
		}
	}
	var added []prim.Assign
	for i, c := range changes {
		for _, a := range as[i] {
			k := akey{a.Kind, c.after.remap[a.Dst], c.after.remap[a.Src]}
			if count[k] > 0 {
				count[k]--
				continue
			}
			added = append(added, prim.Assign{Kind: k.kind, Dst: k.dst, Src: k.src})
		}
	}
	for _, c := range count {
		if c > 0 {
			return nil, false
		}
	}
	return added, true
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

// sameFuncs reports whether every one of the old function records maps
// through of to an identical record among the new ones.
func sameFuncs(old, next []prim.FuncRecord, of func(prim.SymID) prim.SymID) bool {
	recOf := make(map[prim.SymID]int, len(next))
	for i, f := range next {
		recOf[f.Func] = i
	}
	for _, f := range old {
		i, ok := recOf[of(f.Func)]
		if !ok {
			return false
		}
		g := &next[i]
		if len(g.Params) != len(f.Params) || g.Variadic != f.Variadic {
			return false
		}
		for k, prm := range f.Params {
			if of(prm) != g.Params[k] {
				return false
			}
		}
		if (f.Ret == prim.NoSym) != (g.Ret == prim.NoSym) || f.Ret != prim.NoSym && of(f.Ret) != g.Ret {
			return false
		}
	}
	return true
}
