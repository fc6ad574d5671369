package linker

import (
	"slices"

	"cla/internal/prim"
)

// Relink links units like Link and also returns the fold's remap
// tables. When prev folded as many units and all but one of them are
// the programs prev folded (or equal ones), it splices that unit's new
// program into prev instead of folding every unit again: the units
// before it are copied, its own symbols, assignments, call sites and
// function records are placed where the fold would place them, and the
// units after it are copied with their ids shifted. Only the changed
// unit's by-name symbols are looked up by name. Whenever the fold's
// result would depend on what the splice does not keep — another
// unit's occurrence of a symbol or record the changed unit merges with
// differently than before, or a symbol whose first unit would change —
// it folds every unit instead, as it does for a nil prev. Prog's
// records and Remaps therefore always equal the full fold's, and an
// error is always the fold's. Only Prog's string table may differ: a
// splice keeps the table it starts from and appends the strings the
// changed unit adds, so the spliced records name the same strings
// through other ids.
func Relink(prev *Fold, units []*prim.Program) (*Fold, error) {
	if c := prev.changed(units); c >= 0 {
		if f := prev.splice(c, units); f != nil {
			return f, nil
		}
	}
	return fold(units)
}

// changed returns the one index at which units differs from the
// programs f folded, or -1 when f is nil, the unit count differs, or
// the programs differ at no index or at several.
func (f *Fold) changed(units []*prim.Program) int {
	if f == nil || len(units) != len(f.units) {
		return -1
	}
	c := -1
	for i, u := range units {
		if u == f.units[i] || sameProgram(u, f.units[i]) {
			continue
		}
		if c >= 0 {
			return -1
		}
		c = i
	}
	return c
}

// sameProgram reports whether a and b hold the same database, so that
// folding either gives the same link.
func sameProgram(a, b *prim.Program) bool {
	return slices.Equal(a.Strs, b.Strs) && slices.Equal(a.Syms, b.Syms) && slices.Equal(a.Assigns, b.Assigns) &&
		slices.Equal(a.Calls, b.Calls) &&
		slices.EqualFunc(a.Funcs, b.Funcs, func(x, y prim.FuncRecord) bool {
			return x.Func == y.Func && x.Ret == y.Ret && x.Variadic == y.Variadic &&
				slices.Equal(x.Params, y.Params)
		})
}

// start returns where unit u's ranges start.
func (f *Fold) start(u int) span {
	if u == 0 {
		return span{}
	}
	return f.ends[u-1]
}

// shift maps a symbol id of the fold before a splice to the id of the
// same symbol after it: ids below the changed unit's range keep their
// place, ids above it move by delta, and the unit's own symbols move
// through its table (prim.NoSym for one the splice dropped or an
// internal one, which no other unit can name).
type shift struct {
	lo, hi, delta prim.SymID
	own           []prim.SymID
}

func (s *shift) of(id prim.SymID) prim.SymID {
	switch {
	case id < s.lo:
		return id
	case id >= s.hi:
		return id + s.delta
	}
	return s.own[id-s.lo]
}

// record returns r with every symbol mapped through m, its parameters
// taken from the front of buf.
func record(r *prim.FuncRecord, m func(prim.SymID) prim.SymID, buf *[]prim.SymID) prim.FuncRecord {
	out := prim.FuncRecord{Func: m(r.Func), Ret: prim.NoSym, Variadic: r.Variadic}
	if r.Ret != prim.NoSym {
		out.Ret = m(r.Ret)
	}
	if n := len(r.Params); n > 0 {
		out.Params = (*buf)[:n:n]
		*buf = (*buf)[n:]
		for k, p := range r.Params {
			out.Params[k] = m(p)
		}
	}
	return out
}

// splicer is one splice under way: the fold it starts from and the
// changed unit c before (op) and after (np), with the unit's part of
// the new fold as the passes find it.
type splicer struct {
	f      *Fold
	c      int
	op, np *prim.Program
	lo, hi span // c's ranges in f
	sh     shift
	// strs is the new fold's string table, f's with the strings np adds
	// appended; smap is np's string map into it. osyms and nsyms are
	// op's and np's symbols with their locations in the linked table.
	strs         []string
	smap         []prim.Str
	osyms, nsyms []prim.Symbol
	// remap is np's remap table; syms, refs and own are the symbols the
	// unit adds and their index entries; patches change symbols before
	// the unit; funcs are the records the unit adds, their parameter
	// lists cut from params, which has room for every record's.
	remap   []prim.SymID
	syms    []prim.Symbol
	refs    []int32
	own     []uint8
	patches []patch
	funcs   []prim.FuncRecord
	params  []prim.SymID
}

// patch is a symbol before the changed unit with its resolved canonical
// form and the change in its occurrence count.
type patch struct {
	id   prim.SymID
	sym  prim.Symbol
	refs int32
}

// splice returns the fold of units, which differ from f's units at c
// only, built from f, or nil when it cannot reproduce the fold.
func (f *Fold) splice(c int, units []*prim.Program) *Fold {
	lo, hi := f.start(c), f.ends[c]
	s := &splicer{f: f, c: c, op: f.units[c], np: units[c], lo: lo, hi: hi,
		sh: shift{lo: prim.SymID(lo.syms), hi: prim.SymID(hi.syms)}}
	if !s.strings() || !s.symbols() || !s.records() {
		return nil
	}
	return s.assemble(units)
}

// strings maps np's strings into the linked table and its symbols'
// locations with them, and op's symbols' through op's map. A string op
// had is found through op's map; only another is looked up in the
// whole table, and appended when absent. It reports false when one of
// np's records names a string np does not have, on which the fold fails.
func (s *splicer) strings() bool {
	old, omap := s.f.Prog, s.f.strMaps[s.c]
	at := make(map[string]prim.Str, len(s.op.Strs))
	for k, str := range s.op.Strs {
		at[str] = omap[k+1]
	}
	var all map[string]prim.Str // old's table, indexed on the first miss
	s.strs = old.Strs
	s.smap = make([]prim.Str, len(s.np.Strs)+1)
	for k, str := range s.np.Strs {
		id, ok := at[str]
		if !ok {
			if all == nil {
				all = make(map[string]prim.Str, len(old.Strs))
				for i, t := range old.Strs {
					all[t] = prim.Str(i + 1)
				}
			}
			if id, ok = all[str]; !ok {
				// Full slice expression: the old fold's table is shared
				// with it, and another splice of it may append too.
				s.strs = append(s.strs[:len(s.strs):len(s.strs)], str)
				id = prim.Str(len(s.strs))
				all[str] = id
			}
		}
		s.smap[k+1] = id
	}
	n := prim.Str(len(s.smap))
	s.nsyms = slices.Clone(s.np.Syms)
	for i := range s.nsyms {
		l := &s.nsyms[i].Loc
		if l.File >= n {
			return false
		}
		l.File = s.smap[l.File]
	}
	s.osyms = slices.Clone(s.op.Syms)
	for i := range s.osyms {
		l := &s.osyms[i].Loc
		l.File = omap[l.File]
	}
	for k := range s.np.Assigns {
		if a := &s.np.Assigns[k]; a.Loc.File >= n || a.Func >= n {
			return false
		}
	}
	for k := range s.np.Calls {
		if c := &s.np.Calls[k]; c.Loc.File >= n || c.Caller >= n {
			return false
		}
	}
	return true
}

// newNames returns, for every by-name symbol np has and op lacks, the
// id of the unit before c that added it, or prim.NoSym where no unit
// has it. It reports false when a unit after c has one (c would add
// it) or np has one twice.
func (s *splicer) newNames(oldAt map[string]int) (map[string]prim.SymID, bool) {
	var (
		added map[string]prim.SymID
		lens  uint64 // bit n%64 set for every added name of length n
	)
	for i := range s.np.Syms {
		if sym := &s.np.Syms[i]; sym.LinksByName() {
			if _, ok := oldAt[sym.Name]; ok {
				continue
			}
			if added == nil {
				added = map[string]prim.SymID{}
			}
			if _, dup := added[sym.Name]; dup {
				return nil, false
			}
			added[sym.Name] = prim.NoSym
			lens |= 1 << (len(sym.Name) % 64)
		}
	}
	if len(added) == 0 {
		return nil, true
	}
	for id := range s.f.Prog.Syms {
		sym := &s.f.Prog.Syms[id]
		if lens&(1<<(len(sym.Name)%64)) == 0 || !sym.LinksByName() {
			continue
		}
		if _, ok := added[sym.Name]; ok {
			if prim.SymID(id) >= s.sh.lo {
				return nil, false
			}
			added[sym.Name] = prim.SymID(id)
		}
	}
	return added, true
}

// symbols places np's symbols: its internal ones, and the by-name ones
// no unit before c has, are added in c's range in np's order; the
// others keep their ids, with their canonical symbols resolved. It
// reports false where the fold's result would depend on other units'
// occurrences, or where the fold would fail.
func (s *splicer) symbols() bool {
	f, osyms, nsyms := s.f, s.osyms, s.nsyms
	old, oldRemap, cs := f.Prog, f.Remaps[s.c], s.sh.lo
	oldAt := make(map[string]int, len(osyms))
	for j := range osyms {
		if sym := &osyms[j]; sym.LinksByName() {
			if _, dup := oldAt[sym.Name]; dup {
				return false
			}
			oldAt[sym.Name] = j
		}
	}
	added, ok := s.newNames(oldAt)
	if !ok {
		return false
	}

	s.sh.own = make([]prim.SymID, s.sh.hi-cs)
	for i := range s.sh.own {
		s.sh.own[i] = prim.NoSym
	}
	s.remap = make([]prim.SymID, len(nsyms))
	s.syms = make([]prim.Symbol, 0, len(nsyms))
	s.refs = make([]int32, 0, len(nsyms))
	s.own = make([]uint8, 0, len(nsyms))
	keep := func(id prim.SymID, sym prim.Symbol, refs int32) {
		if sym != old.Syms[id] || refs != 0 {
			s.patches = append(s.patches, patch{id, sym, refs})
		}
	}
	add := func(canon prim.Symbol, sym *prim.Symbol, refs int32) prim.SymID {
		s.syms = append(s.syms, canon)
		s.refs = append(s.refs, refs)
		s.own = append(s.own, owned(sym))
		return cs + prim.SymID(len(s.syms)-1)
	}
	kept := make([]bool, len(osyms))
	for i := range nsyms {
		sym := &nsyms[i]
		if !sym.LinksByName() {
			s.remap[i] = add(*sym, sym, 0)
			continue
		}
		j, had := oldAt[sym.Name]
		if !had {
			o := added[sym.Name]
			if o == prim.NoSym {
				s.remap[i] = add(*sym, sym, 1)
				continue
			}
			canon, ok := resolve(&old.Syms[o], nil, sym, false, f.own[o], false)
			if !ok {
				return false
			}
			keep(o, canon, 1)
			s.remap[i] = o
			continue
		}
		if kept[j] {
			return false // the unit has the name twice
		}
		kept[j] = true
		o := oldRemap[j]
		if o < cs {
			canon, ok := resolve(&old.Syms[o], &osyms[j], sym, false, f.own[o], false)
			if !ok {
				return false
			}
			keep(o, canon, 0)
			s.remap[i] = o
			continue
		}
		canon, ok := resolve(&old.Syms[o], &osyms[j], sym, true, 0, f.refs[o] == 1)
		if !ok {
			return false
		}
		s.remap[i] = add(canon, sym, f.refs[o])
		s.sh.own[o-cs] = s.remap[i]
	}
	for j := range osyms {
		sym := &osyms[j]
		if !sym.LinksByName() || kept[j] {
			continue
		}
		o := oldRemap[j]
		if o >= cs {
			if f.refs[o] != 1 {
				return false // a later unit has it too and would add it
			}
			continue
		}
		canon, ok := resolve(&old.Syms[o], sym, nil, false, f.own[o], false)
		if !ok {
			return false
		}
		keep(o, canon, -1)
	}
	s.sh.delta = prim.SymID(len(s.syms)) - (s.sh.hi - cs)
	return true
}

// records checks that np's assignments, call sites and records name
// its symbols and places the records it adds. One it had before,
// unchanged through the shift, keeps the merged record of its place:
// before the unit when an earlier unit has one for the function, in the
// unit's range otherwise. Any other record must be the only one for
// its function.
func (s *splicer) records() bool {
	f, op, np, remap := s.f, s.op, s.np, s.remap
	old, oldRemap, cs := f.Prog, f.Remaps[s.c], s.sh.lo
	for k := range np.Assigns {
		if a := &np.Assigns[k]; !inRange(a.Dst, remap) || !inRange(a.Src, remap) {
			return false
		}
	}
	for k := range np.Calls {
		if !inRange(np.Calls[k].Callee, remap) {
			return false
		}
	}
	newRec := make(map[prim.SymID]int, len(np.Funcs))
	for k := range np.Funcs {
		r := &np.Funcs[k]
		if !recordInRange(r, remap) {
			return false
		}
		fn := remap[r.Func]
		if _, dup := newRec[fn]; dup {
			return false
		}
		newRec[fn] = k
	}
	from := make([]prim.SymID, len(np.Funcs)) // the old function id of a kept record
	for k := range from {
		from[k] = prim.NoSym
	}
	mapOld := func(id prim.SymID) prim.SymID { return s.sh.of(oldRemap[id]) }
	mapNew := func(id prim.SymID) prim.SymID { return remap[id] }
	oldRec := make(map[prim.SymID]bool, len(op.Funcs))
	for k := range op.Funcs {
		r := &op.Funcs[k]
		fo := oldRemap[r.Func]
		if oldRec[fo] {
			return false // two records for one function
		}
		oldRec[fo] = true
		if j, ok := newRec[s.sh.of(fo)]; ok && sameRecord(r, mapOld, &np.Funcs[j], mapNew) {
			from[j] = fo
			continue
		}
		if fo < cs || f.refs[fo] > 1 {
			return false // another unit's record merges with it
		}
	}

	cSlot := make(map[prim.SymID]int32, s.hi.funcs-s.lo.funcs)
	for k := s.lo.funcs; k < s.hi.funcs; k++ {
		cSlot[old.Funcs[k].Func] = k
	}
	var n int
	for k := range old.Funcs {
		n += len(old.Funcs[k].Params)
	}
	for k := range np.Funcs {
		n += len(np.Funcs[k].Params)
	}
	s.params = make([]prim.SymID, n)
	for j := range np.Funcs {
		r := &np.Funcs[j]
		if fo := from[j]; fo != prim.NoSym {
			if k, ok := cSlot[fo]; ok {
				s.funcs = append(s.funcs, record(&old.Funcs[k], s.sh.of, &s.params))
			}
			continue
		}
		if fn := remap[r.Func]; fn < cs || s.refs[fn-cs] > 1 {
			return false // another unit's record for the function merges with it
		}
		s.funcs = append(s.funcs, record(r, mapNew, &s.params))
	}
	return true
}

// assemble builds the new fold: the part before the changed unit as it
// was, with the resolved symbols patched in, the unit's new part, and
// the part after it shifted.
func (s *splicer) assemble(units []*prim.Program) *Fold {
	f, np, remap, sh, lo, hi := s.f, s.np, s.remap, &s.sh, s.lo, s.hi
	old := f.Prog
	out := &prim.Program{Strs: s.strs}
	if n := len(old.Syms) + int(sh.delta); n > 0 {
		out.Syms = make([]prim.Symbol, 0, n)
		out.Syms = append(out.Syms, old.Syms[:sh.lo]...)
		out.Syms = append(out.Syms, s.syms...)
		out.Syms = append(out.Syms, old.Syms[sh.hi:]...)
	}
	refs := make([]int32, 0, len(out.Syms))
	refs = append(refs, f.refs[:sh.lo]...)
	refs = append(refs, s.refs...)
	refs = append(refs, f.refs[sh.hi:]...)
	own := make([]uint8, 0, len(out.Syms))
	own = append(own, f.own[:sh.lo]...)
	own = append(own, s.own...)
	own = append(own, f.own[sh.hi:]...)
	for _, p := range s.patches {
		out.Syms[p.id] = p.sym
		refs[p.id] += p.refs
	}

	if n := len(old.Assigns) - int(hi.assigns-lo.assigns) + len(np.Assigns); n > 0 {
		out.Assigns = make([]prim.Assign, 0, n)
		out.Assigns = append(out.Assigns, old.Assigns[:lo.assigns]...)
		for _, a := range np.Assigns {
			a.Dst, a.Src = remap[a.Dst], remap[a.Src]
			a.Loc.File, a.Func = s.smap[a.Loc.File], s.smap[a.Func]
			out.Assigns = append(out.Assigns, a)
		}
		for _, a := range old.Assigns[hi.assigns:] {
			a.Dst, a.Src = sh.of(a.Dst), sh.of(a.Src)
			out.Assigns = append(out.Assigns, a)
		}
	}
	if n := len(old.Calls) - int(hi.calls-lo.calls) + len(np.Calls); n > 0 {
		out.Calls = make([]prim.CallSite, 0, n)
		out.Calls = append(out.Calls, old.Calls[:lo.calls]...)
		for _, cl := range np.Calls {
			cl.Callee = remap[cl.Callee]
			cl.Loc.File, cl.Caller = s.smap[cl.Loc.File], s.smap[cl.Caller]
			out.Calls = append(out.Calls, cl)
		}
		for _, cl := range old.Calls[hi.calls:] {
			cl.Callee = sh.of(cl.Callee)
			out.Calls = append(out.Calls, cl)
		}
	}
	if n := len(old.Funcs) - int(hi.funcs-lo.funcs) + len(s.funcs); n > 0 {
		// An earlier unit's record may have taken its parameters from
		// the changed unit or a later one, so every record is mapped.
		out.Funcs = make([]prim.FuncRecord, 0, n)
		for k := range old.Funcs[:lo.funcs] {
			out.Funcs = append(out.Funcs, record(&old.Funcs[k], sh.of, &s.params))
		}
		out.Funcs = append(out.Funcs, s.funcs...)
		for k := int(hi.funcs); k < len(old.Funcs); k++ {
			out.Funcs = append(out.Funcs, record(&old.Funcs[k], sh.of, &s.params))
		}
	}

	remaps := make([][]prim.SymID, len(units))
	copy(remaps, f.Remaps[:s.c])
	remaps[s.c] = remap
	var n int
	for _, r := range f.Remaps[s.c+1:] {
		n += len(r)
	}
	buf := make([]prim.SymID, n)
	for u := s.c + 1; u < len(units); u++ {
		or := f.Remaps[u]
		nr := buf[:len(or):len(or)]
		buf = buf[len(or):]
		for i, id := range or {
			nr[i] = sh.of(id)
		}
		remaps[u] = nr
	}

	ends := slices.Clone(f.ends)
	d := span{int32(sh.delta), int32(len(np.Assigns) - len(s.op.Assigns)),
		int32(len(np.Calls) - len(s.op.Calls)), int32(len(s.funcs)) - (hi.funcs - lo.funcs)}
	for u := s.c; u < len(ends); u++ {
		ends[u].syms += d.syms
		ends[u].assigns += d.assigns
		ends[u].calls += d.calls
		ends[u].funcs += d.funcs
	}
	strMaps := slices.Clone(f.strMaps)
	strMaps[s.c] = s.smap
	return &Fold{Prog: out, Remaps: remaps, Spliced: true,
		units: slices.Clone(units), ends: ends, refs: refs, own: own, strMaps: strMaps}
}

// sameRecord reports whether records a and b, whose symbols ma and mb
// map to linked ids, are the same record.
func sameRecord(a *prim.FuncRecord, ma func(prim.SymID) prim.SymID, b *prim.FuncRecord, mb func(prim.SymID) prim.SymID) bool {
	if a.Variadic != b.Variadic || len(a.Params) != len(b.Params) || (a.Ret == prim.NoSym) != (b.Ret == prim.NoSym) {
		return false
	}
	if a.Ret != prim.NoSym && ma(a.Ret) != mb(b.Ret) {
		return false
	}
	for k := range a.Params {
		if ma(a.Params[k]) != mb(b.Params[k]) {
			return false
		}
	}
	return true
}

// resolve returns the canonical symbol of a by-name symbol after the
// changed unit's occurrence of it goes from co to cn (nil where the
// unit has none). canon is the fold's canonical symbol before. When the
// unit is the symbol's first (first), the result starts from cn and
// sole reports that no other unit has the symbol; otherwise it starts
// from canon, whose first unit set the attributes in own itself. It
// reports false when the result depends on other units' occurrences,
// which the fold does not keep, or when the fold would fail on a kind
// conflict.
func resolve(canon, co, cn *prim.Symbol, first bool, own uint8, sole bool) (prim.Symbol, bool) {
	var none prim.Symbol
	out := *canon
	switch {
	case first:
		out = *cn
		if !sole && cn.Kind != co.Kind {
			return out, false
		}
	case cn != nil && cn.Kind != canon.Kind && !compatibleKinds(cn.Kind, canon.Kind):
		return out, false
	}
	if co == nil {
		co = &none
	}
	if cn == nil {
		cn = &none
	}
	var ok [4]bool
	out.Type, ok[0] = firstSet(canon.Type, co.Type, cn.Type, first, own&ownType != 0, sole)
	out.Loc, ok[1] = firstSet(canon.Loc, co.Loc, cn.Loc, first, own&ownLoc != 0, sole)
	out.FuncPtr, ok[2] = anySet(canon.FuncPtr, co.FuncPtr, cn.FuncPtr, own&ownFuncPtr != 0, sole)
	out.Defined, ok[3] = anySet(canon.Defined, co.Defined, cn.Defined, own&ownDefined != 0, sole)
	return out, ok == [4]bool{true, true, true, true}
}

// firstSet resolves an attribute the fold takes from the first unit
// that sets it (Type, Loc): v before, co and cn the changed unit's
// value before and after (zero for unset). set reports that the
// symbol's first unit, not the changed one, set it.
func firstSet[T comparable](v, co, cn T, first, set, sole bool) (T, bool) {
	var zero T
	switch {
	case co == cn:
		return v, true
	case first:
		// The changed unit comes first: its value wins when set.
		return cn, cn != zero || sole
	case set || co != zero && co != v:
		return v, true // a unit before the changed one set it
	case co == zero && v == zero:
		return cn, true // no unit set it
	case co == zero && cn == v:
		return v, true
	}
	return v, false
}

// anySet resolves an attribute the fold ORs over every unit (FuncPtr,
// Defined), like firstSet.
func anySet(v, co, cn, set, sole bool) (bool, bool) {
	switch {
	case co == cn:
		return v, true
	case cn:
		return true, true
	case sole:
		return false, true
	case set:
		return true, true
	}
	return v, false
}
