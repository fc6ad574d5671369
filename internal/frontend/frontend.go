// Package frontend implements the CLA compile phase: it lowers a
// type-checked translation unit into the database of primitive assignments
// consumed by the link and analyze phases.
//
// Every C assignment, initializer, argument binding, return and function
// definition is decomposed into the five primitive forms of internal/prim,
// introducing temporaries only where an expression cannot otherwise be
// expressed with at most one pointer operation. Structs are handled in
// either the field-based mode of the paper (an access x.f maps to the
// per-struct-type field variable S.f) or the field-independent mode (x.f
// maps to the base object x). Arrays are index-independent. Each static
// occurrence of a memory allocator is a fresh location, and string
// constants are ignored unless modeling is enabled.
package frontend

import (
	"fmt"
	"maps"
	"slices"

	"cla/internal/cc"
	"cla/internal/ctypes"
	"cla/internal/prim"
)

// StructMode selects the treatment of struct/union fields.
type StructMode uint8

// Struct modes.
const (
	// FieldBased collects information per field of each struct type:
	// an assignment to x.f is an assignment to "S.f" and the base object
	// x is ignored. This is the paper's default.
	FieldBased StructMode = iota
	// FieldIndependent treats a struct variable as one unstructured
	// memory chunk: an assignment to x.f is an assignment to x and the
	// field component is ignored.
	FieldIndependent
)

func (m StructMode) String() string {
	if m == FieldIndependent {
		return "field-independent"
	}
	return "field-based"
}

// Options configures the compile phase.
type Options struct {
	Mode StructMode
	// ModelStrings gives each string literal occurrence a fresh object
	// instead of ignoring constant strings (off by default, matching the
	// paper's measurement setup).
	ModelStrings bool
	// Allocators names functions whose each static call site yields a
	// fresh heap location. Nil means DefaultAllocators.
	Allocators map[string]bool
	// Defines are predefined object-like macros applied before
	// preprocessing (CompileSource/CompileFile only).
	Defines map[string]string
}

// DefaultAllocators is the standard allocation-primitive set.
var DefaultAllocators = map[string]bool{
	"malloc": true, "calloc": true, "realloc": true, "valloc": true,
	"memalign": true, "strdup": true, "strndup": true,
}

// Compile lowers a checked unit into a primitive-assignment database
// that carries only the symbols and function records the unit uses
// (keep.go).
func Compile(ck *ctypes.Checked, opts Options) *prim.Program {
	b := newBuilder(ck, opts)
	b.lower()
	return b.program()
}

func newBuilder(ck *ctypes.Checked, opts Options) *builder {
	if opts.Allocators == nil {
		opts.Allocators = DefaultAllocators
	}
	return &builder{
		ck:   ck,
		opts: opts,
		// An object has one symbol; parameters, returns and temporaries
		// add about as many again.
		prog:   &prim.Program{Syms: make([]prim.Symbol, 0, 2*len(ck.Objects))},
		objSym: map[*ctypes.Object]prim.SymID{},
		fldSym: map[fieldKey]prim.SymID{},
		fnRec:  map[prim.SymID]int{},
	}
}

// lower lowers the checked unit's declarations.
func (b *builder) lower() {
	for _, d := range b.ck.Unit.Decls {
		switch v := d.(type) {
		case *cc.Declaration:
			b.topDeclaration(v)
		case *cc.FuncDef:
			b.funcDef(v)
		}
	}
}

// lowerPrefix lowers a leading include's checked declarations into the
// prefix the units after it continue (see extend). The prefix is
// read-only: it keeps only what a continuing builder reads.
func lowerPrefix(ck *ctypes.Checked, opts Options) *builder {
	b := newBuilder(ck, opts)
	b.lower()
	b.paramIndex()
	b.settleKept()
	b.ck = nil
	return b
}

// extend returns a builder that lowers ck, the declarations after the
// prefix base, as the continuation of base: its ids continue base's, it
// reads base's entries in place until it writes one (symw, recw), and
// it looks up the objects, fields and function records base lowered in
// base's tables, adding its own to its own. The program is the one
// lowering the whole list gives when keepsPrefix holds.
func (base *builder) extend(ck *ctypes.Checked) *builder {
	b := newBuilder(ck, base.opts)
	b.base = base
	b.symOff, b.recOff = prim.SymID(len(base.prog.Syms)), len(base.prog.Funcs)
	b.tempSeq, b.heapSeq, b.strSeq = base.tempSeq, base.heapSeq, base.strSeq
	return b
}

// keepsPrefix reports whether lowering the whole declaration list would
// lower the prefix base as it is, given copies, the objects of the
// prefix's scope that the declarations after it wrote (ctypes.CheckFrom).
// Lowering reads a redeclared object's final type: a symbol's type
// string and, for a function, the parameter count of its record, and
// for a function the prefix defines, the parameter names its body
// binds. So a copy keeps the prefix when its type prints as the
// original's with as many parameters, of a function the prefix does not
// define.
func (base *builder) keepsPrefix(copies []*ctypes.Object) bool {
	for _, cp := range copies {
		o := cp.Original()
		if id, ok := base.symID(o); ok && o.Kind == ctypes.ObjFunc && base.prog.Syms[id].Defined {
			return false
		}
		if numParams(cp.Type) != numParams(o.Type) || cp.Type.String() != o.Type.String() {
			return false
		}
	}
	return true
}

// numParams returns the parameter count of the function t calls.
func numParams(t *ctypes.Type) int {
	if ft := t.FuncType(); ft != nil {
		return len(ft.Params)
	}
	return 0
}

// sameLowering reports whether a and b lower a checked unit alike.
func sameLowering(a, b Options) bool {
	alloc := func(o Options) map[string]bool {
		if o.Allocators == nil {
			return DefaultAllocators
		}
		return o.Allocators
	}
	return a.Mode == b.Mode && a.ModelStrings == b.ModelStrings && maps.Equal(alloc(a), alloc(b))
}

type fieldKey struct {
	info *ctypes.StructInfo
	name string
}

// paramKey names a parameter: its function and its own name.
type paramKey struct{ fn, name string }

type builder struct {
	ck   *ctypes.Checked
	opts Options
	prog *prim.Program
	// base is the read-only prefix this builder continues (extend), or
	// nil; its tables are consulted after this builder's own.
	base *builder
	// symOff and recOff count base's symbols and records (0 without a
	// base): a lower id or record index is a prefix entry, read from base
	// until the unit writes it and from its copy in written or writtenRec
	// after; prog holds the unit's own entries, at id-symOff and
	// idx-recOff, and its own assignments and call sites.
	symOff     prim.SymID
	recOff     int
	written    overlay[prim.Symbol]
	writtenRec overlay[prim.FuncRecord]
	// keepSyms and keepRecs are, in a prefix, the entries its own
	// entries keep (keep.go), and owner[id] the index of the record
	// symbol id belongs to, or -1.
	keepSyms, keepRecs bitset
	owner              []int32

	objSym map[*ctypes.Object]prim.SymID
	fldSym map[fieldKey]prim.SymID
	// fnRec maps a function (or function-pointer) symbol to the index of
	// its FuncRecord in prog.Funcs.
	fnRec map[prim.SymID]int
	// params indexes parameter objects for lookupParamObject.
	params map[paramKey]*ctypes.Object

	curFunc     *ctypes.Object
	curFuncName string
	tempSeq     int
	heapSeq     int
	strSeq      int
}

func locOf(p cc.Pos) prim.Loc { return prim.Loc{File: p.File, Line: int32(p.Line)} }

// overlay is a unit's copies of the prefix entries it wrote, in the
// order it first wrote them: at[i] is 1 + the position of prefix entry
// i's copy, or 0. A pointer it returns is valid until the next copy.
type overlay[T any] struct {
	at     []int32
	ids    []int32
	copies []T
}

// get returns the copy of prefix entry i, or nil.
func (o *overlay[T]) get(i int) *T {
	if i < len(o.at) && o.at[i] > 0 {
		return &o.copies[o.at[i]-1]
	}
	return nil
}

// add stores v as the copy of entry i of n prefix entries.
func (o *overlay[T]) add(i, n int, v T) *T {
	if o.at == nil {
		o.at = make([]int32, n)
	}
	o.ids = append(o.ids, int32(i))
	o.copies = append(o.copies, v)
	o.at[i] = int32(len(o.copies))
	return &o.copies[len(o.copies)-1]
}

// sym returns symbol id for reading. Pointers from sym, symw, rec and
// recw are valid until the next entry is added or copied.
func (b *builder) sym(id prim.SymID) *prim.Symbol {
	if id >= b.symOff {
		return &b.prog.Syms[id-b.symOff]
	}
	if s := b.written.get(int(id)); s != nil {
		return s
	}
	return &b.base.prog.Syms[id]
}

// symw returns symbol id for writing: a prefix symbol is copied into
// the unit the first time.
func (b *builder) symw(id prim.SymID) *prim.Symbol {
	if id >= b.symOff {
		return &b.prog.Syms[id-b.symOff]
	}
	if s := b.written.get(int(id)); s != nil {
		return s
	}
	return b.written.add(int(id), int(b.symOff), b.base.prog.Syms[id])
}

// rec returns the function record at idx for reading.
func (b *builder) rec(idx int) *prim.FuncRecord {
	if idx >= b.recOff {
		return &b.prog.Funcs[idx-b.recOff]
	}
	if r := b.writtenRec.get(idx); r != nil {
		return r
	}
	return &b.base.prog.Funcs[idx]
}

// recw returns the function record at idx for writing: a prefix record
// is copied into the unit the first time, with a parameter array the
// unit may append to.
func (b *builder) recw(idx int) *prim.FuncRecord {
	if idx >= b.recOff {
		return &b.prog.Funcs[idx-b.recOff]
	}
	if r := b.writtenRec.get(idx); r != nil {
		return r
	}
	c := b.base.prog.Funcs[idx]
	c.Params = slices.Clip(c.Params)
	return b.writtenRec.add(idx, b.recOff, c)
}

// addSym adds one of the unit's own symbols and returns its id.
func (b *builder) addSym(s prim.Symbol) prim.SymID {
	b.prog.Syms = append(b.prog.Syms, s)
	return b.symOff + prim.SymID(len(b.prog.Syms)-1)
}

// addRec adds an empty function record for fn and returns its index.
func (b *builder) addRec(fn prim.SymID) int {
	idx := b.recOff + len(b.prog.Funcs)
	b.prog.Funcs = append(b.prog.Funcs, prim.FuncRecord{Func: fn, Ret: prim.NoSym})
	b.fnRec[fn] = idx
	return idx
}

// define marks symbol id as defined by the unit.
func (b *builder) define(id prim.SymID) {
	if !b.sym(id).Defined {
		b.symw(id).Defined = true
	}
}

// symID returns the symbol of object o (an original), if it has one.
func (b *builder) symID(o *ctypes.Object) (prim.SymID, bool) {
	if id, ok := b.objSym[o]; ok || b.base == nil {
		return id, ok
	}
	return b.base.symID(o)
}

// recIndex returns the index of fn's FuncRecord, if it has one.
func (b *builder) recIndex(fn prim.SymID) (int, bool) {
	if idx, ok := b.fnRec[fn]; ok || b.base == nil {
		return idx, ok
	}
	return b.base.recIndex(fn)
}

// fieldID returns the field-based symbol of key, if it has one.
func (b *builder) fieldID(key fieldKey) (prim.SymID, bool) {
	if id, ok := b.fldSym[key]; ok || b.base == nil {
		return id, ok
	}
	return b.base.fieldID(key)
}

// symFor returns (creating on demand) the database symbol for an object.
// A copy of an object shares its original's symbol.
func (b *builder) symFor(o *ctypes.Object) prim.SymID {
	if id, ok := b.symID(o.Original()); ok {
		return id
	}
	s := prim.Symbol{
		Name:     o.Name,
		Type:     o.Type.String(),
		Loc:      locOf(o.Pos),
		FuncName: o.FuncName,
	}
	switch {
	case o.Kind == ctypes.ObjFunc:
		s.Kind = prim.SymFunc
		s.Internal = o.Storage == cc.SCStatic
	case o.Global && o.Storage == cc.SCStatic:
		s.Kind = prim.SymStatic
	case o.Global:
		s.Kind = prim.SymGlobal
	default:
		s.Kind = prim.SymLocal
	}
	id := b.addSym(s)
	b.objSym[o.Original()] = id
	if o.Kind == ctypes.ObjFunc {
		b.recordFor(id, o.Type)
	}
	return id
}

// fieldFor returns the field-based symbol for field name of struct info.
func (b *builder) fieldFor(info *ctypes.StructInfo, f *ctypes.Field, pos cc.Pos) prim.SymID {
	key := fieldKey{info, f.Name}
	if id, ok := b.fieldID(key); ok {
		return id
	}
	s := prim.Symbol{
		Name: info.Tag + "." + f.Name,
		Kind: prim.SymField,
		Type: f.Type.String(),
		Loc:  locOf(pos),
	}
	id := b.addSym(s)
	b.fldSym[key] = id
	return id
}

// temp creates a fresh compiler temporary.
func (b *builder) temp(pos cc.Pos) prim.SymID {
	b.tempSeq++
	return b.addSym(prim.Symbol{
		Name:     fmt.Sprintf("tmp$%d", b.tempSeq),
		Kind:     prim.SymTemp,
		Loc:      locOf(pos),
		FuncName: b.curFuncName,
	})
}

// heapSym creates the fresh location for one allocator call site. The
// sequence number keeps names unique when several allocation calls share a
// source line.
func (b *builder) heapSym(pos cc.Pos) prim.SymID {
	b.heapSeq++
	return b.addSym(prim.Symbol{
		Name: fmt.Sprintf("heap@%s#%d", pos, b.heapSeq),
		Kind: prim.SymHeap,
		Loc:  locOf(pos),
	})
}

// stringSym creates the object for one string literal occurrence.
func (b *builder) stringSym(pos cc.Pos) prim.SymID {
	b.strSeq++
	return b.addSym(prim.Symbol{
		Name: fmt.Sprintf("str@%s#%d", pos, b.strSeq),
		Kind: prim.SymString,
		Type: "char[]",
		Loc:  locOf(pos),
	})
}

// recordFor ensures a FuncRecord exists for fn, extending its parameter
// list to cover t's parameters (or n params for unknown types), and
// returns its index.
func (b *builder) recordFor(fn prim.SymID, t *ctypes.Type) int {
	idx, ok := b.recIndex(fn)
	if !ok {
		idx = b.addRec(fn)
	}
	ft := t.FuncType()
	if ft != nil {
		b.ensureParams(fn, len(ft.Params))
		if ft.Variadic && !b.rec(idx).Variadic {
			b.recw(idx).Variadic = true
		}
		// Record parameter and return types on the standardized symbols
		// so dependence chains print them.
		rec := b.rec(idx)
		for i, pt := range ft.Params {
			if i < len(rec.Params) && b.sym(rec.Params[i]).Type == "" {
				b.symw(rec.Params[i]).Type = pt.String()
			}
		}
		if rec.Ret != prim.NoSym && ft.Elem != nil && b.sym(rec.Ret).Type == "" {
			b.symw(rec.Ret).Type = ft.Elem.String()
		}
	}
	return idx
}

// ensureParams extends fn's record to at least n parameter symbols.
func (b *builder) ensureParams(fn prim.SymID, n int) {
	idx, _ := b.recIndex(fn)
	if len(b.rec(idx).Params) >= n {
		return
	}
	rec := b.recw(idx)
	base := *b.sym(fn)
	for len(rec.Params) < n {
		i := len(rec.Params) + 1
		s := prim.Symbol{
			Name:     fmt.Sprintf("%s$%d", base.Name, i),
			Kind:     prim.SymParam,
			Internal: base.Internal || !base.Kind.Linked(),
			FuncName: base.Name,
			Loc:      base.Loc,
		}
		rec.Params = append(rec.Params, b.addSym(s))
	}
}

// retFor returns (creating on demand) fn's standardized return symbol.
func (b *builder) retFor(fn prim.SymID) prim.SymID {
	idx := b.recordForExisting(fn)
	if ret := b.rec(idx).Ret; ret != prim.NoSym {
		return ret
	}
	base := b.sym(fn)
	ret := b.addSym(prim.Symbol{
		Name:     base.Name + "$ret",
		Kind:     prim.SymRet,
		Internal: base.Internal || !base.Kind.Linked(),
		FuncName: base.Name,
		Loc:      base.Loc,
	})
	b.recw(idx).Ret = ret
	return ret
}

func (b *builder) recordForExisting(fn prim.SymID) int {
	if idx, ok := b.recIndex(fn); ok {
		return idx
	}
	return b.addRec(fn)
}

// paramSym returns fn's i-th (0-based) standardized parameter symbol.
func (b *builder) paramSym(fn prim.SymID, i int) prim.SymID {
	idx := b.recordForExisting(fn)
	b.ensureParams(fn, i+1)
	return b.rec(idx).Params[i]
}

// markFuncPtr flags sym as an indirect-call target pointer.
func (b *builder) markFuncPtr(sym prim.SymID) {
	if !b.sym(sym).FuncPtr {
		b.symw(sym).FuncPtr = true
	}
	if idx := b.recordForExisting(sym); !b.rec(idx).Variadic {
		b.recw(idx).Variadic = true
	}
}

// ---------- Declarations and statements ----------

func (b *builder) topDeclaration(d *cc.Declaration) {
	for _, item := range d.Items {
		o := b.ck.DeclObj[item]
		if o == nil || o.Kind == ctypes.ObjTypedef || o.Kind == ctypes.ObjEnumConst {
			continue
		}
		sym := b.symFor(o)
		b.markDefined(sym, o, d, item)
		if item.Init != nil {
			b.lowerInit(sym, o.Type, item.Init)
		}
	}
}

// markDefined records whether this declaration item is a defining
// occurrence: any object declaration reserves storage unless it is a plain
// `extern` reference without an initializer, while function declarations
// are mere prototypes (only funcDef defines a function).
func (b *builder) markDefined(sym prim.SymID, o *ctypes.Object, d *cc.Declaration, item *cc.InitDeclarator) {
	if o.Kind == ctypes.ObjFunc {
		return
	}
	if d.Specs.Storage != cc.SCExtern || item.Init != nil {
		b.define(sym)
	}
}

func (b *builder) funcDef(fd *cc.FuncDef) {
	o := b.ck.FuncObj[fd]
	if o == nil {
		return
	}
	fn := b.symFor(o)
	b.define(fn)
	prevFunc, prevName := b.curFunc, b.curFuncName
	b.curFunc, b.curFuncName = o, o.Name
	defer func() { b.curFunc, b.curFuncName = prevFunc, prevName }()

	// Bind standardized parameters to the declared parameter objects:
	// x = f$1, y = f$2 ...
	ft := o.Type.FuncType()
	if ft != nil {
		b.ensureParams(fn, len(ft.Params))
		for i, name := range ft.Names {
			if name == "" {
				continue
			}
			po := b.lookupParamObject(name)
			if po == nil {
				continue
			}
			b.emit(prim.Assign{
				Kind: prim.Simple,
				Dst:  b.symFor(po),
				Src:  b.paramSym(fn, i),
				Op:   prim.OpCopy, Strength: prim.Strong,
				Loc: locOf(fd.Pos_),
			})
		}
	}
	b.stmt(fd.Body)
}

// lookupParamObject finds the checked parameter object of the current
// function by name: the first in declaration order, the prefix's before
// the unit's.
func (b *builder) lookupParamObject(name string) *ctypes.Object {
	k := paramKey{b.curFuncName, name}
	if b.base != nil {
		if o := b.base.params[k]; o != nil {
			return o
		}
	}
	return b.paramIndex()[k]
}

// paramIndex returns the index of the unit's parameters, built on
// first use.
func (b *builder) paramIndex() map[paramKey]*ctypes.Object {
	if b.params == nil {
		b.params = map[paramKey]*ctypes.Object{}
		for _, o := range b.ck.Objects {
			if k := (paramKey{o.FuncName, o.Name}); o.IsParam && b.params[k] == nil {
				b.params[k] = o
			}
		}
	}
	return b.params
}

func (b *builder) stmt(s cc.Stmt) {
	switch v := s.(type) {
	case nil:
	case *cc.CompoundStmt:
		for _, item := range v.Items {
			b.stmt(item)
		}
	case *cc.DeclStmt:
		b.blockDeclaration(v.Decl)
	case *cc.ExprStmt:
		if v.Expr != nil {
			b.effects(v.Expr)
		}
	case *cc.IfStmt:
		b.effects(v.Cond)
		b.stmt(v.Then)
		b.stmt(v.Else)
	case *cc.WhileStmt:
		b.effects(v.Cond)
		b.stmt(v.Body)
	case *cc.DoStmt:
		b.stmt(v.Body)
		b.effects(v.Cond)
	case *cc.ForStmt:
		if v.InitDecl != nil {
			b.blockDeclaration(v.InitDecl)
		}
		if v.Init != nil {
			b.effects(v.Init)
		}
		if v.Cond != nil {
			b.effects(v.Cond)
		}
		if v.Post != nil {
			b.effects(v.Post)
		}
		b.stmt(v.Body)
	case *cc.SwitchStmt:
		b.effects(v.Tag)
		b.stmt(v.Body)
	case *cc.CaseStmt:
		b.stmt(v.Body)
	case *cc.ReturnStmt:
		if v.Expr != nil && b.curFunc != nil {
			fn := b.symFor(b.curFunc)
			ret := b.retFor(fn)
			b.assignTo(ref{kind: refObj, sym: ret}, v.Expr, ctx{op: prim.OpCopy, strength: prim.Strong})
		} else if v.Expr != nil {
			b.effects(v.Expr)
		}
	case *cc.LabelStmt:
		b.stmt(v.Body)
	case *cc.BreakStmt, *cc.ContinueStmt, *cc.GotoStmt:
	}
}

func (b *builder) blockDeclaration(d *cc.Declaration) {
	for _, item := range d.Items {
		o := b.ck.DeclObj[item]
		if o == nil || o.Kind == ctypes.ObjTypedef || o.Kind == ctypes.ObjEnumConst {
			continue
		}
		sym := b.symFor(o)
		b.markDefined(sym, o, d, item)
		if item.Init != nil {
			b.lowerInit(sym, o.Type, item.Init)
		}
	}
}

// lowerInit lowers an initializer for the object sym of type t.
func (b *builder) lowerInit(sym prim.SymID, t *ctypes.Type, init *cc.Init) {
	if init.Expr != nil {
		b.assignTo(ref{kind: refObj, sym: sym}, init.Expr, ctx{op: prim.OpCopy, strength: prim.Strong})
		return
	}
	// Braced list.
	switch {
	case t != nil && t.Kind == ctypes.KArray:
		for _, item := range init.List {
			// Index-independent: every element is the array object.
			b.lowerInit(sym, t.Elem, item)
		}
	case t != nil && t.IsStruct() && t.Info != nil:
		fi := 0
		for _, item := range init.List {
			var f *ctypes.Field
			if item.Field != "" {
				if ff, ok := t.Info.FieldByName(item.Field); ok {
					f = ff
					// Designators reset sequential position.
					for i := range t.Info.Fields {
						if &t.Info.Fields[i] == ff {
							fi = i + 1
						}
					}
				}
			} else if fi < len(t.Info.Fields) {
				f = &t.Info.Fields[fi]
				fi++
			}
			dst := sym
			var ft *ctypes.Type
			if f != nil {
				ft = f.Type
				if b.opts.Mode == FieldBased && f.Name != "" {
					dst = b.fieldFor(t.Info, f, init.Pos_)
				}
			}
			b.lowerInit(dst, ft, item)
		}
	default:
		// Scalar with braces, or unknown aggregate: flatten.
		for _, item := range init.List {
			b.lowerInit(sym, t, item)
		}
	}
}
