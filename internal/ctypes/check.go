package ctypes

import (
	"fmt"
	"slices"

	"cla/internal/cc"
)

// Checked is the result of type-checking one translation unit.
type Checked struct {
	Unit *cc.TranslationUnit
	// ExprType records the resolved type of every typed expression.
	ExprType map[cc.Expr]*Type
	// Refs resolves identifier uses to their declarations.
	Refs map[*cc.IdentExpr]*Object
	// Members resolves member accesses to (struct identity, field).
	Members map[*cc.MemberExpr]*MemberRef
	// FuncObj maps each function definition to its object.
	FuncObj map[*cc.FuncDef]*Object
	// DeclObj maps each init-declarator to its object.
	DeclObj map[*cc.InitDeclarator]*Object
	// Objects lists every object the unit declared, in declaration order.
	Objects []*Object
	// Copies lists the unit's copies of objects of the scope it was
	// checked from (CheckFrom), in the order they were made.
	Copies []*Object
	// Errs holds non-fatal diagnoses, the scope's first.
	Errs *cc.ErrorList
	// scope is the file scope after the unit.
	scope *Scope
}

// MemberRef is a resolved x.f / p->f access.
type MemberRef struct {
	Struct *StructInfo
	Field  *Field
}

type scope struct {
	names map[string]*Object
	tags  map[string]*Type // struct/union/enum tags
	prev  *scope
	// shared is the read-only file scope the file scope continues; nil
	// in every other scope.
	shared *Scope
}

// Scope is the file scope a run of top-level declarations leaves: its
// objects and tags, the implicit declarations made so far, the count
// that names anonymous tags and the diagnoses. Scopes are layered: a
// check from a Scope adds a layer and never writes an earlier one,
// neither its tables nor the objects and types they hold, so checks on
// any goroutine may start from the same Scope. A nil *Scope is the empty
// file scope at the start of a translation unit.
type Scope struct {
	names    map[string]*Object
	tags     map[string]*Type
	implicit map[string]*Object
	anonSeq  int
	errs     []error
	prev     *Scope
}

type checker struct {
	res      *Checked
	sc       *scope
	file     *scope // the file scope
	curFunc  *Object
	anonSeq  int
	implicit map[string]*Object // per-unit implicit decls, deduped by name
	// completed records that the unit completed a tag of the shared scope.
	completed bool
}

// Check resolves types, scopes and references for a parsed unit.
// The returned Checked is usable even when Errs is non-empty.
func Check(unit *cc.TranslationUnit) *Checked {
	ck, _ := CheckFrom(unit, nil)
	return ck
}

// CheckFrom checks unit as the continuation of a translation unit whose
// earlier top-level declarations left sc. For the unit's own nodes the
// result is what Check gives on the whole declaration list, with one
// difference: an object of sc that the unit redeclares with a new type
// is copied into the unit's layer first (Object.Original names the one
// in sc, Checked.Copies lists the copies), and the unit's later uses
// resolve to the copy. A struct or union tag that sc left incomplete
// cannot be copied that way: sc's objects keep the incomplete type,
// while a check of the whole list completes it under them. CheckFrom
// reports false when the unit completes such a tag; its result is then
// not the whole list's, and the caller must check the whole list.
func CheckFrom(unit *cc.TranslationUnit, sc *Scope) (*Checked, bool) {
	res := &Checked{
		Unit:     unit,
		ExprType: map[cc.Expr]*Type{},
		Refs:     map[*cc.IdentExpr]*Object{},
		Members:  map[*cc.MemberExpr]*MemberRef{},
		FuncObj:  map[*cc.FuncDef]*Object{},
		DeclObj:  map[*cc.InitDeclarator]*Object{},
		Errs:     &cc.ErrorList{Max: 50},
	}
	c := &checker{res: res, implicit: map[string]*Object{}}
	if sc != nil {
		c.anonSeq = sc.anonSeq
		res.Errs.Errs = slices.Clip(sc.errs)
	}
	c.push()
	c.file = c.sc
	c.file.shared = sc
	for _, d := range unit.Decls {
		switch v := d.(type) {
		case *cc.Declaration:
			c.declaration(v, true)
		case *cc.FuncDef:
			c.funcDef(v)
		}
	}
	res.scope = &Scope{
		names: c.file.names, tags: c.file.tags, implicit: c.implicit,
		anonSeq: c.anonSeq, errs: slices.Clip(res.Errs.Errs), prev: sc,
	}
	return res, !c.completed
}

// Scope returns the file scope after the unit, for checking declarations
// that follow it. It is read-only, as every Scope is.
func (ck *Checked) Scope() *Scope { return ck.scope }

func (c *checker) errorf(pos cc.Pos, format string, args ...any) {
	c.res.Errs.Add(pos, format, args...)
}

func (c *checker) push() {
	c.sc = &scope{names: map[string]*Object{}, tags: map[string]*Type{}, prev: c.sc}
}
func (c *checker) pop() { c.sc = c.sc.prev }

func (c *checker) lookup(name string) *Object {
	o, _ := c.lookupShared(name)
	return o
}

// lookupShared is lookup that also reports whether the object belongs to
// the shared scope.
func (c *checker) lookupShared(name string) (*Object, bool) {
	for s := c.sc; s != nil; s = s.prev {
		if o, shared := s.name(name); o != nil {
			return o, shared
		}
	}
	return nil, false
}

// name finds a name declared in s itself, in its own table or, for the
// file scope, in the shared layers under it.
func (s *scope) name(name string) (o *Object, shared bool) {
	if o, ok := s.names[name]; ok {
		return o, false
	}
	for l := s.shared; l != nil; l = l.prev {
		if o, ok := l.names[name]; ok {
			return o, true
		}
	}
	return nil, false
}

// lookupTag finds a tag, reporting whether it belongs to the shared
// scope.
func (c *checker) lookupTag(name string) (*Type, bool) {
	for s := c.sc; s != nil; s = s.prev {
		if t, ok := s.tags[name]; ok {
			return t, false
		}
		for l := s.shared; l != nil; l = l.prev {
			if t, ok := l.tags[name]; ok {
				return t, true
			}
		}
	}
	return nil, false
}

// implicitDecl finds the implicit declaration of name made so far.
func (c *checker) implicitDecl(name string) (*Object, bool) {
	if o, ok := c.implicit[name]; ok {
		return o, true
	}
	for l := c.file.shared; l != nil; l = l.prev {
		if o, ok := l.implicit[name]; ok {
			return o, true
		}
	}
	return nil, false
}

func (c *checker) declare(o *Object) {
	if o.Name == "" {
		return
	}
	if prev, shared := c.sc.name(o.Name); prev != nil {
		// Redeclaration in the same scope: tolerate compatible redecls
		// (extern then def, repeated prototypes); keep the first object so
		// references stay stable, but upgrade a tentative type.
		if prev.Kind == o.Kind {
			if prev.Type == nil || (prev.Type.Kind == KFunc && o.Type != nil && o.Type.Kind == KFunc) {
				c.own(prev, shared).Type = o.Type
			}
			return
		}
	}
	c.sc.names[o.Name] = o
	c.res.Objects = append(c.res.Objects, o)
}

// own returns o for writing: o itself, or for an object of the shared
// scope the unit's copy of it, which takes its place in the file scope.
func (c *checker) own(o *Object, shared bool) *Object {
	if !shared {
		return o
	}
	cp := *o
	cp.orig = o.Original()
	c.file.names[o.Name] = &cp
	c.res.Copies = append(c.res.Copies, &cp)
	return &cp
}

// ---------- Types from syntax ----------

// resolveSpecs builds the base type from declaration specifiers.
func (c *checker) resolveSpecs(s *cc.DeclSpecs) *Type {
	if s == nil {
		return Int
	}
	switch {
	case s.Struct != nil:
		return c.structType(s.Struct)
	case s.Enum != nil:
		return c.enumType(s.Enum)
	case s.TypedefName != "":
		if o := c.lookup(s.TypedefName); o != nil && o.Kind == ObjTypedef {
			return o.Type
		}
		c.errorf(s.Pos_, "unknown type name %q", s.TypedefName)
		return Int
	}
	return basicType(s.Basic)
}

// basicType maps a basic keyword multiset to a predefined type.
func basicType(kws []string) *Type {
	var void, ch, short, flt, dbl bool
	longs := 0
	sign := 0 // 0 unspecified, 1 signed, -1 unsigned
	for _, k := range kws {
		switch k {
		case "void":
			void = true
		case "char":
			ch = true
		case "short":
			short = true
		case "long":
			longs++
		case "float":
			flt = true
		case "double":
			dbl = true
		case "signed":
			sign = 1
		case "unsigned":
			sign = -1
		}
	}
	switch {
	case void:
		return Void
	case flt:
		return Float
	case dbl:
		if longs > 0 {
			return LongDouble
		}
		return Double
	case ch:
		if sign == -1 {
			return UChar
		}
		return Char
	case short:
		if sign == -1 {
			return UShort
		}
		return Short
	case longs >= 2:
		if sign == -1 {
			return ULongLong
		}
		return LongLong
	case longs == 1:
		if sign == -1 {
			return ULong
		}
		return Long
	case sign == -1:
		return UInt
	default:
		return Int
	}
}

func (c *checker) structType(s *cc.StructSpec) *Type {
	tag := s.Name
	if tag == "" {
		c.anonSeq++
		tag = fmt.Sprintf("anon%d@%s", c.anonSeq, s.Pos_)
	}
	var t *Type
	shared := false
	if s.Name != "" {
		t, shared = c.lookupTag("$" + kindTagPrefix(s.Union) + s.Name)
	}
	if s.Defined && shared && !t.Info.Complete {
		// Complete a copy rather than the shared tag; the result is not
		// the whole list's (see CheckFrom).
		c.completed = true
		t = nil
	}
	if t == nil {
		t = &Type{Kind: KStruct, Info: &StructInfo{Tag: tag, Union: s.Union}}
		key := "$" + kindTagPrefix(s.Union) + tag
		// Tags are declared in the current scope; a definition inside a
		// function does not leak out.
		c.sc.tags[key] = t
	}
	if s.Defined && !t.Info.Complete {
		t.Info.Complete = true
		for _, f := range s.Fields {
			base := c.resolveSpecs(f.Specs)
			if f.Decl == nil {
				// Anonymous member (e.g. anonymous inner struct/union).
				if base.IsStruct() {
					t.Info.Fields = append(t.Info.Fields, Field{Name: "", Type: base})
				}
				continue
			}
			name, ft := c.applyDeclarator(f.Decl, base)
			t.Info.Fields = append(t.Info.Fields, Field{Name: name, Type: ft, Bit: f.Bits != nil})
		}
		t.Size = Sizeof(t)
	} else if s.Defined && t.Info.Complete && s.Name != "" {
		// Redefinition of a complete tag in an inner scope: make a new type.
		inner := &Type{Kind: KStruct, Info: &StructInfo{Tag: tag, Union: s.Union}}
		c.sc.tags["$"+kindTagPrefix(s.Union)+tag] = inner
		inner.Info.Complete = true
		for _, f := range s.Fields {
			base := c.resolveSpecs(f.Specs)
			if f.Decl == nil {
				continue
			}
			name, ft := c.applyDeclarator(f.Decl, base)
			inner.Info.Fields = append(inner.Info.Fields, Field{Name: name, Type: ft, Bit: f.Bits != nil})
		}
		inner.Size = Sizeof(inner)
		return inner
	}
	return t
}

func kindTagPrefix(union bool) string {
	if union {
		return "u:"
	}
	return "s:"
}

func (c *checker) enumType(e *cc.EnumSpec) *Type {
	t := Int
	var val int64
	for _, it := range e.Items {
		if it.Value != nil {
			if v, ok := c.evalConst(it.Value); ok {
				val = v
			}
		}
		c.declare(&Object{
			Name: it.Name, Kind: ObjEnumConst, Type: Int,
			Pos: it.Pos_, EnumVal: val, Global: c.curFunc == nil,
		})
		val++
	}
	return t
}

// applyDeclarator wraps base with the declarator's shape and returns the
// declared name and full type.
func (c *checker) applyDeclarator(d cc.Declarator, base *Type) (string, *Type) {
	switch v := d.(type) {
	case *cc.IdentDecl:
		return v.Name, base
	case *cc.PointerDecl:
		return c.applyDeclarator(v.Inner, PtrTo(base))
	case *cc.ArrayDecl:
		n := int64(-1)
		if v.Size != nil {
			if val, ok := c.evalConst(v.Size); ok {
				n = val
			}
		}
		return c.applyDeclarator(v.Inner, ArrayOf(base, n))
	case *cc.FuncDecl:
		ft := &Type{Kind: KFunc, Elem: base, Variadic: v.Variadic}
		for _, pd := range v.Params {
			pbase := c.resolveSpecs(pd.Specs)
			pname := ""
			pt := pbase
			if pd.Decl != nil {
				pname, pt = c.applyDeclarator(pd.Decl, pbase)
			}
			pt = adjustParam(pt)
			ft.Params = append(ft.Params, pt)
			ft.Names = append(ft.Names, pname)
		}
		for _, n := range v.KRNames {
			// Types attach later from the K&R declarations; default int.
			ft.Params = append(ft.Params, Int)
			ft.Names = append(ft.Names, n)
		}
		return c.applyDeclarator(v.Inner, ft)
	}
	return "", base
}

// adjustParam applies parameter type adjustment: arrays and functions decay
// to pointers.
func adjustParam(t *Type) *Type {
	switch t.Kind {
	case KArray:
		return PtrTo(t.Elem)
	case KFunc:
		return PtrTo(t)
	}
	return t
}

// ---------- Declarations ----------

func (c *checker) declaration(d *cc.Declaration, global bool) {
	base := c.resolveSpecs(d.Specs)
	for _, item := range d.Items {
		name, t := c.applyDeclarator(item.Decl.D, base)
		o := &Object{
			Name:    name,
			Type:    t,
			Storage: d.Specs.Storage,
			Pos:     item.Decl.Pos_,
			Global:  global,
		}
		switch {
		case d.Specs.Storage == cc.SCTypedef:
			o.Kind = ObjTypedef
		case t != nil && t.Kind == KFunc:
			o.Kind = ObjFunc
			o.Global = true
		default:
			o.Kind = ObjVar
		}
		if !global && c.curFunc != nil {
			o.FuncName = c.curFunc.Name
			if d.Specs.Storage == cc.SCStatic {
				// Function-scope statics behave like file statics for the
				// analysis (one object per occurrence).
				o.Global = false
			}
		}
		c.declare(o)
		// Use the canonical object (possibly a prior declaration).
		if canon := c.lookup(name); canon != nil {
			o = canon
		}
		c.res.DeclObj[item] = o
		if item.Init != nil {
			c.checkInit(item.Init, o.Type)
		}
	}
}

func (c *checker) funcDef(fd *cc.FuncDef) {
	base := c.resolveSpecs(fd.Specs)
	name, t := c.applyDeclarator(fd.Decl.D, base)
	if t == nil || t.Kind != KFunc {
		c.errorf(fd.Pos_, "function definition of %q has non-function type", name)
		t = &Type{Kind: KFunc, Elem: Int}
	}
	o := &Object{Name: name, Kind: ObjFunc, Type: t, Storage: fd.Specs.Storage, Pos: fd.Pos_, Global: true}
	c.declare(o)
	if canon, shared := c.lookupShared(name); canon != nil && canon.Kind == ObjFunc {
		canon = c.own(canon, shared)
		canon.Type = t // the definition's type wins
		o = canon
	}
	c.res.FuncObj[fd] = o

	prevFunc := c.curFunc
	c.curFunc = o
	c.push()
	// Parameter objects. K&R declarations refine the default int types.
	krTypes := map[string]*Type{}
	for _, kd := range fd.KRDecls {
		kbase := c.resolveSpecs(kd.Specs)
		for _, item := range kd.Items {
			pn, pt := c.applyDeclarator(item.Decl.D, kbase)
			krTypes[pn] = adjustParam(pt)
		}
	}
	fdecl := findFuncDecl(fd.Decl.D)
	if fdecl != nil {
		for i, pt := range t.Params {
			pn := ""
			if i < len(t.Names) {
				pn = t.Names[i]
			}
			if kt, ok := krTypes[pn]; ok {
				pt = kt
				t.Params[i] = kt
			}
			if pn != "" {
				po := &Object{
					Name: pn, Kind: ObjVar, Type: pt, Pos: fdecl.Pos_,
					FuncName: name, IsParam: true,
				}
				c.declare(po)
			}
		}
	}
	c.stmt(fd.Body)
	c.pop()
	c.curFunc = prevFunc
}

// findFuncDecl returns the FuncDecl adjacent to the identifier.
func findFuncDecl(d cc.Declarator) *cc.FuncDecl {
	for {
		switch v := d.(type) {
		case *cc.FuncDecl:
			if _, ok := v.Inner.(*cc.IdentDecl); ok {
				return v
			}
			d = v.Inner
		case *cc.PointerDecl:
			d = v.Inner
		case *cc.ArrayDecl:
			d = v.Inner
		default:
			return nil
		}
	}
}

func (c *checker) checkInit(init *cc.Init, t *Type) {
	if init.Expr != nil {
		c.expr(init.Expr)
		return
	}
	for _, item := range init.List {
		et := elementType(t, item.Field)
		c.checkInit(item, et)
	}
}

// elementType guesses the element type for one initializer item.
func elementType(t *Type, field string) *Type {
	if t == nil {
		return Int
	}
	switch t.Kind {
	case KArray:
		return t.Elem
	case KStruct:
		if t.Info != nil {
			if field != "" {
				if f, ok := t.Info.FieldByName(field); ok {
					return f.Type
				}
			} else if len(t.Info.Fields) > 0 {
				return t.Info.Fields[0].Type
			}
		}
	}
	return t
}

// ---------- Statements ----------

func (c *checker) stmt(s cc.Stmt) {
	switch v := s.(type) {
	case nil:
	case *cc.CompoundStmt:
		c.push()
		for _, item := range v.Items {
			c.stmt(item)
		}
		c.pop()
	case *cc.DeclStmt:
		c.declaration(v.Decl, false)
	case *cc.ExprStmt:
		if v.Expr != nil {
			c.expr(v.Expr)
		}
	case *cc.IfStmt:
		c.expr(v.Cond)
		c.stmt(v.Then)
		c.stmt(v.Else)
	case *cc.WhileStmt:
		c.expr(v.Cond)
		c.stmt(v.Body)
	case *cc.DoStmt:
		c.stmt(v.Body)
		c.expr(v.Cond)
	case *cc.ForStmt:
		c.push()
		if v.InitDecl != nil {
			c.declaration(v.InitDecl, false)
		}
		if v.Init != nil {
			c.expr(v.Init)
		}
		if v.Cond != nil {
			c.expr(v.Cond)
		}
		if v.Post != nil {
			c.expr(v.Post)
		}
		c.stmt(v.Body)
		c.pop()
	case *cc.SwitchStmt:
		c.expr(v.Tag)
		c.stmt(v.Body)
	case *cc.CaseStmt:
		if v.Expr != nil {
			c.expr(v.Expr)
		}
		c.stmt(v.Body)
	case *cc.ReturnStmt:
		if v.Expr != nil {
			c.expr(v.Expr)
		}
	case *cc.LabelStmt:
		c.stmt(v.Body)
	case *cc.BreakStmt, *cc.ContinueStmt, *cc.GotoStmt:
	}
}

// ---------- Expressions ----------

// expr types e, recording the result in ExprType, and returns it.
func (c *checker) expr(e cc.Expr) *Type {
	t := c.exprUncached(e)
	if t == nil {
		t = Int
	}
	c.res.ExprType[e] = t
	return t
}

func (c *checker) exprUncached(e cc.Expr) *Type {
	switch v := e.(type) {
	case *cc.IdentExpr:
		o := c.lookup(v.Name)
		if o == nil {
			o = c.implicitObject(v)
		}
		c.res.Refs[v] = o
		if o.Kind == ObjEnumConst {
			return Int
		}
		return o.Type
	case *cc.IntExpr:
		return Int
	case *cc.FloatExpr:
		return Double
	case *cc.CharExpr:
		return Char
	case *cc.StringExpr:
		return PtrTo(Char)
	case *cc.UnaryExpr:
		xt := c.expr(v.X)
		switch v.Op {
		case "&":
			return PtrTo(xt)
		case "*":
			if d := xt.Deref(); d != nil {
				return d
			}
			if ft := xt.FuncType(); ft != nil {
				return ft
			}
			return Int
		case "!":
			return Int
		case "~", "-", "+", "++", "--":
			return xt
		}
		return xt
	case *cc.PostfixExpr:
		return c.expr(v.X)
	case *cc.BinaryExpr:
		xt := c.expr(v.X)
		yt := c.expr(v.Y)
		switch v.Op {
		case "==", "!=", "<", ">", "<=", ">=", "&&", "||":
			return Int
		case "+", "-":
			if xt.IsPointerish() && !yt.IsPointerish() {
				return decay(xt)
			}
			if yt.IsPointerish() && !xt.IsPointerish() {
				return decay(yt)
			}
			if xt.IsPointerish() && yt.IsPointerish() {
				return Long // pointer difference
			}
		}
		return arith(xt, yt)
	case *cc.AssignExpr:
		lt := c.expr(v.L)
		c.expr(v.R)
		return lt
	case *cc.CondExpr:
		c.expr(v.Cond)
		tt := c.expr(v.Then)
		et := c.expr(v.Else)
		if tt.Kind == KVoid {
			return et
		}
		if tt.IsPointerish() {
			return decay(tt)
		}
		if et.IsPointerish() {
			return decay(et)
		}
		return arith(tt, et)
	case *cc.CommaExpr:
		c.expr(v.X)
		return c.expr(v.Y)
	case *cc.CallExpr:
		ft := c.callFuncType(v)
		for _, a := range v.Args {
			c.expr(a)
		}
		if ft != nil && ft.Elem != nil {
			return ft.Elem
		}
		return Int
	case *cc.IndexExpr:
		xt := c.expr(v.X)
		it := c.expr(v.Index)
		if d := xt.Deref(); d != nil {
			return d
		}
		if d := it.Deref(); d != nil { // i[a] idiom
			return d
		}
		return Int
	case *cc.MemberExpr:
		xt := c.expr(v.X)
		st := xt
		if v.Arrow {
			st = xt.Deref()
		}
		if st != nil && st.IsStruct() && st.Info != nil {
			if f, ok := st.Info.FieldByName(v.Field); ok {
				c.res.Members[v] = &MemberRef{Struct: st.Info, Field: f}
				return f.Type
			}
			c.errorf(v.Pos_, "no field %q in %s", v.Field, st)
		} else {
			c.errorf(v.Pos_, "member access %q on non-struct type %s", v.Field, xt)
		}
		return Int
	case *cc.CastExpr:
		c.expr(v.X)
		return c.typeName(v.Type)
	case *cc.SizeofExpr:
		if v.X != nil {
			c.expr(v.X)
		}
		return ULong
	}
	return Int
}

// callFuncType types the callee of a call, handling implicit function
// declarations for bare undeclared names.
func (c *checker) callFuncType(v *cc.CallExpr) *Type {
	if id, ok := v.Fun.(*cc.IdentExpr); ok {
		o := c.lookup(id.Name)
		if o == nil {
			// Implicit function declaration: int name().
			o = c.implicitFunc(id)
		}
		c.res.Refs[id] = o
		c.res.ExprType[id] = o.Type
		return o.Type.FuncType()
	}
	ft := c.expr(v.Fun)
	return ft.FuncType()
}

// implicitObject synthesizes an object for an undeclared identifier.
func (c *checker) implicitObject(v *cc.IdentExpr) *Object {
	if o, ok := c.implicitDecl(v.Name); ok {
		return o
	}
	c.errorf(v.Pos_, "undeclared identifier %q", v.Name)
	o := &Object{Name: v.Name, Kind: ObjVar, Type: Int, Pos: v.Pos_, Global: true, Implicit: true}
	c.implicit[v.Name] = o
	c.res.Objects = append(c.res.Objects, o)
	return o
}

// implicitFunc synthesizes `int name()` for a call to an undeclared name.
func (c *checker) implicitFunc(v *cc.IdentExpr) *Object {
	if o, ok := c.implicitDecl(v.Name); ok && o.Kind == ObjFunc {
		return o
	}
	o := &Object{
		Name: v.Name, Kind: ObjFunc,
		Type: &Type{Kind: KFunc, Elem: Int, Variadic: true},
		Pos:  v.Pos_, Global: true, Implicit: true,
	}
	c.implicit[v.Name] = o
	c.res.Objects = append(c.res.Objects, o)
	return o
}

// decay converts array/function types to pointers for value contexts.
func decay(t *Type) *Type {
	switch t.Kind {
	case KArray:
		return PtrTo(t.Elem)
	case KFunc:
		return PtrTo(t)
	}
	return t
}

// arith applies (simplified) usual arithmetic conversions.
func arith(a, b *Type) *Type {
	if a.Kind == KFloat || b.Kind == KFloat {
		if a.Kind == KFloat && (b.Kind != KFloat || a.Size >= b.Size) {
			return a
		}
		return b
	}
	if a.IsPointerish() {
		return decay(a)
	}
	if b.IsPointerish() {
		return decay(b)
	}
	if Sizeof(a) >= Sizeof(b) {
		if Sizeof(a) < Int.Size {
			return Int
		}
		return a
	}
	if Sizeof(b) < Int.Size {
		return Int
	}
	return b
}

// typeName resolves a cast/sizeof type-name.
func (c *checker) typeName(tn *cc.TypeName) *Type {
	if tn == nil {
		return Int
	}
	base := c.resolveSpecs(tn.Specs)
	if tn.Decl != nil {
		_, t := c.applyDeclarator(tn.Decl, base)
		return t
	}
	return base
}
