package frontend

import (
	"cla/internal/cc"
	"cla/internal/ctypes"
	"cla/internal/prim"
)

// ref describes the object an expression denotes.
type refKind uint8

const (
	refNone  refKind = iota // no tracked object (constants, arithmetic)
	refObj                  // the object sym itself
	refDeref                // *sym
	refAddr                 // &sym (rvalue only)
)

type ref struct {
	kind refKind
	sym  prim.SymID
}

// ctx carries the operation context an assignment flows through, so the
// emitted primitive retains the (weakest) operation on its path.
type ctx struct {
	op       prim.Op
	strength prim.Strength
}

func (c ctx) through(op prim.Op, arg int) ctx {
	s := prim.StrengthOf(op, arg)
	out := c
	if s < out.strength {
		out.strength = s
	}
	if op != prim.OpCopy && (c.op == prim.OpCopy || c.op == prim.OpCast) {
		out.op = op
	}
	return out
}

func (b *builder) emit(a prim.Assign) {
	a.Func = b.curFuncID
	b.prog.AddAssign(a)
}

// emitFlow emits the primitive assignment dst <- src with context c.
// Combinations outside the five primitive forms are normalized with a
// temporary.
func (b *builder) emitFlow(dst, src ref, c ctx, pos cc.Pos) {
	if dst.kind == refNone || src.kind == refNone || c.strength == prim.None {
		return
	}
	loc := b.loc(pos)
	switch {
	case dst.kind == refObj && src.kind == refObj:
		if dst.sym == src.sym && c.op == prim.OpCopy {
			return // self copy
		}
		b.emit(prim.Assign{Kind: prim.Simple, Dst: dst.sym, Src: src.sym, Op: c.op, Strength: c.strength, Loc: loc})
	case dst.kind == refObj && src.kind == refAddr:
		b.emit(prim.Assign{Kind: prim.Base, Dst: dst.sym, Src: src.sym, Op: c.op, Strength: c.strength, Loc: loc})
	case dst.kind == refObj && src.kind == refDeref:
		b.emit(prim.Assign{Kind: prim.LoadInd, Dst: dst.sym, Src: src.sym, Op: c.op, Strength: c.strength, Loc: loc})
	case dst.kind == refDeref && src.kind == refObj:
		b.emit(prim.Assign{Kind: prim.StoreInd, Dst: dst.sym, Src: src.sym, Op: c.op, Strength: c.strength, Loc: loc})
	case dst.kind == refDeref && src.kind == refDeref:
		b.emit(prim.Assign{Kind: prim.CopyInd, Dst: dst.sym, Src: src.sym, Op: c.op, Strength: c.strength, Loc: loc})
	case dst.kind == refDeref && src.kind == refAddr:
		// *p = &x is not a primitive form: t = &x; *p = t.
		t := b.temp(pos)
		b.emit(prim.Assign{Kind: prim.Base, Dst: t, Src: src.sym, Op: prim.OpCopy, Strength: prim.Strong, Loc: loc})
		b.emit(prim.Assign{Kind: prim.StoreInd, Dst: dst.sym, Src: t, Op: c.op, Strength: c.strength, Loc: loc})
	}
}

// effects evaluates e for its side effects only.
func (b *builder) effects(e cc.Expr) { b.value(e) }

// assignTo decomposes e and emits flows into dst. The context records any
// operation the value passes through.
func (b *builder) assignTo(dst ref, e cc.Expr, c ctx) {
	switch v := e.(type) {
	case *cc.BinaryExpr:
		switch v.Op {
		case "&&", "||", "==", "!=", "<", ">", "<=", ">=":
			// No value flow (Table 1: None); evaluate for effects.
			b.effects(v.X)
			b.effects(v.Y)
			return
		case "+", "-":
			// Pointer arithmetic: the pointer flows unchanged.
			xt := b.ck.ExprType[v.X]
			yt := b.ck.ExprType[v.Y]
			if xt.IsPointerish() && !yt.IsPointerish() {
				b.effects(v.Y)
				b.assignTo(dst, v.X, c.through(opOf(v.Op), 0))
				return
			}
			if yt.IsPointerish() && !xt.IsPointerish() {
				b.effects(v.X)
				b.assignTo(dst, v.Y, c.through(opOf(v.Op), 1))
				return
			}
		}
		op := opOf(v.Op)
		b.assignTo(dst, v.X, c.through(op, 0))
		b.assignTo(dst, v.Y, c.through(op, 1))
		return
	case *cc.UnaryExpr:
		switch v.Op {
		case "-", "+":
			op := prim.OpNeg
			if v.Op == "+" {
				op = prim.OpPos
			}
			b.assignTo(dst, v.X, c.through(op, 0))
			return
		case "~":
			b.assignTo(dst, v.X, c.through(prim.OpCmpl, 0))
			return
		case "!":
			b.effects(v.X)
			return
		case "++", "--":
			// Pre-inc/dec: value is the operand (shape preserved).
			b.assignTo(dst, v.X, c.through(prim.OpAdd, 0))
			return
		}
	case *cc.CastExpr:
		b.assignTo(dst, v.X, c.through(prim.OpCast, 0))
		return
	case *cc.CondExpr:
		b.effects(v.Cond)
		b.assignTo(dst, v.Then, c.through(prim.OpCond, 0))
		b.assignTo(dst, v.Else, c.through(prim.OpCond, 1))
		return
	case *cc.CommaExpr:
		b.effects(v.X)
		b.assignTo(dst, v.Y, c)
		return
	case *cc.AssignExpr:
		// Chained assignment: process the inner one, then flow its LHS.
		l := b.processAssign(v)
		b.emitFlow(dst, valueOf(l), c, v.Pos_)
		return
	case *cc.PostfixExpr:
		b.assignTo(dst, v.X, c.through(prim.OpAdd, 0))
		return
	case *cc.SizeofExpr:
		return // operand not evaluated
	}
	// Leaf-ish: compute the value reference.
	src := b.value(e)
	b.emitFlow(dst, src, c, e.Position())
}

// valueOf converts an lvalue ref to the ref denoting its value.
func valueOf(l ref) ref { return l }

// opOf maps a binary operator token to a prim.Op.
func opOf(op string) prim.Op {
	switch op {
	case "+":
		return prim.OpAdd
	case "-":
		return prim.OpSub
	case "|":
		return prim.OpOr
	case "&":
		return prim.OpAnd
	case "^":
		return prim.OpXor
	case "*":
		return prim.OpMul
	case "/":
		return prim.OpDiv
	case "%":
		return prim.OpMod
	case ">>":
		return prim.OpShr
	case "<<":
		return prim.OpShl
	case "&&":
		return prim.OpLAnd
	case "||":
		return prim.OpLOr
	}
	return prim.OpCmp
}

// compoundOp maps a compound-assignment operator to its prim.Op.
func compoundOp(op string) prim.Op {
	switch op {
	case "+=":
		return prim.OpAdd
	case "-=":
		return prim.OpSub
	case "*=":
		return prim.OpMul
	case "/=":
		return prim.OpDiv
	case "%=":
		return prim.OpMod
	case "<<=":
		return prim.OpShl
	case ">>=":
		return prim.OpShr
	case "&=":
		return prim.OpAnd
	case "|=":
		return prim.OpOr
	case "^=":
		return prim.OpXor
	}
	return prim.OpCopy
}

// processAssign lowers an assignment expression and returns the LHS ref.
func (b *builder) processAssign(v *cc.AssignExpr) ref {
	dst := b.lvalue(v.L)
	if v.Op == "=" {
		b.assignTo(dst, v.R, ctx{op: prim.OpCopy, strength: prim.Strong})
	} else {
		op := compoundOp(v.Op)
		// x op= y: the RHS flows through op (argument position 1).
		b.assignTo(dst, v.R, ctx{op: op, strength: prim.StrengthOf(op, 1)})
	}
	return dst
}

// lvalue computes the reference for an expression in assignment position.
func (b *builder) lvalue(e cc.Expr) ref {
	switch v := e.(type) {
	case *cc.IdentExpr:
		return b.identRef(v, false)
	case *cc.UnaryExpr:
		if v.Op == "*" {
			return b.derefOf(v.X)
		}
	case *cc.IndexExpr:
		b.effects(v.Index)
		return b.derefOf(v.X)
	case *cc.MemberExpr:
		return b.memberRef(v)
	case *cc.CastExpr:
		return b.lvalue(v.X)
	case *cc.CommaExpr:
		b.effects(v.X)
		return b.lvalue(v.Y)
	}
	// Not an lvalue we can track; evaluate for effects.
	b.effects(e)
	return ref{kind: refNone}
}

// derefOf computes the ref for *X given the pointer expression X.
func (b *builder) derefOf(x cc.Expr) ref {
	// If x denotes an array object, *x is (an element of) the object
	// itself under the index-independent treatment.
	p := b.value(x)
	switch p.kind {
	case refObj:
		if b.isArrayObject(x) {
			return p // element of array a ~ object a
		}
		return ref{kind: refDeref, sym: p.sym}
	case refAddr:
		return ref{kind: refObj, sym: p.sym} // *&x = x
	case refDeref:
		// **q: t = *q; then *t.
		t := b.temp(x.Position())
		b.emit(prim.Assign{Kind: prim.LoadInd, Dst: t, Src: p.sym,
			Op: prim.OpCopy, Strength: prim.Strong, Loc: b.loc(x.Position())})
		return ref{kind: refDeref, sym: t}
	}
	return ref{kind: refNone}
}

// isArrayObject reports whether e denotes an object of array type (before
// decay), so indexing stays on the object itself.
func (b *builder) isArrayObject(e cc.Expr) bool {
	t := b.ck.ExprType[e]
	return t != nil && t.Kind == ctypes.KArray
}

// identRef resolves an identifier use. In value position (value=true)
// functions and arrays decay to their addresses.
func (b *builder) identRef(v *cc.IdentExpr, value bool) ref {
	o := b.ck.Refs[v]
	if o == nil {
		return ref{kind: refNone}
	}
	if o.Kind == ctypes.ObjEnumConst {
		return ref{kind: refNone}
	}
	sym := b.symFor(o)
	if value {
		if o.Kind == ctypes.ObjFunc {
			return ref{kind: refAddr, sym: sym}
		}
		if o.Type != nil && o.Type.Kind == ctypes.KArray {
			return ref{kind: refAddr, sym: sym}
		}
	}
	return ref{kind: refObj, sym: sym}
}

// memberRef resolves x.f / p->f according to the struct mode.
func (b *builder) memberRef(v *cc.MemberExpr) ref {
	m := b.ck.Members[v]
	if b.opts.Mode == FieldBased && m != nil {
		// The base expression is still evaluated for effects, but the
		// accessed object is the per-struct-type field variable.
		if v.Arrow {
			b.effects(v.X)
		} else {
			b.baseEffects(v.X)
		}
		return ref{kind: refObj, sym: b.fieldFor(m.Struct, m.Field, v.Pos_)}
	}
	// Field-independent: x.f ~ x, p->f ~ *p.
	if v.Arrow {
		return b.derefOf(v.X)
	}
	return b.lvalue(v.X)
}

// baseEffects evaluates a member-access base for side effects without
// treating it as a value use (s in s.x is not itself read).
func (b *builder) baseEffects(e cc.Expr) {
	switch v := e.(type) {
	case *cc.IdentExpr:
		return
	case *cc.MemberExpr:
		if v.Arrow {
			b.effects(v.X)
		} else {
			b.baseEffects(v.X)
		}
	case *cc.IndexExpr:
		b.effects(v.Index)
		b.baseEffects(v.X)
	default:
		b.effects(e)
	}
}

// value computes the ref denoting e's value, emitting prims for any side
// effects inside e.
func (b *builder) value(e cc.Expr) ref {
	switch v := e.(type) {
	case nil:
		return ref{kind: refNone}
	case *cc.IdentExpr:
		return b.identRef(v, true)
	case *cc.IntExpr, *cc.FloatExpr, *cc.CharExpr:
		return ref{kind: refNone}
	case *cc.StringExpr:
		if b.opts.ModelStrings {
			return ref{kind: refAddr, sym: b.stringSym(v.Pos_)}
		}
		return ref{kind: refNone}
	case *cc.UnaryExpr:
		switch v.Op {
		case "&":
			inner := b.lvalue(v.X)
			switch inner.kind {
			case refObj:
				return ref{kind: refAddr, sym: inner.sym}
			case refDeref:
				return ref{kind: refObj, sym: inner.sym} // &*p = p
			}
			return ref{kind: refNone}
		case "*":
			return b.derefOf(v.X)
		case "!":
			b.effects(v.X)
			return ref{kind: refNone}
		case "~", "-", "+":
			return b.value(v.X) // shape-preserving unaries keep the ref
		case "++", "--":
			b.lvalue(v.X)
			return b.value(v.X)
		}
		return ref{kind: refNone}
	case *cc.PostfixExpr:
		return b.value(v.X)
	case *cc.BinaryExpr:
		return b.binaryValue(v)
	case *cc.AssignExpr:
		return b.processAssign(v)
	case *cc.CondExpr:
		b.effects(v.Cond)
		tt := b.ck.ExprType[e]
		if tt.IsPointerish() {
			// Merge both arms through a temporary.
			t := b.temp(v.Pos_)
			dst := ref{kind: refObj, sym: t}
			b.assignTo(dst, v.Then, ctx{op: prim.OpCond, strength: prim.Strong})
			b.assignTo(dst, v.Else, ctx{op: prim.OpCond, strength: prim.Strong})
			return dst
		}
		b.effects(v.Then)
		b.effects(v.Else)
		return ref{kind: refNone}
	case *cc.CommaExpr:
		b.effects(v.X)
		return b.value(v.Y)
	case *cc.CallExpr:
		return b.call(v)
	case *cc.IndexExpr:
		b.effects(v.Index)
		elem := b.derefOf(v.X)
		// An element that is itself an array decays to the object address.
		if b.isArrayObject(e) && elem.kind == refObj {
			return ref{kind: refAddr, sym: elem.sym}
		}
		return elem
	case *cc.MemberExpr:
		r := b.memberRef(v)
		if b.isArrayObject(e) && r.kind == refObj {
			return ref{kind: refAddr, sym: r.sym}
		}
		return r
	case *cc.CastExpr:
		return b.value(v.X)
	case *cc.SizeofExpr:
		return ref{kind: refNone}
	}
	return ref{kind: refNone}
}

// binaryValue computes the value ref of a binary expression appearing in a
// value position (deref bases, call arguments already go through assignTo).
func (b *builder) binaryValue(v *cc.BinaryExpr) ref {
	xt := b.ck.ExprType[v.X]
	yt := b.ck.ExprType[v.Y]
	switch v.Op {
	case "+", "-":
		// Pointer arithmetic keeps the pointer's referent.
		if xt.IsPointerish() && !yt.IsPointerish() {
			b.effects(v.Y)
			return b.value(v.X)
		}
		if yt.IsPointerish() && !xt.IsPointerish() {
			b.effects(v.X)
			return b.value(v.Y)
		}
	}
	b.effects(v.X)
	b.effects(v.Y)
	return ref{kind: refNone}
}

// call lowers a function call and returns the ref holding its result.
func (b *builder) call(v *cc.CallExpr) ref {
	// Allocation primitives: each static occurrence is a fresh location.
	if id, ok := v.Fun.(*cc.IdentExpr); ok && b.opts.Allocators[id.Name] {
		for _, a := range v.Args {
			b.effects(a)
		}
		return ref{kind: refAddr, sym: b.heapSym(v.Pos_)}
	}
	callee := b.calleeSym(v.Fun)
	if callee.kind == refNone {
		// Unknown callee: evaluate args for effects only.
		for _, a := range v.Args {
			b.effects(a)
		}
		return ref{kind: refNone}
	}
	fn := callee.sym
	if callee.kind == refObj {
		// Indirect call through a pointer variable.
		b.markFuncPtr(fn)
	}
	b.prog.AddCall(prim.CallSite{
		Callee:   fn,
		Caller:   b.curFuncID,
		Loc:      b.loc(v.Pos_),
		Indirect: callee.kind == refObj,
		Args:     len(v.Args),
	})
	for i, a := range v.Args {
		p := b.paramSym(fn, i)
		b.assignTo(ref{kind: refObj, sym: p}, a, ctx{op: prim.OpCopy, strength: prim.Strong})
	}
	return ref{kind: refObj, sym: b.retFor(fn)}
}

// calleeSym resolves a call's function expression: refAddr means a direct
// call of that function symbol, refObj means an indirect call through that
// pointer symbol.
func (b *builder) calleeSym(e cc.Expr) ref {
	switch v := e.(type) {
	case *cc.IdentExpr:
		o := b.ck.Refs[v]
		if o == nil {
			return ref{kind: refNone}
		}
		sym := b.symFor(o)
		if o.Kind == ctypes.ObjFunc {
			return ref{kind: refAddr, sym: sym}
		}
		return ref{kind: refObj, sym: sym} // function pointer variable
	case *cc.UnaryExpr:
		if v.Op == "*" {
			// (*fp)(...) ≡ fp(...): the designator *fp calls through fp.
			inner := b.calleeSym(v.X)
			if inner.kind == refObj {
				return inner
			}
			if inner.kind == refAddr {
				return inner // *&f or *f where f is a function
			}
			return inner
		}
		if v.Op == "&" {
			return b.calleeSym(v.X) // (&f)(...)
		}
	case *cc.CastExpr:
		return b.calleeSym(v.X)
	case *cc.CommaExpr:
		b.effects(v.X)
		return b.calleeSym(v.Y)
	}
	// General expression callee: materialize the pointer in a temp.
	val := b.value(e)
	switch val.kind {
	case refAddr:
		return val // direct
	case refObj:
		return val // pointer variable
	case refDeref:
		t := b.temp(e.Position())
		b.emit(prim.Assign{Kind: prim.LoadInd, Dst: t, Src: val.sym,
			Op: prim.OpCopy, Strength: prim.Strong, Loc: b.loc(e.Position())})
		return ref{kind: refObj, sym: t}
	}
	return ref{kind: refNone}
}
