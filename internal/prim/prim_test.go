package prim

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Simple, "x = y"},
		{Base, "x = &y"},
		{StoreInd, "*x = y"},
		{LoadInd, "x = *y"},
		{CopyInd, "*x = *y"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
		if !c.k.Valid() {
			t.Errorf("Kind(%d).Valid() = false, want true", c.k)
		}
	}
	if Kind(99).Valid() {
		t.Error("Kind(99).Valid() = true, want false")
	}
}

// TestStrengthTable1 checks every row of the paper's Table 1.
func TestStrengthTable1(t *testing.T) {
	cases := []struct {
		op Op
		a0 Strength
		a1 Strength
	}{
		{OpAdd, Strong, Strong},
		{OpSub, Strong, Strong},
		{OpOr, Strong, Strong},
		{OpAnd, Strong, Strong},
		{OpXor, Strong, Strong},
		{OpMul, Weak, Weak},
		{OpMod, Weak, None},
		{OpShr, Weak, None},
		{OpShl, Weak, None},
		{OpNeg, Strong, None},
		{OpPos, Strong, None},
		{OpLAnd, None, None},
		{OpLOr, None, None},
		{OpNot, None, None},
	}
	for _, c := range cases {
		if got := StrengthOf(c.op, 0); got != c.a0 {
			t.Errorf("StrengthOf(%v, 0) = %v, want %v", c.op, got, c.a0)
		}
		if got := StrengthOf(c.op, 1); got != c.a1 {
			t.Errorf("StrengthOf(%v, 1) = %v, want %v", c.op, got, c.a1)
		}
	}
}

func TestStrengthOfCopyAndCast(t *testing.T) {
	for _, op := range []Op{OpCopy, OpCast, OpCond} {
		if got := StrengthOf(op, 0); got != Strong {
			t.Errorf("StrengthOf(%v, 0) = %v, want Strong", op, got)
		}
	}
}

func TestStrengthOfOutOfRangeArg(t *testing.T) {
	if got := StrengthOf(OpAdd, 5); got != None {
		t.Errorf("StrengthOf(OpAdd, 5) = %v, want None", got)
	}
}

func TestLocString(t *testing.T) {
	var p Program
	l := Loc{File: p.Intern("a.c"), Line: 12}
	if got := l.Pos(&p); got != "a.c:12" {
		t.Errorf("Loc.Pos() = %q, want %q", got, "a.c:12")
	}
	var zero Loc
	if !zero.IsZero() {
		t.Error("zero Loc.IsZero() = false")
	}
	if got := zero.Pos(&p); got != "<unknown>" {
		t.Errorf("zero Loc.Pos() = %q", got)
	}
}

func TestSymKindLinked(t *testing.T) {
	linked := map[SymKind]bool{
		SymGlobal: true, SymField: true, SymFunc: true,
		SymParam: true, SymRet: true,
		SymStatic: false, SymLocal: false, SymTemp: false,
		SymHeap: false, SymString: false,
	}
	for k, want := range linked {
		if got := k.Linked(); got != want {
			t.Errorf("%v.Linked() = %v, want %v", k, got, want)
		}
	}
}

func TestProgramAddAndCount(t *testing.T) {
	var p Program
	x := p.AddSym(Symbol{Name: "x", Kind: SymGlobal})
	y := p.AddSym(Symbol{Name: "y", Kind: SymGlobal})
	p.AddAssign(Assign{Kind: Simple, Dst: x, Src: y})
	p.AddAssign(Assign{Kind: Base, Dst: x, Src: y})
	p.AddAssign(Assign{Kind: Base, Dst: y, Src: x})

	n := p.CountByKind()
	if n[Simple] != 1 || n[Base] != 2 || n[StoreInd] != 0 {
		t.Errorf("CountByKind = %v", n)
	}
	if got := p.SymIDByName("y"); got != y {
		t.Errorf("SymIDByName(y) = %d, want %d", got, y)
	}
	if got := p.SymIDByName("missing"); got != NoSym {
		t.Errorf("SymIDByName(missing) = %d, want NoSym", got)
	}
	if p.Sym(x).Name != "x" {
		t.Errorf("Sym(x).Name = %q", p.Sym(x).Name)
	}
}

func TestAssignString(t *testing.T) {
	cases := []struct {
		a    Assign
		want string
	}{
		{Assign{Kind: Simple, Dst: 1, Src: 2}, "#1 = #2"},
		{Assign{Kind: Base, Dst: 1, Src: 2}, "#1 = &#2"},
		{Assign{Kind: StoreInd, Dst: 1, Src: 2}, "*#1 = #2"},
		{Assign{Kind: LoadInd, Dst: 1, Src: 2}, "#1 = *#2"},
		{Assign{Kind: CopyInd, Dst: 1, Src: 2}, "*#1 = *#2"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Property: StrengthOf never exceeds Strong and is None for any argument
// position >= 2, for all operations.
func TestStrengthOfProperty(t *testing.T) {
	f := func(op uint8, arg uint8) bool {
		s := StrengthOf(Op(op%uint8(numOps)), int(arg))
		if s > Strong {
			return false
		}
		if arg >= 2 && s != None {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a symbol's description embeds its name, type and site.
func TestSymbolStringProperty(t *testing.T) {
	var p Program
	s := Symbol{Name: "count", Type: "short", Loc: Loc{File: p.Intern("eg1.c"), Line: 3}}
	want := "count/short <eg1.c:3>"
	if got := s.Describe(&p); got != want {
		t.Errorf("Symbol.Describe() = %q, want %q", got, want)
	}
}

func TestValidate(t *testing.T) {
	var p Program
	x := p.AddSym(Symbol{Name: "x", Kind: SymGlobal})
	y := p.AddSym(Symbol{Name: "y", Kind: SymGlobal})
	p.AddAssign(Assign{Kind: Simple, Dst: x, Src: y})
	p.Funcs = append(p.Funcs, FuncRecord{Func: x, Params: []SymID{y}, Ret: NoSym})
	if err := p.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	bad := p
	bad.Assigns = append([]Assign(nil), p.Assigns...)
	bad.Assigns = append(bad.Assigns, Assign{Kind: Simple, Dst: 99, Src: y})
	if bad.Validate() == nil {
		t.Error("out-of-range dst accepted")
	}

	bad2 := p
	bad2.Funcs = []FuncRecord{{Func: 99}}
	if bad2.Validate() == nil {
		t.Error("bad func record accepted")
	}

	bad3 := p
	bad3.Assigns = []Assign{{Kind: Kind(42), Dst: x, Src: y}}
	if bad3.Validate() == nil {
		t.Error("bad kind accepted")
	}
}

// TestRecordsHoldNoPointers keeps the assignment, call-site and location
// records pointer-free: copying an array of them must need no write
// barriers, and the collector must never scan one.
func TestRecordsHoldNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer,
			reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %v", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	for _, v := range []any{Assign{}, CallSite{}, Loc{}} {
		typ := reflect.TypeOf(v)
		walk(typ.Name(), typ)
	}
	if n := unsafe.Sizeof(Assign{}); n > 24 {
		t.Errorf("Assign is %d bytes, want at most 24", n)
	}
}

// pinned is a small program over every record kind, its strings in a
// table in the given order.
func pinned(order []string) *Program {
	p := &Program{}
	in := NewInterner(p)
	for _, s := range order {
		in.Intern(s)
	}
	a, b, hdr, main := in.Intern("a.c"), in.Intern("b.c"), in.Intern("b.h"), in.Intern("main")
	p.Syms = []Symbol{
		{Name: "g", Kind: SymGlobal, Type: "int *", Loc: Loc{File: a, Line: 1}, Defined: true},
		{Name: "x", Kind: SymLocal, Type: "int", Loc: Loc{File: a, Line: 3}, FuncName: "main"},
		{Name: "main", Kind: SymFunc, Type: "int ()", Loc: Loc{File: a, Line: 2}, Defined: true},
	}
	p.Assigns = []Assign{
		{Kind: Base, Dst: 0, Src: 1, Op: OpCopy, Strength: Strong, Loc: Loc{File: a, Line: 4}, Func: main},
		{Kind: Simple, Dst: 1, Src: 0, Op: OpAdd, Strength: Strong, Loc: Loc{File: hdr, Line: 7}},
	}
	p.Calls = []CallSite{{Callee: 2, Loc: Loc{File: b, Line: 9}, Args: 2, Indirect: true}}
	p.Funcs = []FuncRecord{{Func: 2, Ret: NoSym, Params: []SymID{1}}}
	return p
}

// TestDigestPinned pins the digest of a program to the value it had when
// records held their strings in place: a digest folds the strings ids
// name, so store keys do not move with the table or its order.
func TestDigestPinned(t *testing.T) {
	const want = 0x6394ac068cdef0e6
	for _, order := range [][]string{nil, {"main", "b.h", "b.c", "a.c"}, {"unused", "b.c"}} {
		p := pinned(order)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := p.Digest(); got != want {
			t.Errorf("table %q: digest %#x, want %#x", p.Strs, got, want)
		}
	}
}

func TestInternAndStr(t *testing.T) {
	var p Program
	if id := p.Intern(""); id != 0 || p.Str(0) != "" || len(p.Strs) != 0 {
		t.Fatalf("empty string interned as %d (table %q)", id, p.Strs)
	}
	a := p.Intern("a.c")
	in := NewInterner(&p)
	if got := in.Intern("a.c"); got != a {
		t.Errorf("interner gave %d for a string the table holds as %d", got, a)
	}
	b := in.Intern("b.c")
	if p.Str(a) != "a.c" || p.Str(b) != "b.c" || p.Intern("b.c") != b || len(p.Strs) != 2 {
		t.Errorf("table %q: a=%d b=%d", p.Strs, a, b)
	}
	// A clone sharing the table must not see a string the original adds.
	q := p
	p.Intern("c.c")
	q.Intern("d.c")
	if p.Str(3) != "c.c" || q.Str(3) != "d.c" {
		t.Errorf("shared table written: %q and %q", p.Strs, q.Strs)
	}
}

func TestValidateStrings(t *testing.T) {
	p := pinned(nil)
	bad := *p
	bad.Assigns = []Assign{{Kind: Simple, Dst: 0, Src: 1, Func: Str(len(p.Strs) + 1)}}
	if bad.Validate() == nil {
		t.Error("assignment naming a string past the table accepted")
	}
	bad = *p
	bad.Calls = []CallSite{{Callee: 0, Caller: Str(len(p.Strs) + 1)}}
	if bad.Validate() == nil {
		t.Error("call site naming a string past the table accepted")
	}
	bad = *p
	bad.Syms = append([]Symbol(nil), p.Syms...)
	bad.Syms[0].Loc.File = Str(len(p.Strs) + 1)
	if bad.Validate() == nil {
		t.Error("symbol naming a string past the table accepted")
	}
}
