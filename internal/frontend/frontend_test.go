package frontend

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"cla/internal/cpp"
	"cla/internal/prim"
)

// compile lowers src with the given options, failing the test on error.
func compile(t *testing.T, src string, opts Options) *prim.Program {
	t.Helper()
	p, err := CompileSource("t.c", src, nil, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// assignStrings renders all assignments sorted, for comparison.
func assignStrings(p *prim.Program) []string {
	var out []string
	for _, a := range p.Assigns {
		out = append(out, FormatAssign(p, a))
	}
	sort.Strings(out)
	return out
}

// wantAssigns checks that the program contains exactly the given
// assignment strings (order-insensitive).
func wantAssigns(t *testing.T, p *prim.Program, want ...string) {
	t.Helper()
	got := assignStrings(p)
	sort.Strings(want)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("assignments:\n got: %v\nwant: %v", got, want)
	}
}

// hasAssign checks that at least the given assignments are present.
func hasAssign(t *testing.T, p *prim.Program, want ...string) {
	t.Helper()
	got := map[string]bool{}
	for _, s := range assignStrings(p) {
		got[s] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing assignment %q; have %v", w, assignStrings(p))
		}
	}
}

func TestSimpleAssignment(t *testing.T) {
	p := compile(t, "int x, y; void f(void) { x = y; }", Options{})
	wantAssigns(t, p, "x = y")
}

func TestAddressOf(t *testing.T) {
	p := compile(t, "int x, *p; void f(void) { p = &x; }", Options{})
	wantAssigns(t, p, "p = &x")
}

func TestDerefLoadAndStore(t *testing.T) {
	p := compile(t, "int x, y, *p; void f(void) { x = *p; *p = y; }", Options{})
	wantAssigns(t, p, "x = *p", "*p = y")
}

func TestCopyIndirect(t *testing.T) {
	p := compile(t, "int *p, *q; void f(void) { *p = *q; }", Options{})
	wantAssigns(t, p, "*p = *q")
}

func TestPaperFigure4(t *testing.T) {
	// The object-file example from Figure 4 of the paper.
	src := `int x, y, z, *p, *q;
void main_(void) {
	x = y;
	x = z;
	*p = z;
	p = q;
	q = &y;
	x = *p;
}`
	p := compile(t, src, Options{})
	wantAssigns(t, p, "x = y", "x = z", "*p = z", "p = q", "q = &y", "x = *p")
	n := p.CountByKind()
	if n[prim.Simple] != 3 || n[prim.Base] != 1 || n[prim.StoreInd] != 1 || n[prim.LoadInd] != 1 {
		t.Errorf("counts = %v", n)
	}
}

func TestBinaryDecomposition(t *testing.T) {
	p := compile(t, "int x, y, z; void f(void) { x = y + z; }", Options{})
	wantAssigns(t, p, "x = y", "x = z")
	for _, a := range p.Assigns {
		if a.Op != prim.OpAdd || a.Strength != prim.Strong {
			t.Errorf("assign %v: op=%v strength=%v", a, a.Op, a.Strength)
		}
	}
}

func TestStrengthWeakAndNone(t *testing.T) {
	p := compile(t, "int x, y, z, w, v; void f(void) { x = y * z; w = !v; }", Options{})
	// !v contributes nothing; y*z contributes two weak assignments.
	wantAssigns(t, p, "x = y", "x = z")
	for _, a := range p.Assigns {
		if a.Strength != prim.Weak {
			t.Errorf("strength = %v, want Weak", a.Strength)
		}
	}
}

func TestShiftStrength(t *testing.T) {
	p := compile(t, "int x, y, n; void f(void) { x = y >> n; }", Options{})
	// Arg 0 (y) is Weak, arg 1 (n) is None: only x = y survives.
	wantAssigns(t, p, "x = y")
	if p.Assigns[0].Strength != prim.Weak || p.Assigns[0].Op != prim.OpShr {
		t.Errorf("assign = %+v", p.Assigns[0])
	}
}

func TestNestedOperationStrengthComposition(t *testing.T) {
	p := compile(t, "int x, y, z; void f(void) { x = (y * 2) + z; }", Options{})
	wantAssigns(t, p, "x = y", "x = z")
	var yStrength, zStrength prim.Strength
	for _, a := range p.Assigns {
		switch p.Sym(a.Src).Name {
		case "y":
			yStrength = a.Strength
		case "z":
			zStrength = a.Strength
		}
	}
	if yStrength != prim.Weak {
		t.Errorf("y path strength = %v, want Weak (through *)", yStrength)
	}
	if zStrength != prim.Strong {
		t.Errorf("z path strength = %v, want Strong", zStrength)
	}
}

func TestCompoundAssignment(t *testing.T) {
	p := compile(t, "int x, y; void f(void) { x += y; x <<= y; }", Options{})
	// x += y gives x = y (strong); x <<= y: shift amount is None.
	wantAssigns(t, p, "x = y")
}

func TestCondExprBothArms(t *testing.T) {
	p := compile(t, "int x, a, b, c; void f(void) { x = c ? a : b; }", Options{})
	wantAssigns(t, p, "x = a", "x = b")
}

func TestCommaExpr(t *testing.T) {
	p := compile(t, "int x, a, b; void f(void) { x = (a, b); }", Options{})
	wantAssigns(t, p, "x = b")
}

func TestChainedAssignment(t *testing.T) {
	p := compile(t, "int x, y, z; void f(void) { x = y = z; }", Options{})
	wantAssigns(t, p, "y = z", "x = y")
}

func TestCast(t *testing.T) {
	p := compile(t, "long x; int y; void f(void) { x = (long)y; }", Options{})
	wantAssigns(t, p, "x = y")
	if p.Assigns[0].Op != prim.OpCast {
		t.Errorf("op = %v", p.Assigns[0].Op)
	}
}

func TestGlobalInitializer(t *testing.T) {
	p := compile(t, "int x; int *p = &x;", Options{})
	wantAssigns(t, p, "p = &x")
}

func TestArrayInitializerIndexIndependent(t *testing.T) {
	p := compile(t, "int a, b; int *arr[2] = { &a, &b };", Options{})
	wantAssigns(t, p, "arr = &a", "arr = &b")
}

func TestArrayIndexing(t *testing.T) {
	p := compile(t, "int a[10], x, i; void f(void) { x = a[i]; a[i] = x; }", Options{})
	wantAssigns(t, p, "x = a", "a = x")
}

func TestArrayDecay(t *testing.T) {
	p := compile(t, "int a[10], *p; void f(void) { p = a; p = &a[0]; }", Options{})
	wantAssigns(t, p, "p = &a", "p = &a")
}

func TestPointerIndexing(t *testing.T) {
	p := compile(t, "int *p, x; void f(void) { x = p[2]; p[2] = x; }", Options{})
	wantAssigns(t, p, "x = *p", "*p = x")
}

func TestPointerArithmetic(t *testing.T) {
	p := compile(t, "int *p, *q, i; void f(void) { p = q + i; p = q - 1; }", Options{})
	wantAssigns(t, p, "p = q", "p = q")
}

func TestDoubleDeref(t *testing.T) {
	p := compile(t, "int **pp, x; void f(void) { x = **pp; }", Options{})
	// t = *pp; x = *t.
	got := assignStrings(p)
	if len(got) != 2 {
		t.Fatalf("assigns = %v", got)
	}
	hasAssign(t, p, "tmp$1 = *pp", "x = *tmp$1")
}

func TestStoreAddressNeedsTemp(t *testing.T) {
	p := compile(t, "int x, **pp; void f(void) { *pp = &x; }", Options{})
	hasAssign(t, p, "tmp$1 = &x", "*pp = tmp$1")
}

func TestAddressOfDeref(t *testing.T) {
	p := compile(t, "int *p, *q; void f(void) { q = &*p; }", Options{})
	wantAssigns(t, p, "q = p")
}

func TestFieldBasedMember(t *testing.T) {
	src := `struct S { int x; int y; };
struct S s, t;
int v;
void f(void) { s.x = v; v = t.x; }`
	p := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, p, "S.x = v", "v = S.x")
}

func TestFieldIndependentMember(t *testing.T) {
	src := `struct S { int x; int y; };
struct S s, t;
int v;
void f(void) { s.x = v; v = t.y; }`
	p := compile(t, src, Options{Mode: FieldIndependent})
	wantAssigns(t, p, "s = v", "v = t")
}

func TestFieldBasedArrow(t *testing.T) {
	src := `struct S { int *p; };
struct S *sp;
int x;
void f(void) { sp->p = &x; }`
	p := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, p, "S.p = &x")
}

func TestFieldIndependentArrow(t *testing.T) {
	src := `struct S { int *p; };
struct S *sp;
int x;
void f(void) { sp->p = &x; }`
	p := compile(t, src, Options{Mode: FieldIndependent})
	// *sp = &x requires a temp.
	hasAssign(t, p, "tmp$1 = &x", "*sp = tmp$1")
}

func TestPaperFieldExample(t *testing.T) {
	// From Section 3: field-based vs field-independent distinction.
	src := `struct S { int *x; int *y; } A, B;
int z;
void main_(void) {
	int *p, *q, *r, *s;
	A.x = &z;
	p = A.x;
	q = A.y;
	r = B.x;
	s = B.y;
}`
	fb := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, fb, "S.x = &z", "p = S.x", "q = S.y", "r = S.x", "s = S.y")
	fi := compile(t, src, Options{Mode: FieldIndependent})
	wantAssigns(t, fi, "A = &z", "p = A", "q = A", "r = B", "s = B")
}

func TestAddressOfField(t *testing.T) {
	src := `struct S { int f; } s;
int *p;
void g(void) { p = &s.f; }`
	fb := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, fb, "p = &S.f")
	fi := compile(t, src, Options{Mode: FieldIndependent})
	wantAssigns(t, fi, "p = &s")
}

func TestStructInitializerFieldBased(t *testing.T) {
	src := `int a, b;
struct S { int *u; int *v; } s = { &a, &b };`
	p := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, p, "S.u = &a", "S.v = &b")
}

func TestStructInitializerFieldIndependent(t *testing.T) {
	src := `int a, b;
struct S { int *u; int *v; } s = { &a, &b };`
	p := compile(t, src, Options{Mode: FieldIndependent})
	wantAssigns(t, p, "s = &a", "s = &b")
}

func TestFunctionDefParamsAndReturn(t *testing.T) {
	src := `int f(int x, int y) { return x; }`
	p := compile(t, src, Options{})
	wantAssigns(t, p, "x = f$1", "y = f$2", "f$ret = x")
}

func TestDirectCall(t *testing.T) {
	src := `int f(int x) { return x; }
int w, e;
void g(void) { w = f(e); }`
	p := compile(t, src, Options{})
	wantAssigns(t, p, "x = f$1", "f$ret = x", "f$1 = e", "w = f$ret")
}

func TestCallUndeclaredFunction(t *testing.T) {
	src := `int a, r; void g(void) { r = h(a); }`
	p := compile(t, src, Options{})
	wantAssigns(t, p, "h$1 = a", "r = h$ret")
}

func TestIndirectCall(t *testing.T) {
	src := `int f(int v) { return v; }
int (*fp)(int);
int a, r;
void g(void) { fp = f; r = fp(a); }`
	p := compile(t, src, Options{})
	hasAssign(t, p, "fp = &f", "fp$1 = a", "r = fp$ret")
	// fp must be marked as a function pointer with a record.
	fpID := p.SymIDByName("fp")
	if !p.Sym(fpID).FuncPtr {
		t.Error("fp not marked FuncPtr")
	}
	found := false
	for _, rec := range p.Funcs {
		if rec.Func == fpID && len(rec.Params) >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("no FuncRecord for fp")
	}
}

func TestExplicitDerefIndirectCall(t *testing.T) {
	src := `int (*fp)(int);
int a, r;
void g(void) { r = (*fp)(a); }`
	p := compile(t, src, Options{})
	hasAssign(t, p, "fp$1 = a", "r = fp$ret")
}

func TestFuncRecordForDefinedFunction(t *testing.T) {
	src := `int add(int a, int b) { return a + b; }`
	p := compile(t, src, Options{})
	fn := p.SymIDByName("add")
	var rec *prim.FuncRecord
	for i := range p.Funcs {
		if p.Funcs[i].Func == fn {
			rec = &p.Funcs[i]
		}
	}
	if rec == nil || len(rec.Params) != 2 || rec.Ret == prim.NoSym {
		t.Fatalf("record = %+v", rec)
	}
	if p.Sym(rec.Params[0]).Name != "add$1" || p.Sym(rec.Ret).Name != "add$ret" {
		t.Errorf("standardized names wrong: %s %s",
			p.Sym(rec.Params[0]).Name, p.Sym(rec.Ret).Name)
	}
}

func TestStaticFunctionInternalLinkage(t *testing.T) {
	src := `static int sf(int v) { return v; }
int r; void g(void) { r = sf(1); }`
	p := compile(t, src, Options{})
	fn := p.SymIDByName("sf")
	if !p.Sym(fn).Internal {
		t.Error("static function not internal")
	}
	p1 := p.SymIDByName("sf$1")
	if p1 == prim.NoSym || !p.Sym(p1).Internal {
		t.Error("static function params not internal")
	}
}

func TestMalloc(t *testing.T) {
	src := `void *malloc(unsigned long);
int *p, *q;
void f(void) { p = malloc(4); q = malloc(8); }`
	p := compile(t, src, Options{})
	got := assignStrings(p)
	if len(got) != 2 {
		t.Fatalf("assigns = %v", got)
	}
	// Two distinct heap objects.
	if got[0] != "p = &heap@t.c:3#1" || got[1] != "q = &heap@t.c:3#2" {
		t.Errorf("got %v", got)
	}
	heapCount := 0
	for i := range p.Syms {
		if p.Syms[i].Kind == prim.SymHeap {
			heapCount++
		}
	}
	if heapCount != 2 {
		t.Errorf("heap objects = %d, want 2", heapCount)
	}
}

func TestStringsIgnoredByDefault(t *testing.T) {
	p := compile(t, `char *s; void f(void) { s = "hello"; }`, Options{})
	if len(p.Assigns) != 0 {
		t.Errorf("assigns = %v", assignStrings(p))
	}
}

func TestStringsModeled(t *testing.T) {
	p := compile(t, `char *s; void f(void) { s = "hello"; }`, Options{ModelStrings: true})
	if len(p.Assigns) != 1 || p.Assigns[0].Kind != prim.Base {
		t.Errorf("assigns = %v", assignStrings(p))
	}
}

func TestFunctionAddress(t *testing.T) {
	src := `void h(void);
void (*fp)(void);
void g(void) { fp = h; fp = &h; }`
	p := compile(t, src, Options{})
	wantAssigns(t, p, "fp = &h", "fp = &h")
}

func TestNestedCallArgument(t *testing.T) {
	src := `int f(int x) { return x; }
int g(int y) { return y; }
int r, a;
void m(void) { r = f(g(a)); }`
	p := compile(t, src, Options{})
	hasAssign(t, p, "g$1 = a", "f$1 = g$ret", "r = f$ret")
}

func TestSideEffectsInConditions(t *testing.T) {
	src := `int x, y, *p;
void f(void) { if ((p = &x) != 0) y = 1; while ((y = x)) {} }`
	p := compile(t, src, Options{})
	wantAssigns(t, p, "p = &x", "y = x")
}

func TestSizeofNotEvaluated(t *testing.T) {
	p := compile(t, "int x, y; void f(void) { x = sizeof(y = x); }", Options{})
	if len(p.Assigns) != 0 {
		t.Errorf("sizeof operand evaluated: %v", assignStrings(p))
	}
}

func TestSelfAssignDropped(t *testing.T) {
	p := compile(t, "int x; void f(void) { x = x; }", Options{})
	if len(p.Assigns) != 0 {
		t.Errorf("self-assign kept: %v", assignStrings(p))
	}
}

func TestIncDecNoFlow(t *testing.T) {
	p := compile(t, "int x; void f(void) { x++; ++x; x--; }", Options{})
	if len(p.Assigns) != 0 {
		t.Errorf("assigns = %v", assignStrings(p))
	}
}

func TestReturnFlowsThroughOps(t *testing.T) {
	src := `int f(int a) { return a * 3; }`
	p := compile(t, src, Options{})
	var retAssign *prim.Assign
	for i := range p.Assigns {
		if p.Sym(p.Assigns[i].Dst).Kind == prim.SymRet {
			retAssign = &p.Assigns[i]
		}
	}
	if retAssign == nil {
		t.Fatal("no return assignment")
	}
	if retAssign.Strength != prim.Weak {
		t.Errorf("strength = %v, want Weak through *", retAssign.Strength)
	}
}

func TestLocLineTracking(t *testing.T) {
	src := "int x, y;\nvoid f(void) {\n\tx = y;\n}\n"
	p := compile(t, src, Options{})
	if len(p.Assigns) != 1 {
		t.Fatalf("assigns = %v", assignStrings(p))
	}
	loc := p.Assigns[0].Loc
	if loc.File != "t.c" || loc.Line != 3 {
		t.Errorf("loc = %v, want t.c:3", loc)
	}
}

func TestVariadicCallExtraParams(t *testing.T) {
	src := `int printf(const char *fmt, ...);
int a, b;
void f(void) { printf("%d %d", a, b); }`
	p := compile(t, src, Options{})
	hasAssign(t, p, "printf$2 = a", "printf$3 = b")
}

func TestUnionFieldBased(t *testing.T) {
	src := `union U { int *p; long l; } u;
int x;
void f(void) { u.p = &x; }`
	p := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, p, "U.p = &x")
}

func TestCountByKindMatchesTable2Shape(t *testing.T) {
	// All five kinds in one program, as counted in Table 2.
	src := `int x, y, *p, *q, **pp;
void f(void) {
	x = y;      /* x = y   */
	p = &x;     /* x = &y  */
	*p = y;     /* *x = y  */
	x = *p;     /* x = *y  */
	*pp = *q;   /* hm, pp deref is int*; fine */
}`
	p := compile(t, src, Options{})
	n := p.CountByKind()
	for k := 0; k < prim.NumKinds; k++ {
		if n[k] != 1 {
			t.Errorf("kind %v count = %d, want 1 (%v)", prim.Kind(k), n[k], assignStrings(p))
		}
	}
}

func TestStructArrayElementField(t *testing.T) {
	src := `struct S { int *p; };
struct S table[8];
int x;
void f(int i) { table[i].p = &x; }`
	p := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, p, "S.p = &x", "i = f$1")
}

func TestNestedMemberAccess(t *testing.T) {
	src := `struct In { int v; };
struct Out { struct In in; };
struct Out o;
int x;
void f(void) { o.in.v = x; x = o.in.v; }`
	p := compile(t, src, Options{Mode: FieldBased})
	// Field-based: the accessed object is the innermost field In.v.
	wantAssigns(t, p, "In.v = x", "x = In.v")
}

func TestAddressOfNestedMember(t *testing.T) {
	src := `struct In { int v; };
struct Out { struct In in; };
struct Out o;
int *p;
void f(void) { p = &o.in.v; }`
	fb := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, fb, "p = &In.v")
	fi := compile(t, src, Options{Mode: FieldIndependent})
	wantAssigns(t, fi, "p = &o")
}

func TestFunctionPointerFieldCall(t *testing.T) {
	src := `struct Ops { int (*handler)(int); };
struct Ops ops;
int cb(int v) { return v; }
int r, arg;
void f(void) {
	ops.handler = cb;
	r = ops.handler(arg);
}`
	p := compile(t, src, Options{Mode: FieldBased})
	hasAssign(t, p, "Ops.handler = &cb", "Ops.handler$1 = arg", "r = Ops.handler$ret")
	// The field symbol must be marked as a function pointer.
	id := p.SymIDByName("Ops.handler")
	if id == prim.NoSym || !p.Sym(id).FuncPtr {
		t.Error("field not marked FuncPtr")
	}
}

func TestArrowChains(t *testing.T) {
	src := `struct N { struct N *next; int v; };
struct N *head;
int x;
void f(void) { x = head->next->v; }`
	p := compile(t, src, Options{Mode: FieldBased})
	// head->next is the field var N.next; ->v then reads N.v.
	wantAssigns(t, p, "x = N.v")
}

func TestArrowChainsFieldIndependent(t *testing.T) {
	src := `struct N { struct N *next; int v; };
struct N *head;
int x;
void f(void) { x = head->next->v; }`
	p := compile(t, src, Options{Mode: FieldIndependent})
	// (*head).next → *head; then (*that).v → *(that) needs a temp:
	// t = *head; x = *t.
	hasAssign(t, p, "tmp$1 = *head", "x = *tmp$1")
}

func TestVoidReturnNoRetSymbol(t *testing.T) {
	p := compile(t, "void f(void) { return; }", Options{})
	if id := p.SymIDByName("f$ret"); id != prim.NoSym {
		t.Error("void function got a return symbol")
	}
}

func TestReturnStructField(t *testing.T) {
	src := `struct S { int *p; } s;
int *get(void) { return s.p; }`
	p := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, p, "get$ret = S.p")
}

func TestWhileConditionAssignment(t *testing.T) {
	src := `int *p, *q;
void f(void) { while ((p = q)) {} }`
	p := compile(t, src, Options{})
	wantAssigns(t, p, "p = q")
}

func TestForLoopPointerWalk(t *testing.T) {
	src := `struct N { struct N *next; };
struct N *head;
void f(void) {
	struct N *cur;
	for (cur = head; cur; cur = cur->next) {}
}`
	p := compile(t, src, Options{Mode: FieldBased})
	wantAssigns(t, p, "cur = head", "cur = N.next")
}

func TestWideLiterals(t *testing.T) {
	src := `typedef int wchar_t;
wchar_t *w = L"x";
wchar_t c = L'y';`
	p := compile(t, src, Options{ModelStrings: true})
	if len(p.Assigns) != 1 || FormatAssign(p, p.Assigns[0]) != "w = &"+p.Syms[p.Assigns[0].Src].Name ||
		p.Syms[p.Assigns[0].Src].Kind != prim.SymString {
		t.Errorf("assigns = %v", assignStrings(p))
	}
}

// symNames lists p's symbol names in id order.
func symNames(p *prim.Program) []string {
	names := make([]string, len(p.Syms))
	for i, s := range p.Syms {
		names[i] = s.Name
	}
	return names
}

// keepHeader and keepSrc exercise the keep rule: unused externs and
// prototypes, a header body that keeps a record, prefix symbols the unit
// defines or calls through, and parameters a call appends.
const keepHeader = `extern int unused_g;
extern int used_g;
extern int *def_g;
int unused_f(int a, int b);
int called(int a, int b);
void taken(int a);
void (*hook)(int);
void variadic(int a, ...);
int g(int a);
static int h(void) { return g(1); }
`

const keepSrc = `#include "h.h"
int *def_g;
void (*fp)(int);
static int never(void);
int f(int *p) {
	fp = taken;
	hook(used_g);
	variadic(1, 2, 3);
	g(1, 2);
	return called(*p, 2);
}
`

// TestProgramKeepsUsedEntries checks the keep rule on both paths: a
// symbol is kept when an assignment or a call names it or the unit
// defines it, a record when one of its symbols is (and then with all of
// them), in declaration order.
func TestProgramKeepsUsedEntries(t *testing.T) {
	// The header's kept entries come first, its own body's among them;
	// return symbols and the parameters a call appends are made when the
	// unit first needs them. g$2 is named by nothing (its argument is a
	// constant) but is kept with g's record, which the header kept.
	want := []string{
		"used_g", "def_g", "called", "called$1", "called$2",
		"taken", "taken$1", "hook", "variadic", "variadic$1",
		"g", "g$1", "h", "h$ret", "g$ret",
		"fp", "f", "f$1", "p", "hook$1", "hook$ret",
		"variadic$2", "variadic$3", "variadic$ret", "g$2", "f$ret", "called$ret",
	}
	files := cpp.MapLoader{"h.h": keepHeader}
	plain, err := CompileSource("t.c", keepSrc, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := symNames(plain); !slices.Equal(got, want) {
		t.Errorf("symbols:\n got %v\nwant %v", got, want)
	}
	var recs []string
	for _, r := range plain.Funcs {
		recs = append(recs, plain.Sym(r.Func).Name)
	}
	if want := []string{"called", "taken", "variadic", "g", "h", "f", "hook"}; !slices.Equal(recs, want) {
		t.Errorf("records %v, want %v", recs, want)
	}
	m := NewPreambles()
	for _, pass := range []string{"fill", "hit"} {
		got, err := memoCompile(m, "t.c", keepSrc, files, Options{})
		if d := diffPrograms(got, err, plain, nil); d != "" {
			t.Errorf("memo %s: %s", pass, d)
		}
	}
	if hits, _, rechecks := m.Counts(); hits != 1 || rechecks != 0 {
		t.Errorf("memo hits %d, rechecks %d; want 1, 0", hits, rechecks)
	}
}
