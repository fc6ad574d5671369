package ctypes

import (
	"strings"
	"testing"

	"cla/internal/cc"
)

// check parses and checks src, failing the test on parse errors.
func check(t *testing.T, src string) *Checked {
	t.Helper()
	u, err := cc.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(u)
}

// objByName finds an object in the checked result.
func objByName(ck *Checked, name string) *Object {
	for _, o := range ck.Objects {
		if o.Name == name {
			return o
		}
	}
	return nil
}

func TestBasicTypes(t *testing.T) {
	cases := []struct{ src, name, want string }{
		{"int x;", "x", "int"},
		{"unsigned int x;", "x", "unsigned int"},
		{"short x;", "x", "short"},
		{"unsigned short x;", "x", "unsigned short"},
		{"long x;", "x", "long"},
		{"unsigned long long x;", "x", "unsigned long long"},
		{"char x;", "x", "char"},
		{"unsigned char x;", "x", "unsigned char"},
		{"float x;", "x", "float"},
		{"double x;", "x", "double"},
		{"long double x;", "x", "long double"},
		{"signed x;", "x", "int"},
		{"unsigned x;", "x", "unsigned int"},
		{"long int x;", "x", "long"},
	}
	for _, c := range cases {
		ck := check(t, c.src)
		o := objByName(ck, c.name)
		if o == nil {
			t.Errorf("%q: object %q missing", c.src, c.name)
			continue
		}
		if got := o.Type.String(); got != c.want {
			t.Errorf("%q: type = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestDerivedTypes(t *testing.T) {
	cases := []struct{ src, name, want string }{
		{"int *p;", "p", "int*"},
		{"int **pp;", "pp", "int**"},
		{"int a[10];", "a", "int[10]"},
		{"int a[];", "a", "int[]"},
		{"int a[2][3];", "a", "int[3][2]"},
		{"char *argv[4];", "argv", "char*[4]"},
		{"int (*fp)(void);", "fp", "int()*"},
		{"int f(int, char*);", "f", "int(int,char*)"},
		{"int f(int a, ...);", "f", "int(int,...)"},
		{"char *g(void);", "g", "char*()"},
	}
	for _, c := range cases {
		ck := check(t, c.src)
		o := objByName(ck, c.name)
		if o == nil {
			t.Errorf("%q: object missing", c.src)
			continue
		}
		if got := o.Type.String(); got != c.want {
			t.Errorf("%q: type = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestStructResolution(t *testing.T) {
	ck := check(t, `
struct S { short x; short y; };
struct S s;
struct S *p;
`)
	s := objByName(ck, "s")
	if s == nil || !s.Type.IsStruct() {
		t.Fatalf("s = %v", s)
	}
	if s.Type.Info.Tag != "S" || len(s.Type.Info.Fields) != 2 {
		t.Errorf("info = %+v", s.Type.Info)
	}
	p := objByName(ck, "p")
	if p.Type.Kind != KPtr || p.Type.Elem.Info != s.Type.Info {
		t.Error("p does not point to the same struct identity")
	}
}

func TestSelfReferentialStruct(t *testing.T) {
	ck := check(t, "struct node { int v; struct node *next; } n;")
	n := objByName(ck, "n")
	next, ok := n.Type.Info.FieldByName("next")
	if !ok {
		t.Fatal("field next missing")
	}
	if next.Type.Kind != KPtr || next.Type.Elem.Info != n.Type.Info {
		t.Error("next does not point back to the same struct")
	}
}

// TestStructContainingItself: a struct with a field of its own type by
// value is ill-formed C, but checking it must terminate, with the inner
// occurrence sized as incomplete. It once overflowed the stack
// (FuzzCompile corpus: d27a1920bd304aad).
func TestStructContainingItself(t *testing.T) {
	ck := check(t, "struct s { int a; struct s x; struct s y[2]; } v;\nint n = sizeof(struct s);")
	v := objByName(ck, "v")
	if got := Sizeof(v.Type); got != 4 {
		t.Errorf("sizeof(struct s) = %d, want 4 (the int; the inner struct s counts as incomplete)", got)
	}
	if got := Alignof(v.Type); got != 4 {
		t.Errorf("alignof(struct s) = %d, want 4", got)
	}
}

func TestStructAndUnionTagNamespaces(t *testing.T) {
	ck := check(t, `
struct T { int a; };
union T { int b; float c; };
struct T s1;
union T u1;
`)
	s1 := objByName(ck, "s1")
	u1 := objByName(ck, "u1")
	if s1.Type.Info == u1.Type.Info {
		t.Error("struct T and union T must be distinct")
	}
	if !u1.Type.Info.Union {
		t.Error("union flag lost")
	}
}

func TestTypedefResolution(t *testing.T) {
	ck := check(t, `
typedef unsigned long size_t;
typedef struct P { int x, y; } point_t, *point_p;
size_t n;
point_t pt;
point_p pp;
`)
	if got := objByName(ck, "n").Type.String(); got != "unsigned long" {
		t.Errorf("n: %s", got)
	}
	pt := objByName(ck, "pt")
	if !pt.Type.IsStruct() || pt.Type.Info.Tag != "P" {
		t.Errorf("pt: %s", pt.Type)
	}
	pp := objByName(ck, "pp")
	if pp.Type.Kind != KPtr || pp.Type.Elem.Info != pt.Type.Info {
		t.Errorf("pp: %s", pp.Type)
	}
}

func TestEnumConstants(t *testing.T) {
	ck := check(t, "enum E { A, B = 5, C };")
	for name, want := range map[string]int64{"A": 0, "B": 5, "C": 6} {
		o := objByName(ck, name)
		if o == nil || o.Kind != ObjEnumConst {
			t.Errorf("%s: missing or wrong kind", name)
			continue
		}
		if o.EnumVal != want {
			t.Errorf("%s = %d, want %d", name, o.EnumVal, want)
		}
	}
}

func TestArraySizeFromEnum(t *testing.T) {
	ck := check(t, "enum { N = 4 };\nint arr[N * 2];")
	a := objByName(ck, "arr")
	if a.Type.Len != 8 {
		t.Errorf("len = %d, want 8", a.Type.Len)
	}
}

func TestExprTypes(t *testing.T) {
	ck := check(t, `
struct S { int v; int *p; };
void f(void) {
	int x;
	int *p;
	int a[4];
	struct S s;
	struct S *sp;
	x = *p;
	p = &x;
	x = a[1];
	x = s.v;
	x = sp->v;
	p = sp->p;
	x = x + 1;
	p = p + 1;
}`)
	if len(ck.Errs.Errs) != 0 {
		t.Fatalf("errors: %v", ck.Errs.Err())
	}
	// Every assignment's LHS/RHS types should line up with declarations.
	types := map[string]int{}
	for _, tp := range ck.ExprType {
		types[tp.String()]++
	}
	for _, want := range []string{"int", "int*", "struct S"} {
		if types[want] == 0 {
			t.Errorf("no expression typed %s (have %v)", want, types)
		}
	}
}

func TestMemberResolution(t *testing.T) {
	ck := check(t, `
struct A { int f; };
struct B { int f; };
void g(void) {
	struct A a; struct B b;
	a.f = 1;
	b.f = 2;
}`)
	if len(ck.Members) != 2 {
		t.Fatalf("members = %d", len(ck.Members))
	}
	var infos []*StructInfo
	for _, m := range ck.Members {
		infos = append(infos, m.Struct)
	}
	if infos[0] == infos[1] {
		t.Error("A.f and B.f resolved to the same struct identity")
	}
}

func TestArrowThroughTypedefPointer(t *testing.T) {
	ck := check(t, `
typedef struct Q { int n; } *QP;
void f(QP q) { q->n = 1; }
`)
	if len(ck.Members) != 1 {
		t.Fatalf("members = %d; errs = %v", len(ck.Members), ck.Errs.Err())
	}
}

func TestUndeclaredIdentifier(t *testing.T) {
	ck := check(t, "void f(void) { x = 1; }")
	if len(ck.Errs.Errs) == 0 {
		t.Error("expected diagnosis for undeclared identifier")
	}
	o := objByName(ck, "x")
	if o == nil || !o.Implicit {
		t.Error("implicit object not synthesized")
	}
}

func TestImplicitFunctionDeclaration(t *testing.T) {
	ck := check(t, "void f(void) { g(1, 2); }")
	o := objByName(ck, "g")
	if o == nil || o.Kind != ObjFunc {
		t.Fatalf("g = %v", o)
	}
	if o.Type.FuncType() == nil {
		t.Error("g has no function type")
	}
}

func TestScopesAndShadowing(t *testing.T) {
	ck := check(t, `
int x;
void f(void) {
	int x;
	{
		int x;
		x = 1;
	}
}`)
	count := 0
	for _, o := range ck.Objects {
		if o.Name == "x" {
			count++
		}
	}
	if count != 3 {
		t.Errorf("x objects = %d, want 3", count)
	}
}

func TestParamObjects(t *testing.T) {
	ck := check(t, "int add(int a, int b) { return a + b; }")
	a := objByName(ck, "a")
	if a == nil || !a.IsParam || a.FuncName != "add" {
		t.Errorf("param a = %+v", a)
	}
}

func TestKRParamTypes(t *testing.T) {
	ck := check(t, `
int scale(v, p)
long v;
char *p;
{ return v; }`)
	v := objByName(ck, "v")
	if v == nil || v.Type.String() != "long" {
		t.Errorf("v: %v", v)
	}
	p := objByName(ck, "p")
	if p == nil || p.Type.String() != "char*" {
		t.Errorf("p: %v", p)
	}
	scale := objByName(ck, "scale")
	if got := scale.Type.String(); got != "int(long,char*)" {
		t.Errorf("scale: %s", got)
	}
}

func TestSizeofLayout(t *testing.T) {
	cases := []struct {
		src  string
		name string
		want int
	}{
		{"struct P { int a; int b; } v;", "v", 8},
		{"struct P { char c; int a; } v;", "v", 8},      // padding
		{"struct P { char c; char d; } v;", "v", 2},     // no padding
		{"struct P { char c; double d; } v;", "v", 16},  // 8-align
		{"union U { char c; double d; } v;", "v", 8},    // union max
		{"struct P { char c[3]; short s; } v;", "v", 6}, // array + align
		{"struct P { int *p; char c; } v;", "v", 16},    // trailing pad
	}
	for _, c := range cases {
		ck := check(t, c.src)
		o := objByName(ck, c.name)
		if got := Sizeof(o.Type); got != c.want {
			t.Errorf("%q: sizeof = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestSizeofExprEval(t *testing.T) {
	ck := check(t, "int arr[sizeof(int) * 2];")
	a := objByName(ck, "arr")
	if a.Type.Len != 8 {
		t.Errorf("len = %d, want 8", a.Type.Len)
	}
}

func TestFunctionRedeclaration(t *testing.T) {
	ck := check(t, `
int f(int);
int f(int x) { return x; }
void g(void) { f(1); }
`)
	count := 0
	for _, o := range ck.Objects {
		if o.Name == "f" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("f declared %d times, want 1 canonical object", count)
	}
}

func TestIncompleteStructPointer(t *testing.T) {
	ck := check(t, `
struct opaque;
struct opaque *make(void);
void use(struct opaque *p) { p = make(); }
`)
	if err := ck.Errs.Err(); err != nil {
		t.Errorf("unexpected errors: %v", err)
	}
}

func TestAnonymousStructMemberPromotion(t *testing.T) {
	ck := check(t, `
struct outer {
	struct { int inner_field; };
	int tail;
} o;
void f(void) { o.inner_field = 1; }
`)
	if len(ck.Members) != 1 {
		t.Errorf("anonymous member access not resolved: errs=%v", ck.Errs.Err())
	}
}

func TestPointerArithmeticTypes(t *testing.T) {
	ck := check(t, `
void f(void) {
	int a[10];
	int *p;
	long d;
	p = a + 1;
	d = p - a;
}`)
	var sawPtr, sawLong bool
	for e, tp := range ck.ExprType {
		if be, ok := e.(*cc.BinaryExpr); ok {
			switch be.Op {
			case "+":
				if tp.String() == "int*" {
					sawPtr = true
				}
			case "-":
				if tp.String() == "long" {
					sawLong = true
				}
			}
		}
	}
	if !sawPtr {
		t.Error("a + 1 not typed int*")
	}
	if !sawLong {
		t.Error("p - a not typed long")
	}
}

func TestStringExprType(t *testing.T) {
	ck := check(t, `char *s; void f(void) { s = "hi"; }`)
	found := false
	for e, tp := range ck.ExprType {
		if _, ok := e.(*cc.StringExpr); ok && tp.String() == "char*" {
			found = true
		}
	}
	if !found {
		t.Error("string literal not typed char*")
	}
}

func TestCheckErrorsHavePositions(t *testing.T) {
	ck := check(t, "void f(void) { y = 1; }")
	err := ck.Errs.Err()
	if err == nil || !strings.Contains(err.Error(), "test.c:1") {
		t.Errorf("err = %v", err)
	}
}

func TestFieldBasedIdentity(t *testing.T) {
	// The paper's field-based mode treats x.f and t.f as the same object
	// when both are fields of the same struct type; the checker must give
	// both accesses the same StructInfo.
	ck := check(t, `
struct S { short x; short y; };
struct S s, t;
void f(void) { s.x = 1; t.x = 2; }
`)
	var refs []*MemberRef
	for _, m := range ck.Members {
		refs = append(refs, m)
	}
	if len(refs) != 2 {
		t.Fatalf("members = %d", len(refs))
	}
	if refs[0].Struct != refs[1].Struct || refs[0].Field.Name != "x" {
		t.Error("s.x and t.x do not share struct identity")
	}
}

func TestFuncPointerCallTyping(t *testing.T) {
	ck := check(t, `
int target(int v) { return v; }
int (*fp)(int);
void f(void) {
	int r;
	fp = target;
	r = fp(3);
	r = (*fp)(4);
}`)
	if err := ck.Errs.Err(); err != nil {
		t.Fatalf("errors: %v", err)
	}
	// Both call forms must type as int.
	calls := 0
	for e, tp := range ck.ExprType {
		if _, ok := e.(*cc.CallExpr); ok {
			calls++
			if tp.String() != "int" {
				t.Errorf("call typed %s", tp)
			}
		}
	}
	if calls != 2 {
		t.Errorf("calls typed = %d, want 2", calls)
	}
}

func TestForwardDeclaredStructCompletedLater(t *testing.T) {
	ck := check(t, `
struct S;
struct S *early;
struct S { int v; struct S *next; };
struct S late;
void f(void) { early = &late; early->v = 1; }
`)
	if err := ck.Errs.Err(); err != nil {
		t.Fatalf("errors: %v", err)
	}
	early := objByName(ck, "early")
	late := objByName(ck, "late")
	if early.Type.Elem.Info != late.Type.Info {
		t.Error("forward declaration not unified with definition")
	}
	if !late.Type.Info.Complete {
		t.Error("definition did not complete the tag")
	}
}

func TestStructScopeShadowing(t *testing.T) {
	ck := check(t, `
struct T { int outer; };
void f(void) {
	struct T { int inner; } local;
	local.inner = 1;
}
struct T g;
`)
	if err := ck.Errs.Err(); err != nil {
		t.Fatalf("errors: %v", err)
	}
	g := objByName(ck, "g")
	if _, ok := g.Type.Info.FieldByName("outer"); !ok {
		t.Error("outer tag clobbered by inner definition")
	}
}

func TestTypedefToTypedef(t *testing.T) {
	ck := check(t, `
typedef int base_t;
typedef base_t mid_t;
typedef mid_t *top_t;
top_t p;
`)
	o := objByName(ck, "p")
	if o.Type.String() != "int*" {
		t.Errorf("p: %s", o.Type)
	}
}

func TestVariadicOnlyProtoAndCall(t *testing.T) {
	ck := check(t, `
int printf(const char *, ...);
void f(void) { printf("%d%d", 1, 2); }
`)
	if err := ck.Errs.Err(); err != nil {
		t.Fatalf("errors: %v", err)
	}
}
