package cc

import (
	"fmt"
	"strings"
	"testing"
)

// parseOK parses src and fails the test on error.
func parseOK(t *testing.T, src string) *TranslationUnit {
	t.Helper()
	u, err := Parse("test.c", src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return u
}

// exprDump parses `void f(void) { <src>; }` and dumps the lone statement.
func exprDump(t *testing.T, src string) string {
	t.Helper()
	u := parseOK(t, "void f(void) { "+src+"; }")
	fd := u.Decls[0].(*FuncDef)
	if len(fd.Body.Items) != 1 {
		t.Fatalf("expected 1 stmt, got %d", len(fd.Body.Items))
	}
	s := Dump(fd.Body.Items[0])
	return strings.TrimSuffix(s, ";")
}

func TestExprPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"a + b * c", "(+ a (* b c))"},
		{"a * b + c", "(+ (* a b) c)"},
		{"a - b - c", "(- (- a b) c)"},
		{"a = b = c", "(= a (= b c))"},
		{"a += b", "(+= a b)"},
		{"a << b + c", "(<< a (+ b c))"},
		{"a < b == c", "(== (< a b) c)"},
		{"a & b | c ^ d", "(| (& a b) (^ c d))"},
		{"a && b || c", "(|| (&& a b) c)"},
		{"a ? b : c ? d : e", "(?: a b (?: c d e))"},
		{"a, b", "(, a b)"},
		{"*p = x", "(= (* p) x)"},
		{"-x + +y", "(+ (- x) (+ y))"},
		{"!a && ~b", "(&& (! a) (~ b))"},
		{"++i", "(++ i)"},
		{"i++", "(post++ i)"},
		{"--i - i--", "(- (-- i) (post-- i))"},
		{"a[i][j]", "(index (index a i) j)"},
		{"f(a, b)", "(call f a b)"},
		{"f()", "(call f)"},
		{"s.x", "(. s x)"},
		{"p->x", "(-> p x)"},
		{"p->x.y", "(. (-> p x) y)"},
		{"&x", "(& x)"},
		{"*&x", "(* (& x))"},
		{"**pp", "(* (* pp))"},
		{"sizeof x", "(sizeof x)"},
		{"a % b", "(% a b)"},
		{"x >> 3 & 1", "(& (>> x 3) 1)"},
		{"(a + b) * c", "(* (+ a b) c)"},
		{"f(a)(b)", "(call (call f a) b)"},
		{"a.b[1].c", "(. (index (. a b) 1) c)"},
		{"(*fp)(x)", "(call (* fp) x)"},
	}
	for _, c := range cases {
		if got := exprDump(t, c.src); got != c.want {
			t.Errorf("%q: got %s, want %s", c.src, got, c.want)
		}
	}
}

func TestCastExpr(t *testing.T) {
	got := exprDump(t, "x = (int)y")
	if got != "(= x (cast int y))" {
		t.Errorf("got %s", got)
	}
	got = exprDump(t, "x = (char *)p")
	if got != "(= x (cast char (* _) p))" {
		t.Errorf("got %s", got)
	}
}

func TestCastVsParenExpr(t *testing.T) {
	// (y) is a parenthesized expression, not a cast, because y is not a
	// typedef name.
	got := exprDump(t, "x = (y) + 1")
	if got != "(= x (+ y 1))" {
		t.Errorf("got %s", got)
	}
}

func TestTypedefCastDisambiguation(t *testing.T) {
	src := `typedef int T;
void f(void) { int x; x = (T)x; }`
	u := parseOK(t, src)
	fd := u.Decls[1].(*FuncDef)
	got := Dump(fd.Body.Items[1])
	if got != "(= x (cast T x));" {
		t.Errorf("got %s", got)
	}
}

func TestSizeofType(t *testing.T) {
	got := exprDump(t, "n = sizeof(int)")
	if got != "(= n (sizeof int))" {
		t.Errorf("got %s", got)
	}
	got = exprDump(t, "n = sizeof(struct S)")
	if got != "(= n (sizeof struct:S))" {
		t.Errorf("got %s", got)
	}
}

func TestSimpleDeclarations(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int x;", "(decl int x)"},
		{"int x, y;", "(decl int x y)"},
		{"short *p;", "(decl short (* p))"},
		{"int **pp;", "(decl int (* (* pp)))"},
		{"int a[10];", "(decl int (arr a))"},
		{"int a[3][4];", "(decl int (arr (arr a)))"},
		// Pointer syntactically wraps the postfixed direct declarator, so
		// "array of pointer to char" renders as (* (arr argv)): the node
		// adjacent to the identifier is applied first in type building.
		{"char *argv[];", "(decl char (* (arr argv)))"},
		{"int (*fp)(void);", "(decl int (fn (* fp)))"},
		{"int (*fp)(int, char);", "(decl int (fn (* fp) int char))"},
		{"int f(int x);", "(decl int (fn f int:x))"},
		{"int f();", "(decl int (fn f))"},
		{"unsigned long int z;", "(decl unsigned-long-int z)"},
		{"extern int e;", "(decl extern int e)"},
		{"static char c;", "(decl static char c)"},
		{"int x = 3;", "(decl int x=3)"},
		{"int a[] = {1, 2, 3};", "(decl int (arr a)={1 2 3})"},
		{"int (*arr[4])(void);", "(decl int (fn (* (arr arr))))"},
		{"const volatile int cv;", "(decl int cv)"},
	}
	for _, c := range cases {
		u := parseOK(t, c.src)
		if len(u.Decls) != 1 {
			t.Errorf("%q: %d decls", c.src, len(u.Decls))
			continue
		}
		if got := Dump(u.Decls[0]); got != c.want {
			t.Errorf("%q: got %s, want %s", c.src, got, c.want)
		}
	}
}

func TestComplexDeclarator(t *testing.T) {
	// int (*(*f)(int))(char): f is a pointer to a function taking int
	// returning pointer to function taking char returning int.
	u := parseOK(t, "int (*(*f)(int))(char);")
	want := "(decl int (fn (* (fn (* f) int)) char))"
	if got := Dump(u.Decls[0]); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestStructDeclaration(t *testing.T) {
	u := parseOK(t, "struct S { short x; short y; };")
	d := u.Decls[0].(*Declaration)
	s := d.Specs.Struct
	if s == nil || s.Name != "S" || !s.Defined {
		t.Fatalf("struct spec = %+v", s)
	}
	if len(s.Fields) != 2 || s.Fields[0].Decl.DeclName() != "x" || s.Fields[1].Decl.DeclName() != "y" {
		t.Errorf("fields wrong: %s", Dump(d))
	}
}

func TestStructWithPointerAndNested(t *testing.T) {
	src := `struct Outer {
		struct Inner { int a; } in;
		struct Outer *next;
		int arr[4];
		unsigned bits : 3;
	};`
	u := parseOK(t, src)
	d := u.Decls[0].(*Declaration)
	s := d.Specs.Struct
	if len(s.Fields) != 4 {
		t.Fatalf("fields = %d", len(s.Fields))
	}
	if s.Fields[3].Bits == nil {
		t.Error("bitfield width not parsed")
	}
}

func TestUnionAndEnum(t *testing.T) {
	u := parseOK(t, "union U { int i; float f; } u1; enum E { A, B = 3, C } e1;")
	d0 := u.Decls[0].(*Declaration)
	if !d0.Specs.Struct.Union || len(d0.Specs.Struct.Fields) != 2 {
		t.Errorf("union parse: %s", Dump(d0))
	}
	d1 := u.Decls[1].(*Declaration)
	es := d1.Specs.Enum
	if es == nil || len(es.Items) != 3 || es.Items[1].Name != "B" || es.Items[1].Value == nil {
		t.Errorf("enum parse: %s", Dump(d1))
	}
}

func TestTypedefDeclaration(t *testing.T) {
	src := `typedef struct S { int v; } S_t, *S_p;
S_t a;
S_p b;`
	u := parseOK(t, src)
	if len(u.Decls) != 3 {
		t.Fatalf("decls = %d", len(u.Decls))
	}
	d1 := u.Decls[1].(*Declaration)
	if d1.Specs.TypedefName != "S_t" {
		t.Errorf("second decl specs: %s", Dump(d1))
	}
	d2 := u.Decls[2].(*Declaration)
	if d2.Specs.TypedefName != "S_p" {
		t.Errorf("third decl specs: %s", Dump(d2))
	}
}

func TestTypedefShadowing(t *testing.T) {
	// Inside f, T is redeclared as a variable; `T * x` is then a
	// multiplication, not a declaration.
	src := `typedef int T;
void f(void) { int T; int x; T * x; }`
	u := parseOK(t, src)
	fd := u.Decls[1].(*FuncDef)
	if len(fd.Body.Items) != 3 {
		t.Fatalf("items = %d: %s", len(fd.Body.Items), Dump(fd.Body))
	}
	if got := Dump(fd.Body.Items[2]); got != "(* T x);" {
		t.Errorf("got %s", got)
	}
}

func TestFunctionDefinition(t *testing.T) {
	u := parseOK(t, "int add(int a, int b) { return a + b; }")
	fd, ok := u.Decls[0].(*FuncDef)
	if !ok {
		t.Fatalf("not a FuncDef: %T", u.Decls[0])
	}
	if fd.Decl.D.DeclName() != "add" {
		t.Errorf("name = %q", fd.Decl.D.DeclName())
	}
	f := outermostFunc(fd.Decl.D)
	if f == nil || len(f.Params) != 2 || f.Params[0].Decl.DeclName() != "a" {
		t.Errorf("params wrong: %s", Dump(fd))
	}
}

func TestKRFunctionDefinition(t *testing.T) {
	src := `int add(a, b)
int a;
int b;
{ return a + b; }`
	u := parseOK(t, src)
	fd, ok := u.Decls[0].(*FuncDef)
	if !ok {
		t.Fatalf("not a FuncDef: %T", u.Decls[0])
	}
	f := outermostFunc(fd.Decl.D)
	if len(f.KRNames) != 2 || f.KRNames[0] != "a" {
		t.Errorf("KR names = %v", f.KRNames)
	}
	if len(fd.KRDecls) != 2 {
		t.Errorf("KR decls = %d", len(fd.KRDecls))
	}
}

func TestVariadicFunction(t *testing.T) {
	u := parseOK(t, "int printf(const char *fmt, ...);")
	d := u.Decls[0].(*Declaration)
	f := d.Items[0].Decl.D.(*FuncDecl)
	if !f.Variadic || len(f.Params) != 1 {
		t.Errorf("got %s", Dump(d))
	}
}

func TestFunctionReturningPointer(t *testing.T) {
	u := parseOK(t, "char *strdup(const char *s) { return s; }")
	fd := u.Decls[0].(*FuncDef)
	if fd.Decl.D.DeclName() != "strdup" {
		t.Errorf("name = %q", fd.Decl.D.DeclName())
	}
	// Spine: PointerDecl(FuncDecl(Ident)).
	pd, ok := fd.Decl.D.(*PointerDecl)
	if !ok {
		t.Fatalf("outer not pointer: %T", fd.Decl.D)
	}
	if _, ok := pd.Inner.(*FuncDecl); !ok {
		t.Fatalf("inner not func: %T", pd.Inner)
	}
}

func TestStatements(t *testing.T) {
	src := `void f(int n) {
	int i;
	if (n > 0) n = 1; else n = 2;
	while (n) n--;
	do { n++; } while (n < 10);
	for (i = 0; i < n; i++) g(i);
	for (;;) break;
	switch (n) {
	case 1: n = 2; break;
	case 2:
	default: n = 0;
	}
	goto done;
done:
	return;
}`
	u := parseOK(t, src)
	fd := u.Decls[0].(*FuncDef)
	kinds := []string{}
	for _, s := range fd.Body.Items {
		kinds = append(kinds, typeName(s))
	}
	want := []string{"*cc.DeclStmt", "*cc.IfStmt", "*cc.WhileStmt", "*cc.DoStmt",
		"*cc.ForStmt", "*cc.ForStmt", "*cc.SwitchStmt", "*cc.GotoStmt", "*cc.LabelStmt"}
	if len(kinds) != len(want) {
		t.Fatalf("items = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("item %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func typeName(v any) string { return fmt.Sprintf("%T", v) }

func TestC99ForDecl(t *testing.T) {
	u := parseOK(t, "void f(void) { for (int i = 0; i < 3; i++) g(i); }")
	fd := u.Decls[0].(*FuncDef)
	fs := fd.Body.Items[0].(*ForStmt)
	if fs.InitDecl == nil {
		t.Error("for-init declaration not parsed")
	}
}

func TestDanglingElse(t *testing.T) {
	u := parseOK(t, "void f(void){ if (a) if (b) x(); else y(); }")
	fd := u.Decls[0].(*FuncDef)
	outer := fd.Body.Items[0].(*IfStmt)
	if outer.Else != nil {
		t.Error("else bound to outer if")
	}
	inner := outer.Then.(*IfStmt)
	if inner.Else == nil {
		t.Error("else not bound to inner if")
	}
}

func TestLineMarkerPositions(t *testing.T) {
	src := "# 10 \"orig.c\"\nint x;\nint y;\n"
	u := parseOK(t, src)
	d := u.Decls[1].(*Declaration)
	pos := d.Position()
	if pos.File != "orig.c" || pos.Line != 11 {
		t.Errorf("pos = %v, want orig.c:11", pos)
	}
}

func TestStringConcatenation(t *testing.T) {
	got := exprDump(t, `s = "a" "b"`)
	if got != `(= s "a")` {
		t.Errorf("got %s", got)
	}
}

func TestCharAndFloatLiterals(t *testing.T) {
	got := exprDump(t, `c = 'x'`)
	if got != "(= c 'x')" {
		t.Errorf("got %s", got)
	}
	got = exprDump(t, "f = 1.5e3")
	if got != "(= f 1.5e3)" {
		t.Errorf("got %s", got)
	}
	got = exprDump(t, "n = 0x1fUL")
	if got != "(= n 0x1fUL)" {
		t.Errorf("got %s", got)
	}
}

func TestParseErrorsRecovered(t *testing.T) {
	_, err := Parse("bad.c", "int x = ;\nint @ y;\nint ok;\n")
	if err == nil {
		t.Fatal("expected parse errors")
	}
	// Parsing must report position info.
	if !strings.Contains(err.Error(), "bad.c:") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestParseErrorTermination(t *testing.T) {
	// Pathological inputs must terminate.
	srcs := []string{
		"(((((((",
		"}}}}",
		"struct { int",
		"int f(int",
		"= = = =",
		"int a[",
		"void f() { case 3: }",
	}
	for _, src := range srcs {
		_, err := Parse("junk.c", src)
		_ = err // error expected but termination is the point
	}
}

func TestInitializerLists(t *testing.T) {
	u := parseOK(t, "struct P { int x, y; } p = { 1, 2 };")
	d := u.Decls[0].(*Declaration)
	init := d.Items[0].Init
	if init == nil || len(init.List) != 2 {
		t.Fatalf("init = %s", Dump(d))
	}
}

func TestDesignatedInitializer(t *testing.T) {
	u := parseOK(t, "struct P { int x, y; } p = { .x = 1, .y = 2 };")
	d := u.Decls[0].(*Declaration)
	init := d.Items[0].Init
	if len(init.List) != 2 || init.List[0].Field != "x" || init.List[1].Field != "y" {
		t.Fatalf("init = %s", Dump(d))
	}
}

func TestNestedInitializer(t *testing.T) {
	u := parseOK(t, "int m[2][2] = { {1, 2}, {3, 4} };")
	d := u.Decls[0].(*Declaration)
	init := d.Items[0].Init
	if len(init.List) != 2 || len(init.List[0].List) != 2 {
		t.Fatalf("init = %s", Dump(d))
	}
}

func TestAddressOfFunction(t *testing.T) {
	got := exprDump(t, "fp = &func")
	if got != "(= fp (& func))" {
		t.Errorf("got %s", got)
	}
}

func TestCompoundLiteral(t *testing.T) {
	got := exprDump(t, "p = (struct S){1, 2}")
	if !strings.Contains(got, "cast struct:S") {
		t.Errorf("got %s", got)
	}
}

func TestEmptyTranslationUnitAndStrayDecls(t *testing.T) {
	u := parseOK(t, ";;\n")
	if len(u.Decls) != 0 {
		t.Errorf("decls = %d", len(u.Decls))
	}
}

func TestOldStyleEmptyParams(t *testing.T) {
	u := parseOK(t, "int f() { return 0; }")
	if _, ok := u.Decls[0].(*FuncDef); !ok {
		t.Fatalf("not a funcdef")
	}
}

func TestPointerToPointerParams(t *testing.T) {
	u := parseOK(t, "void g(char **argv, int (*cmp)(int, int));")
	d := u.Decls[0].(*Declaration)
	f := d.Items[0].Decl.D.(*FuncDecl)
	if len(f.Params) != 2 {
		t.Fatalf("params = %d", len(f.Params))
	}
	if f.Params[1].Decl.DeclName() != "cmp" {
		t.Errorf("param 1 name = %q", f.Params[1].Decl.DeclName())
	}
}

func TestTokenizeKindsAndPositions(t *testing.T) {
	toks, err := Tokenize("t.c", "int x = 042; /*no comment: already stripped*/")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Keyword || toks[1].Kind != Ident || toks[3].Kind != IntLit {
		t.Errorf("kinds wrong: %v", toks)
	}
	if toks[1].Pos.Line != 1 || toks[1].Pos.File != "t.c" {
		t.Errorf("pos = %v", toks[1].Pos)
	}
}

func TestTokenizeWideLiterals(t *testing.T) {
	toks, err := Tokenize("t.c", `w = L"x"; c = L'y'; L = Lx;`)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokKind
		text string
	}{
		{Ident, "w"}, {Punct, "="}, {StringLit, `"x"`}, {Punct, ";"},
		{Ident, "c"}, {Punct, "="}, {CharLit, "'y'"}, {Punct, ";"},
		{Ident, "L"}, {Punct, "="}, {Ident, "Lx"}, {Punct, ";"}, {EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestExternDeclarationsWithFunctionPtrTypedef(t *testing.T) {
	src := `typedef void (*handler_t)(int);
handler_t table[32];
void install(int sig, handler_t h) { table[sig] = h; }`
	u := parseOK(t, src)
	if len(u.Decls) != 3 {
		t.Fatalf("decls = %d", len(u.Decls))
	}
	if _, ok := u.Decls[2].(*FuncDef); !ok {
		t.Errorf("third decl is %T", u.Decls[2])
	}
}

func TestGccAttributesSkipped(t *testing.T) {
	srcs := []string{
		"int x __attribute__((aligned(8)));",
		"__attribute__((packed)) struct P { int a; } p;",
		"int f(int a) __attribute__((noreturn));",
		"int y __asm__(\"external_y\");",
		"static __attribute__((unused)) int z;",
	}
	for _, src := range srcs {
		if _, err := Parse("attr.c", src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// TestParserNeverPanicsOrHangs fuzzes the parser with random token soup;
// the requirement is termination without panic, errors are expected.
func TestParserNeverPanicsOrHangs(t *testing.T) {
	pieces := []string{
		"int", "char", "struct", "union", "enum", "typedef", "static",
		"if", "else", "while", "for", "return", "sizeof", "case", "default",
		"x", "y", "S", "f", "0", "1", "42", "0x1f", "'c'", "\"str\"",
		"{", "}", "(", ")", "[", "]", ";", ",", "*", "&", "=", "+", "-",
		"->", ".", "...", "?", ":", "<<", ">>", "==", "++", "--", "#",
	}
	rng := newTestRand(99)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			b.WriteByte(' ')
		}
		done := make(chan struct{})
		src := b.String()
		go func() {
			defer close(done)
			Parse("fuzz.c", src) // errors expected; panics/hangs are not
		}()
		select {
		case <-done:
		case <-timeAfter():
			t.Fatalf("parser hung on %q", src)
		}
	}
}

func TestAsmStatements(t *testing.T) {
	srcs := []string{
		`void f(void) { asm("nop"); }`,
		`void f(void) { __asm__("mov %0, %1" : "=r"(a) : "r"(b)); }`,
		`void f(void) { __asm__ volatile ("mfence"); }`,
	}
	for _, src := range srcs {
		if _, err := Parse("asm.c", src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestGnuElvisOperator(t *testing.T) {
	got := exprDump(t, "x = a ?: b")
	if got != "(= x (?: a a b))" {
		t.Errorf("got %s", got)
	}
}
