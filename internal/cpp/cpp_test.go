package cpp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cla/internal/cc"
)

// pp runs the preprocessor on src and renders its tokens with render.
// Tests compare the result with lexed(want).
func pp(t *testing.T, src string, files map[string]string) string {
	t.Helper()
	loader := MapLoader(files)
	p := New(loader)
	toks, err := p.Preprocess("test.c", src)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return render(toks)
}

// render writes the texts of the tokens before EOF, one space apart,
// starting a new line wherever the position changes: one line per
// output line of the preprocessor.
func render(toks []cc.Token) string {
	var b strings.Builder
	for i, tk := range toks[:len(toks)-1] {
		switch {
		case i > 0 && tk.Pos != toks[i-1].Pos:
			b.WriteByte('\n')
		case i > 0:
			b.WriteByte(' ')
		}
		b.WriteString(tk.Text)
	}
	return b.String()
}

// lexed renders the lines of want the way render renders output, so a
// test states the expected output as C text.
func lexed(want string) string {
	var lines []string
	for i, l := range strings.Split(want, "\n") {
		toks, _ := cc.LexLine(nil, cc.Pos{Line: i + 1}, l, &cc.ErrorList{})
		toks = append(toks, cc.Token{Kind: cc.EOF})
		lines = append(lines, render(toks))
	}
	return strings.Join(lines, "\n")
}

// at returns the position of the first token with the given text.
func at(toks []cc.Token, text string) cc.Pos {
	for _, tk := range toks {
		if tk.Text == text {
			return tk.Pos
		}
	}
	return cc.Pos{}
}

func ppErr(t *testing.T, src string) error {
	t.Helper()
	p := New(MapLoader{})
	_, err := p.Preprocess("test.c", src)
	if err == nil {
		t.Fatalf("Preprocess(%q): expected error", src)
	}
	return err
}

func TestObjectMacro(t *testing.T) {
	got := pp(t, "#define N 10\nint a[N];\n", nil)
	if got != lexed("int a[10];") {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacro(t *testing.T) {
	got := pp(t, "#define SQ(x) ((x)*(x))\nint y = SQ(a+b);\n", nil)
	if got != lexed("int y = ((a+b)*(a+b));") {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroMultipleArgs(t *testing.T) {
	got := pp(t, "#define MAX(a,b) ((a)>(b)?(a):(b))\nint y = MAX(p, q);\n", nil)
	if got != lexed("int y = ((p)>(q)?(p):(q));") {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroWithoutParens(t *testing.T) {
	// Function-like macro name not followed by '(' is left alone.
	got := pp(t, "#define F(x) x\nint (*p)() = F;\n", nil)
	if got != lexed("int (*p)() = F;") {
		t.Errorf("got %q", got)
	}
}

func TestNestedMacro(t *testing.T) {
	got := pp(t, "#define A B\n#define B 42\nint x = A;\n", nil)
	if got != lexed("int x = 42;") {
		t.Errorf("got %q", got)
	}
}

func TestRecursiveMacroStops(t *testing.T) {
	got := pp(t, "#define X X\nint X;\n", nil)
	if got != lexed("int X;") {
		t.Errorf("got %q", got)
	}
}

func TestMutuallyRecursiveMacros(t *testing.T) {
	got := pp(t, "#define A B\n#define B A\nint A;\n", nil)
	// Expansion must terminate; result is A or B depending on hide sets.
	if got != lexed("int A;") && got != lexed("int B;") {
		t.Errorf("got %q", got)
	}
}

func TestStringize(t *testing.T) {
	got := pp(t, "#define STR(x) #x\nchar *s = STR(a + b);\n", nil)
	if got != lexed(`char *s = "a + b";`) {
		t.Errorf("got %q", got)
	}
}

func TestPaste(t *testing.T) {
	got := pp(t, "#define GLUE(a,b) a##b\nint GLUE(foo, bar) = 1;\n", nil)
	if got != lexed("int foobar = 1;") {
		t.Errorf("got %q", got)
	}
}

func TestPasteChain(t *testing.T) {
	got := pp(t, "#define GLUE3(a,b,c) a##b##c\nint GLUE3(x, y, z);\n", nil)
	if got != lexed("int xyz;") {
		t.Errorf("got %q", got)
	}
}

func TestUndef(t *testing.T) {
	got := pp(t, "#define N 1\n#undef N\nint x = N;\n", nil)
	if got != lexed("int x = N;") {
		t.Errorf("got %q", got)
	}
}

func TestIfdef(t *testing.T) {
	src := "#define FOO\n#ifdef FOO\nint a;\n#else\nint b;\n#endif\n"
	if got := pp(t, src, nil); got != lexed("int a;") {
		t.Errorf("got %q", got)
	}
}

func TestIfndef(t *testing.T) {
	src := "#ifndef FOO\nint a;\n#else\nint b;\n#endif\n"
	if got := pp(t, src, nil); got != lexed("int a;") {
		t.Errorf("got %q", got)
	}
}

func TestIfArithmetic(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"1", true},
		{"0", false},
		{"2 + 3 == 5", true},
		{"1 << 4 == 16", true},
		{"(1 | 2) == 3", true},
		{"10 % 3 == 1", true},
		{"!0", true},
		{"~0 == -1", true},
		{"1 ? 1 : 0", true},
		{"0 ? 1 : 0", false},
		{"0x10 == 16", true},
		{"010 == 8", true},
		{"'A' == 65", true},
		{"1 && 0", false},
		{"1 || 0", true},
		{"UNDEFINED_NAME", false},
		{"-3 < -2", true},
		{"5 / 2 == 2", true},
	}
	for _, c := range cases {
		src := "#if " + c.cond + "\nyes\n#else\nno\n#endif\n"
		got := pp(t, src, nil)
		want := "no"
		if c.want {
			want = "yes"
		}
		if got != lexed(want) {
			t.Errorf("#if %s: got %q, want %q", c.cond, got, want)
		}
	}
}

func TestIfDefinedOperator(t *testing.T) {
	src := "#define FOO 0\n#if defined(FOO) && !defined BAR\nyes\n#endif\n"
	if got := pp(t, src, nil); got != lexed("yes") {
		t.Errorf("got %q", got)
	}
}

func TestElifChain(t *testing.T) {
	src := "#define V 2\n#if V == 1\na\n#elif V == 2\nb\n#elif V == 3\nc\n#else\nd\n#endif\n"
	if got := pp(t, src, nil); got != lexed("b") {
		t.Errorf("got %q", got)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#define A 1
#if A
#if 0
x
#else
y
#endif
#else
z
#endif
`
	if got := pp(t, src, nil); got != lexed("y") {
		t.Errorf("got %q", got)
	}
}

func TestSkippedBranchIgnoresDirectives(t *testing.T) {
	// An undefined macro in a dead branch must not be expanded or error.
	src := "#if 0\n#error should not fire\n#include \"missing.h\"\n#endif\nok\n"
	if got := pp(t, src, nil); got != lexed("ok") {
		t.Errorf("got %q", got)
	}
}

func TestInclude(t *testing.T) {
	files := map[string]string{"defs.h": "#define W 7\nint w = W;\n"}
	src := "#include \"defs.h\"\nint v = W;\n"
	got := pp(t, src, files)
	if got != lexed("int w = 7;\nint v = 7;") {
		t.Errorf("got %q", got)
	}
}

func TestIncludeAngle(t *testing.T) {
	files := map[string]string{"stdio.h": "int printf();\n"}
	got := pp(t, "#include <stdio.h>\n", files)
	if got != lexed("int printf();") {
		t.Errorf("got %q", got)
	}
}

func TestIncludeGuard(t *testing.T) {
	files := map[string]string{
		"g.h": "#ifndef G_H\n#define G_H\nint g;\n#endif\n",
	}
	src := "#include \"g.h\"\n#include \"g.h\"\n"
	if got := pp(t, src, files); got != lexed("int g;") {
		t.Errorf("got %q", got)
	}
}

func TestMissingIncludeError(t *testing.T) {
	err := ppErr(t, "#include \"nope.h\"\n")
	if !strings.Contains(err.Error(), "nope.h") {
		t.Errorf("error %v does not mention file", err)
	}
}

func TestErrorDirective(t *testing.T) {
	err := ppErr(t, "#error deliberate failure\n")
	if !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("error = %v", err)
	}
}

func TestUnterminatedIf(t *testing.T) {
	ppErr(t, "#if 1\nint x;\n")
}

func TestElseWithoutIf(t *testing.T) {
	ppErr(t, "#else\n")
}

func TestEndifWithoutIf(t *testing.T) {
	ppErr(t, "#endif\n")
}

func TestComments(t *testing.T) {
	src := "int a; // trailing\nint /* inline */ b;\nint c; /* multi\nline */ int d;\n"
	got := pp(t, src, nil)
	want := "int a;\nint b;\nint c;\nint d;"
	if got != lexed(want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestCommentInsideString(t *testing.T) {
	got := pp(t, `char *s = "no // comment /* here */";`+"\n", nil)
	if got != lexed(`char *s = "no // comment /* here */";`) {
		t.Errorf("got %q", got)
	}
}

func TestLineSplice(t *testing.T) {
	got := pp(t, "#define LONG \\\n 99\nint x = LONG;\n", nil)
	if got != lexed("int x = 99;") {
		t.Errorf("got %q", got)
	}
}

func TestLineMarkersTrackLines(t *testing.T) {
	p := New(MapLoader{})
	toks, err := p.Preprocess("t.c", "int a;\n\n\nint b;\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(toks); got != lexed("int a;\nint b;") {
		t.Errorf("got %q", got)
	}
	if pos := at(toks, "b"); pos != (cc.Pos{File: "t.c", Line: 4}) {
		t.Errorf("int b; at %v, want t.c:4", pos)
	}
}

func TestLineMarkersAfterInclude(t *testing.T) {
	files := map[string]string{"h.h": "int h;\n"}
	p := New(MapLoader(files))
	toks, err := p.Preprocess("t.c", "#include \"h.h\"\nint after;\n")
	if err != nil {
		t.Fatal(err)
	}
	if pos := at(toks, "h"); pos != (cc.Pos{File: "h.h", Line: 1}) {
		t.Errorf("int h; at %v, want h.h:1", pos)
	}
	if pos := at(toks, "after"); pos != (cc.Pos{File: "t.c", Line: 2}) {
		t.Errorf("int after; at %v, want t.c:2", pos)
	}
}

func TestPredefine(t *testing.T) {
	p := New(MapLoader{})
	p.Define("DEBUG", "1")
	toks, err := p.Preprocess("t.c", "#if DEBUG\nyes\n#endif\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(toks); got != lexed("yes") {
		t.Errorf("got %q", got)
	}
}

func TestVariadicMacro(t *testing.T) {
	got := pp(t, "#define LOG(fmt, ...) printf(fmt, __VA_ARGS__)\nLOG(\"%d\", x);\n", nil)
	if got != lexed(`printf("%d", x);`) {
		t.Errorf("got %q", got)
	}
}

func TestMacroArgWithNestedParens(t *testing.T) {
	got := pp(t, "#define ID(x) x\nint y = ID(f(a, b));\n", nil)
	if got != lexed("int y = f(a, b);") {
		t.Errorf("got %q", got)
	}
}

func TestDeepIncludeLimit(t *testing.T) {
	files := map[string]string{"l.h": "#include \"l.h\"\n"}
	p := New(MapLoader(files))
	p.MaxDepth = 8
	if _, err := p.Preprocess("t.c", "#include \"l.h\"\n"); err == nil {
		t.Error("expected nesting error")
	}
}

func TestEmptyMacroArgs(t *testing.T) {
	got := pp(t, "#define F(x) [x]\nF()\n", nil)
	if got != lexed("[]") {
		t.Errorf("got %q", got)
	}
}

func TestWrongArity(t *testing.T) {
	ppErr(t, "#define F(a,b) a\nF(1,2,3)\n")
}

func TestJoinTokensSpacing(t *testing.T) {
	toks := lexLine(nil, "a+b - -c >> 2", 1)
	got := joinTokens(toks)
	// Must not glue "- -" into "--".
	if strings.Contains(got, "--") {
		t.Errorf("joined %q glues unary minuses", got)
	}
	relexed := lexLine(nil, got, 1)
	if len(relexed) != len(toks) {
		t.Errorf("re-lex changed token count: %d vs %d (%q)", len(relexed), len(toks), got)
	}
}

func TestStripCommentsKeepsLineCount(t *testing.T) {
	src := "a /* x\ny\nz */ b\nc\n"
	out := stripComments(src)
	if strings.Count(out, "\n") != strings.Count(src, "\n") {
		t.Errorf("newline count changed: %q", out)
	}
}

func TestOSLoader(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/x.h", "int x;\n"); err != nil {
		t.Fatal(err)
	}
	l := OSLoader{Dirs: []string{dir}}
	c, _, err := l.Load("x.h")
	if err != nil || c != "int x;\n" {
		t.Errorf("Load = %q, %v", c, err)
	}
	if _, _, err := l.Load("absent.h"); err == nil {
		t.Error("expected error for absent file")
	}
}

func writeFile(path, content string) error {
	return osWriteFile(path, content)
}

func TestBuiltinLineAndFile(t *testing.T) {
	got := pp(t, "int a = __LINE__;\nchar *f = __FILE__;\n", nil)
	want := "int a = 1;\nchar *f = \"test.c\";"
	if got != lexed(want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestBuiltinLineInIncludedFile(t *testing.T) {
	files := map[string]string{"h.h": "int hl = __LINE__;\nchar *hf = __FILE__;\n"}
	got := pp(t, "#include \"h.h\"\nint ml = __LINE__;\n", files)
	want := "int hl = 1;\nchar *hf = \"h.h\";\nint ml = 2;"
	if got != lexed(want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestBuiltinStdc(t *testing.T) {
	got := pp(t, "#if __STDC__\nyes\n#endif\n", nil)
	if got != lexed("yes") {
		t.Errorf("got %q", got)
	}
}

func TestBuiltinLineInMacro(t *testing.T) {
	// __LINE__ inside a macro body expands at the use site's line.
	got := pp(t, "#define HERE __LINE__\n\n\nint x = HERE;\n", nil)
	if got != lexed("int x = 4;") {
		t.Errorf("got %q", got)
	}
}

func TestIfDivisionByZeroError(t *testing.T) {
	ppErr(t, "#if 1/0\nx\n#endif\n")
	ppErr(t, "#if 1%0\nx\n#endif\n")
}

func TestIfMalformedExpressions(t *testing.T) {
	srcs := []string{
		"#if (1\nx\n#endif\n",
		"#if 1 +\nx\n#endif\n",
		"#if ? 1\nx\n#endif\n",
		"#if 1 2\nx\n#endif\n",
		"#if defined(\nx\n#endif\n",
	}
	for _, src := range srcs {
		p := New(MapLoader{})
		if _, err := p.Preprocess("bad.c", src); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestUnknownDirective(t *testing.T) {
	ppErr(t, "#frobnicate\n")
}

func TestPreprocessFile(t *testing.T) {
	files := MapLoader{"m.c": "#define V 5\nint x = V;\n"}
	p := New(files)
	toks, err := p.PreprocessFile("m.c")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(toks); got != lexed("int x = 5;") {
		t.Errorf("got %q", got)
	}
	if pos := at(toks, "x"); pos != (cc.Pos{File: "m.c", Line: 2}) {
		t.Errorf("int x = 5; at %v, want m.c:2", pos)
	}
	if _, err := p.PreprocessFile("missing.c"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTernaryInIf(t *testing.T) {
	got := pp(t, "#if 1 ? 0 : 1\na\n#else\nb\n#endif\n", nil)
	if got != lexed("b") {
		t.Errorf("got %q", got)
	}
}

func TestConditionalMacroRedefinition(t *testing.T) {
	src := `#define MODE 1
#if MODE == 1
#undef MODE
#define MODE 2
#endif
#if MODE == 2
ok
#endif
`
	if got := pp(t, src, nil); got != lexed("ok") {
		t.Errorf("got %q", got)
	}
}

func TestPragmaOnce(t *testing.T) {
	files := map[string]string{"o.h": "#pragma once\nint once_var;\n"}
	got := pp(t, "#include \"o.h\"\n#include \"o.h\"\n", files)
	if got != lexed("int once_var;") {
		t.Errorf("got %q", got)
	}
}

func TestDollarInIdentifiers(t *testing.T) {
	// '$' continues an identifier, as in cc's lexer, so the macro is
	// FOO$BAR and not FOO with the body "$BAR 7".
	got := pp(t, "#define FOO$BAR 7\nint x = FOO$BAR;\nint $y = FOO;\n", nil)
	if got != lexed("int x = 7;\nint $y = FOO;") {
		t.Errorf("got %q", got)
	}
}

func TestQuotedIncludeBesideIncluder(t *testing.T) {
	files := MapLoader{
		"sub/u.c": "#include \"h.h\"\n#include <h.h>\n",
		"sub/h.h": "int beside;\n",
		"h.h":     "int top;\n",
	}
	toks, err := New(files).PreprocessFile("sub/u.c")
	if err != nil {
		t.Fatal(err)
	}
	// The quoted include finds sub/h.h; the angle one still finds h.h.
	if got := render(toks); got != lexed("int beside;\nint top;") {
		t.Errorf("got %q", got)
	}
	if pos := at(toks, "beside"); pos != (cc.Pos{File: "sub/h.h", Line: 1}) {
		t.Errorf("int beside; at %v, want sub/h.h:1", pos)
	}
}

func TestQuotedIncludeBeforeWorkingDirectory(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"h.h":     "int decoy;\n",
		"sub/h.h": "int beside;\n",
		"sub/u.c": "#include \"h.h\"\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeFile(path, content); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
	toks, err := New(OSLoader{}).PreprocessFile("sub/u.c")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(toks); got != lexed("int beside;") {
		t.Errorf("got %q, want sub/h.h, not the working directory's h.h", got)
	}
}

func TestIncludeWithoutHeaderName(t *testing.T) {
	// Each used to recurse until the stack overflowed.
	for _, src := range []string{
		"#include",
		"#include\n",
		"#include NOPE\n",
		"#define SELF SELF \"h.h\"\n#include SELF\n",
	} {
		err := ppErr(t, src)
		if !strings.Contains(err.Error(), "malformed #include") {
			t.Errorf("%q: error %v", src, err)
		}
	}
}

// chdir changes the working directory for the rest of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}
