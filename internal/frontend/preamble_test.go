package frontend

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cla/internal/cpp"
	"cla/internal/gen"
)

// diffMemo compiles one unit without a memo and through m and reports
// how the two differ; "" when they agree.
func diffMemo(name, src string, loader cpp.Loader, opts Options, m *Preambles) string {
	want, wantErr := CompileSource(name, src, loader, opts)
	got, gotErr := memoCompile(m, name, src, loader, opts)
	return diffPrograms(got, gotErr, want, wantErr)
}

// checkMemo compiles units through one memo twice over, so the second
// round serves from what the first filled, and checks every compile
// against the compile without a memo.
func checkMemo(t *testing.T, units map[string]string, loader cpp.Loader, opts Options) *Preambles {
	t.Helper()
	m := NewPreambles()
	for round := range 2 {
		for name, src := range units {
			if d := diffMemo(name, src, loader, opts, m); d != "" {
				t.Errorf("round %d, %s: %s", round, name, d)
			}
		}
	}
	return m
}

func TestPreambleExamples(t *testing.T) {
	byDir := map[string]map[string]string{}
	for _, path := range exampleUnits(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Dir(path)
		if byDir[dir] == nil {
			byDir[dir] = map[string]string{}
		}
		byDir[dir][path] = string(src)
	}
	for dir, units := range byDir {
		checkMemo(t, units, cpp.OSLoader{Dirs: []string{dir}}, Options{})
	}
}

// TestPreambleTable2Profiles: every unit of every Table 2 profile gives
// the same program through the memo, in both struct modes; the shared
// header is preprocessed once per memo.
func TestPreambleTable2Profiles(t *testing.T) {
	for _, p := range gen.Table2 {
		code := gen.Generate(p.Scale(0.02), 1)
		units := map[string]string{}
		for _, u := range code.Units() {
			units[u] = code.Files[u]
		}
		for _, opts := range []Options{{}, {Mode: FieldIndependent, ModelStrings: true}} {
			m := checkMemo(t, units, code.Loader(), opts)
			if hits, misses, _ := m.Counts(); misses != 1 || hits != int64(2*len(units)-1) {
				t.Errorf("%s: %d hits, %d misses; want %d and 1", p.Name, hits, misses, 2*len(units)-1)
			}
		}
	}
}

// preambleCases are units whose leading includes exercise the memo's
// key and validity rules. Each is compiled with every header variant in
// files, so an entry filled by one is tried by the next.
var preambleCases = []struct {
	name, src string
	files     cpp.MapLoader
}{
	{name: "typedef used", src: "#include \"h.h\"\nT x; T *p = &x;\nint f(T a) { return (T)a; }\n",
		files: cpp.MapLoader{"h.h": "typedef int T;\n"}},
	{name: "macro used", src: "#include \"h.h\"\nint x = N;\nint *p = P(x);\n",
		files: cpp.MapLoader{"h.h": "#define N 3\n#define P(v) &v\n"}},
	{name: "define before include", src: "#define WIDE 1\n#include \"h.h\"\nint y = x;\n",
		files: cpp.MapLoader{"h.h": "#ifdef WIDE\nlong x;\n#else\nint x;\n#endif\n"}},
	{name: "two includes", src: "#include \"a.h\"\n#include \"b.h\"\nB b; int *q = &a;\n",
		files: cpp.MapLoader{"a.h": "typedef int *A;\nint a;\n", "b.h": "typedef A B;\n"}},
	{name: "double include under guard", src: "#include \"h.h\"\n#include \"h.h\"\nS s;\n",
		files: cpp.MapLoader{"h.h": "#ifndef H\n#define H\ntypedef struct { int *p; } S;\n#endif\n"}},
	{name: "double include unguarded", src: "#include \"h.h\"\n#include \"h.h\"\nint *q = &g;\n",
		files: cpp.MapLoader{"h.h": "extern int g;\n"}},
	{name: "pragma once", src: "#include \"h.h\"\n#include \"h.h\"\nT t;\n",
		files: cpp.MapLoader{"h.h": "#pragma once\ntypedef int T;\n"}},
	{name: "ends mid-declaration", src: "#include \"h.h\"\n x; int y;\n",
		files: cpp.MapLoader{"h.h": "int\n"}},
	{name: "ends mid-definition", src: "#include \"h.h\"\n return 0; }\n",
		files: cpp.MapLoader{"h.h": "int f(void) {\n"}},
	{name: "unbalanced if", src: "#include \"h.h\"\nint y;\n#endif\n",
		files: cpp.MapLoader{"h.h": "#if 1\nint x;\n"}},
	{name: "lex error in header", src: "#include \"h.h\"\nint y;\n",
		files: cpp.MapLoader{"h.h": "char *s = \"open;\n"}},
	{name: "parse error in unit", src: "#include \"h.h\"\nT = ;\nint ok;\n",
		files: cpp.MapLoader{"h.h": "typedef int T;\n"}},
	{name: "header shadows typedef", src: "#include \"h.h\"\nint f(void) { T x; return 0; }\n",
		files: cpp.MapLoader{"h.h": "typedef int T;\nint T2;\n"}},
	{name: "unit shadows typedef", src: "#include \"h.h\"\nint T;\nint g(void) { return T; }\n",
		files: cpp.MapLoader{"h.h": "typedef int T;\n"}},
	{name: "nested include", src: "#include \"h.h\"\nU u;\n",
		files: cpp.MapLoader{"h.h": "#include \"g.h\"\ntypedef T U;\n", "g.h": "typedef int *T;\n"}},
	{name: "missing nested include", src: "#include \"h.h\"\nint y;\n",
		files: cpp.MapLoader{"h.h": "#include \"nope.h\"\n"}},
	{name: "include after code", src: "int a;\n#include \"h.h\"\nint *p = &h;\n",
		files: cpp.MapLoader{"h.h": "int h;\n"}},
	{name: "marker before include", src: "# 5 \"x.c\"\n#include \"h.h\"\n",
		files: cpp.MapLoader{"h.h": "int h;\n"}},
	{name: "file and line in header", src: "#include \"h.h\"\nchar *g = __FILE__;\n",
		files: cpp.MapLoader{"h.h": "char *f = __FILE__;\nint l = __LINE__;\n"}},
	{name: "function defined and struct completed", src: "#include \"h.h\"\nstruct S { int *p; };\nint get(struct S *s) { return *s->p; }\n",
		files: cpp.MapLoader{"h.h": "struct S;\nint get(struct S *);\nextern struct S *cur;\n"}},
	{name: "header defines function", src: "#include \"h.h\"\nint *q = 0;\nvoid g(void) { q = id(q); }\n",
		files: cpp.MapLoader{"h.h": "static int *id(int *p) { return p; }\n"}},
	{name: "undef after include", src: "#include \"h.h\"\n#undef N\nint N;\n",
		files: cpp.MapLoader{"h.h": "#define N 2\n"}},
}

// TestPreambleCases compiles each case through one memo under several
// headers and states, twice each, against the compile without a memo.
func TestPreambleCases(t *testing.T) {
	for _, c := range preambleCases {
		m := NewPreambles()
		for round := range 2 {
			for _, opts := range []Options{{}, {Defines: map[string]string{"WIDE": "2"}}} {
				if d := diffMemo(c.name+".c", c.src, c.files, opts, m); d != "" {
					t.Errorf("%s, round %d, %v: %s", c.name, round, opts.Defines, d)
				}
			}
		}
	}
}

// TestPreambleNotStored: a header that does not parse into whole
// declarations, or does not preprocess cleanly, is never served.
func TestPreambleNotStored(t *testing.T) {
	for _, c := range preambleCases {
		switch c.name {
		case "ends mid-declaration", "ends mid-definition", "unbalanced if", "lex error in header", "missing nested include":
		default:
			continue
		}
		m := NewPreambles()
		for range 3 {
			if d := diffMemo(c.name+".c", c.src, c.files, Options{}, m); d != "" {
				t.Errorf("%s: %s", c.name, d)
			}
		}
		if hits, misses, _ := m.Counts(); hits != 0 || misses != 3 {
			t.Errorf("%s: %d hits, %d misses; want 0 and 3", c.name, hits, misses)
		}
	}
}

// TestPreambleHeaderEdit: an edited header (or one of its nested
// includes) replaces its entry rather than adding one, and the unit
// compiles as it would without a memo.
func TestPreambleHeaderEdit(t *testing.T) {
	files := cpp.MapLoader{"h.h": "#include \"g.h\"\ntypedef int T;\n", "g.h": "int g;\n"}
	src := "#include \"h.h\"\nT x; int *p = &g;\n"
	m := NewPreambles()
	for i, edit := range []func(){
		func() {},
		func() { files["h.h"] = "#include \"g.h\"\ntypedef int *T;\n" },
		func() { files["g.h"] = "int g, more;\n" },
		func() { files["h.h"] = "#include \"g.h\"\nint T;\n" }, // the unit no longer parses
		func() { files["h.h"] = "#include \"g.h\"\ntypedef long T;\n" },
	} {
		edit()
		for range 2 {
			if d := diffMemo("u.c", src, files, Options{}, m); d != "" {
				t.Errorf("edit %d: %s", i, d)
			}
		}
		if n := len(m.slots); n != 1 {
			t.Errorf("edit %d: %d keys, want 1", i, n)
		}
	}
}

// TestPreambleChainEdit: an edit of a first leading include that changes
// how the second one parses, but not the macro state it starts in,
// replaces the second's entry too.
func TestPreambleChainEdit(t *testing.T) {
	files := cpp.MapLoader{"a.h": "typedef int T;\n", "b.h": "int f(T);\n"}
	src := "#include \"a.h\"\n#include \"b.h\"\nint r;\nvoid g(void) { r = f(1); }\n"
	m := NewPreambles()
	for i, a := range []string{"typedef int T;\n", "int T;\n", "typedef int T;\n"} {
		files["a.h"] = a
		for range 2 {
			if d := diffMemo("u.c", src, files, Options{}, m); d != "" {
				t.Errorf("edit %d: %s", i, d)
			}
		}
	}
}

// TestPreambleSweep: Sweep keeps the keys used since the last Sweep
// that served a unit besides their filler, and drops the rest, chains
// included.
func TestPreambleSweep(t *testing.T) {
	files := cpp.MapLoader{"a.h": "int a;\n", "b.h": "int b;\n"}
	m := NewPreambles()
	compile := func(src string) {
		if d := diffMemo("u.c", src, files, Options{}, m); d != "" {
			t.Fatal(d)
		}
	}
	keys := func(want int) {
		t.Helper()
		if n := len(m.slots); n != want {
			t.Fatalf("%d keys, want %d", n, want)
		}
	}
	compile("#include \"a.h\"\n#include \"b.h\"\n")
	compile("#include \"a.h\"\n")
	compile("#define X\n#include \"a.h\"\n")
	keys(3)
	m.Sweep() // only a.h served a second unit
	keys(1)
	compile("#include \"a.h\"\n")
	m.Sweep()
	keys(1)
	compile("#include \"b.h\"\n")
	m.Sweep() // a.h went unused, b.h served only its filler
	keys(0)
	if hits, misses, _ := m.Counts(); hits != 2 || misses != 4 {
		t.Fatalf("%d hits, %d misses, want 2 and 4", hits, misses)
	}
}

// TestPreambleKeepsFewUnshared: units that each start with their own
// header leave at most maxUnshared entries in the memo, the latest ones;
// an entry a second unit used is kept beyond them.
func TestPreambleKeepsFewUnshared(t *testing.T) {
	files := cpp.MapLoader{"shared.h": "int s;\n"}
	const n = 3 * maxUnshared
	for i := range n {
		files[fmt.Sprintf("h%d.h", i)] = fmt.Sprintf("int h%d;\n", i)
	}
	m := NewPreambles()
	compile := func(h string) {
		t.Helper()
		if d := diffMemo("u.c", "#include \""+h+"\"\nint *p = &s;\n", files, Options{}, m); d != "" {
			t.Fatal(d)
		}
	}
	compile("shared.h")
	compile("shared.h")
	for i := range n {
		compile(fmt.Sprintf("h%d.h", i))
	}
	entries := 0
	for _, s := range m.slots {
		if s.cur != nil {
			entries++
		}
	}
	if entries != maxUnshared+1 {
		t.Fatalf("%d entries, want %d", entries, maxUnshared+1)
	}
	hits, misses, _ := m.Counts()
	compile("shared.h")
	compile(fmt.Sprintf("h%d.h", n-1))
	compile("h0.h")
	if h, m, _ := m.Counts(); h-hits != 2 || m-misses != 1 {
		t.Fatalf("%d hits, %d misses; want 2 and 1", h-hits, m-misses)
	}
}

// TestPreambleConcurrent: units compiled on many goroutines through one
// memo fill each key once and all equal the compiles without a memo.
func TestPreambleConcurrent(t *testing.T) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.02), 1)
	units := code.Units()
	m := NewPreambles()
	diffs := make([]string, len(units))
	var wg sync.WaitGroup
	for i, u := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			diffs[i] = diffMemo(u, code.Files[u], code.Loader(), Options{}, m)
		}()
	}
	wg.Wait()
	if d := strings.Join(diffs, ""); d != "" {
		t.Fatal(d)
	}
	if hits, misses, _ := m.Counts(); misses != 1 || hits != int64(len(units)-1) {
		t.Fatalf("%d hits, %d misses; want %d and 1", hits, misses, len(units)-1)
	}
}

// panicLoader panics on one name, standing in for a fault while a
// header is preprocessed.
type panicLoader struct {
	cpp.MapLoader
	bad string
}

func (l panicLoader) Load(name string) (string, string, error) {
	if name == l.bad {
		panic(fmt.Sprintf("load %s", name))
	}
	return l.MapLoader.Load(name)
}

// TestPreambleFillPanic: a fill that panics is abandoned, so the next
// unit fills the key rather than waiting on it forever.
func TestPreambleFillPanic(t *testing.T) {
	files := cpp.MapLoader{"h.h": "#include \"g.h\"\nint h;\n", "g.h": "int g;\n"}
	m := NewPreambles()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		memoCompile(m, "u.c", "#include \"h.h\"\n", panicLoader{files, "g.h"}, Options{})
	}()
	for range 2 {
		if d := diffMemo("u.c", "#include \"h.h\"\nint *p = &g;\n", files, Options{}, m); d != "" {
			t.Fatal(d)
		}
	}
	if hits, misses, _ := m.Counts(); hits != 1 || misses != 2 {
		t.Fatalf("%d hits, %d misses; want 1 and 2", hits, misses)
	}
}

// headerWriteCases are units that write state of the header they start
// with: its objects, through a redeclaration or a definition, or its
// tags, by completing one. recheck says whether the write changes how
// the header itself lowers, so the unit is checked and lowered over its
// whole declaration list.
var headerWriteCases = []struct {
	name, header, src string
	recheck           bool
}{
	{name: "defines prototype, same parameters",
		header: "int *f(int *p);\n",
		src:    "#include \"h.h\"\nint x; int *r;\nint *f(int *q) { return q; }\nvoid g(void) { r = f(&x); }\n"},
	{name: "defines prototype, longer parameter list",
		header:  "int *f(int *p);\n",
		src:     "#include \"h.h\"\nint x; int *r;\nint *f(int *p, int *q) { return q; }\nvoid g(void) { r = f(&x, &x); }\n",
		recheck: true},
	{name: "defines unprototyped function",
		header:  "int *f();\n",
		src:     "#include \"h.h\"\nint *f(int *p) { return p; }\n",
		recheck: true},
	{name: "redeclares prototype after use",
		header: "int *f(int *);\n",
		src:    "#include \"h.h\"\nint x; int *r = f(&x);\nint *f(int *p);\nint *f(int *p) { return p; }\n"},
	{name: "redefines header function",
		header:  "static int *id(int *p) { return p; }\n",
		src:     "#include \"h.h\"\nstatic int *id(int *q) { return 0; }\n",
		recheck: true},
	{name: "defines extern global",
		header: "extern int *gp;\nextern int g;\nextern int arr[];\n",
		src:    "#include \"h.h\"\nint g;\nint *gp = &g;\nint arr[4];\nvoid f(void) { gp = arr; }\n"},
	{name: "stores through function pointer",
		header: "extern int *(*fp)(int *);\nint *id(int *p);\n",
		src:    "#include \"h.h\"\nint *id(int *p) { return p; }\nint v; int *r;\nvoid run(void) { fp = id; r = fp(&v); r = (*fp)(r); }\n"},
	{name: "calls variadic with more arguments",
		header: "int log(const char *fmt, ...);\n",
		src:    "#include \"h.h\"\nint x, *p;\nvoid f(void) { log(\"%p %p\", &x, p); }\n"},
	{name: "completes declared struct",
		header:  "struct S;\nextern struct S *cur;\nint *get(struct S *);\n",
		src:     "#include \"h.h\"\nstruct S { int *p; };\nint *get(struct S *s) { return s->p; }\nint *r;\nvoid g(void) { r = cur->p; }\n",
		recheck: true},
	{name: "completes declared struct in a block",
		header:  "struct S;\nextern struct S *cur;\n",
		src:     "#include \"h.h\"\nint *r;\nvoid g(void) { struct S { int *p; }; r = cur->p; }\n",
		recheck: true},
	{name: "redefines complete struct",
		header: "struct S { int *p; };\nextern struct S s;\n",
		src:    "#include \"h.h\"\nstruct S { long *q; };\nint *r;\nvoid g(void) { struct S t; r = s.p; }\n"},
	{name: "redeclares typedef in block scope",
		header: "typedef int *T;\nextern T gt;\n",
		src:    "#include \"h.h\"\nint x;\nvoid f(void) { int T = 0; gt = &x; T = 1; }\nT y = &x;\n"},
	{name: "redeclares function typedef",
		header:  "typedef int F(int);\nF h;\n",
		src:     "#include \"h.h\"\ntypedef int F(long);\nF k;\nint h(int a) { return k(a); }\n",
		recheck: true},
	{name: "implicit declarations on both sides",
		header: "static int *w(void) { return undeclared(); }\n",
		src:    "#include \"h.h\"\nint *r;\nvoid f(void) { r = undeclared(); r = w(); }\n"},
}

// TestPreambleHeaderWrites: a unit that writes header state compiles
// to the program of a compile without a memo, whether it fills the
// entry or is served one another unit filled, and is rechecked exactly
// when the write changes how the header lowers.
func TestPreambleHeaderWrites(t *testing.T) {
	for _, c := range headerWriteCases {
		for _, opts := range []Options{{}, {Mode: FieldIndependent, ModelStrings: true}} {
			files := cpp.MapLoader{"h.h": c.header}
			m := NewPreambles()
			// The case unit fills the entry, then is served it; then a
			// plain unit refills it and the case unit is served that.
			for i, src := range []string{c.src, c.src, "#include \"h.h\"\n", c.src} {
				if i == 2 {
					m = NewPreambles()
				}
				if d := diffMemo("u.c", src, files, opts, m); d != "" {
					t.Errorf("%s, compile %d: %s", c.name, i, d)
				}
			}
			want := int64(0)
			if c.recheck {
				want = 1
			}
			if _, _, rechecks := m.Counts(); rechecks != want {
				t.Errorf("%s: %d rechecks, want %d", c.name, rechecks, want)
			}
		}
	}
}

// TestPreambleOptionsDiffer: units that lower with other options than
// the unit that filled the entry still compile as without a memo.
func TestPreambleOptionsDiffer(t *testing.T) {
	files := cpp.MapLoader{"h.h": "struct S { int *p; };\nextern struct S s;\nstatic int *get(void) { return s.p; }\nchar *name = \"h\";\n"}
	src := "#include \"h.h\"\nint *r; char *c;\nvoid f(void) { r = get(); c = \"u\"; r = malloc(4); }\n"
	m := NewPreambles()
	for _, opts := range []Options{{}, {Mode: FieldIndependent}, {ModelStrings: true}, {Allocators: map[string]bool{}}, {}} {
		if d := diffMemo("u.c", src, files, opts, m); d != "" {
			t.Errorf("%+v: %s", opts, d)
		}
	}
}

// Snippets for TestPreambleMixedHeaderWrites: header declarations, and
// unit declarations that use, redeclare, define or complete them.
var (
	headerSnippets = []string{
		"int *f(int *p);", "int *f();", "int *f(int *p, ...);", "static int *f(int *p) { return p; }",
		"int g(void);", "extern int *gp;", "extern int x;", "int x;", "typedef int *T;", "typedef int F(int);",
		"F h;", "struct S;", "struct S { int *a; int *b; };", "extern struct S *cur;", "extern struct S sv;",
		"extern int *(*fp)(int *);", "static int *w(void) { return undeclared(); }", "enum { A, B };",
		"struct { int *q; } anon;", "int arr[];", "union U { int *u; };", "extern union U uu;",
		"int k(int a, int b);", "static int *id(int *p) { return p; }",
	}
	unitSnippets = []string{
		"int *f(int *q) { return q; }", "int *f(int *p, int *q) { return q; }", "int *f(int *p);", "int *f();",
		"int g(void) { return 0; }", "int g(int a) { return a; }", "int *gp = &x;", "int x;",
		"typedef long T;", "typedef int F(long);", "void u1(void) { int T = 0; gp = &x; T = 1; }",
		"struct S { int *c; };", "void u2(void) { gp = cur->a; }", "void u3(void) { fp = f; gp = fp(&x); }",
		"void u4(void) { gp = f(&x, &x, gp); }", "void u5(void) { gp = undeclared(); gp = w(); }",
		"void u6(void) { struct S { int *z; } s; s.z = gp; }", "int arr[3];", "void u7(void) { gp = arr; }",
		"void u8(void) { gp = sv.a; sv.b = gp; }", "int k(int b, int a) { return a; }", "int k(int a);",
		"static int *id(int *q);", "void u9(void) { gp = id(gp); }", "union U { long v; };",
		"void u10(void) { gp = uu.u; }", "int h(int a) { return a; }", "int *(*fp)(int *) = id;",
		"void u11(void) { gp = anon.q; }", "void u12(void) { char *s = \"x\"; gp = (int *)malloc(4); }",
	}
)

// TestPreambleMixedHeaderWrites: units of random snippet mixes, served a
// header of random declarations another unit filled, compile as without
// a memo.
func TestPreambleMixedHeaderWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(from []string) string {
		var out []string
		for range 1 + rng.Intn(6) {
			out = append(out, from[rng.Intn(len(from))])
		}
		return strings.Join(out, "\n") + "\n"
	}
	for range 500 {
		files := cpp.MapLoader{"h.h": pick(headerSnippets)}
		src := "#include \"h.h\"\n" + pick(unitSnippets)
		for _, opts := range []Options{{}, {Mode: FieldIndependent, ModelStrings: true}} {
			m := NewPreambles()
			for _, s := range []string{"#include \"h.h\"\nint other;\n", src} {
				if d := diffMemo("u.c", s, files, opts, m); d != "" {
					t.Fatalf("%s\nheader:\n%s\nunit:\n%s", d, files["h.h"], s)
				}
			}
		}
	}
}
