package cla

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func names(objs []Object) []string {
	var out []string
	for _, o := range objs {
		out = append(out, o.Name())
	}
	sort.Strings(out)
	return out
}

func TestQuickstartWorkflow(t *testing.T) {
	db, err := CompileSource("t.c", `
int x, y;
int *p, *q;
void m(void) { p = &x; q = p; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := names(an.PointsToName("q"))
	if len(got) != 1 || got[0] != "x" {
		t.Errorf("pts(q) = %v", got)
	}
}

func TestCompileLinkAnalyze(t *testing.T) {
	a, err := CompileSource("a.c", "int shared; int *pa;\nvoid fa(void) { pa = &shared; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileSource("b.c", "extern int shared; extern int *pa; int *pb;\nvoid fb(void) { pb = pa; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Link(a, b)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(an.PointsToName("pb")); len(got) != 1 || got[0] != "shared" {
		t.Errorf("pts(pb) = %v", got)
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	db, err := CompileSource("t.c", "int v, *p; void m(void) { p = &v; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.clo")
	if err := db.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Stats() != db.Stats() {
		t.Errorf("stats differ: %+v vs %+v", db2.Stats(), db.Stats())
	}
}

func TestAnalyzeFileDemandLoaded(t *testing.T) {
	db, err := CompileSource("t.c", `
int v, *p, *q;
int unused1, unused2;
void m(void) { p = &v; q = p; unused1 = unused2; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.clo")
	if err := db.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeFileCtx(context.Background(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if got := names(an.PointsToName("q")); len(got) != 1 || got[0] != "v" {
		t.Errorf("pts(q) = %v", got)
	}
	m := an.Metrics()
	if m.Loaded >= m.InFile {
		t.Errorf("demand loading ineffective: %+v", m)
	}
}

func TestAlgorithms(t *testing.T) {
	db, err := CompileSource("t.c", `
int a, b, *p, *q;
void m(void) { p = &a; q = p; p = &b; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{PreTransitive, WorklistAndersen, SteensgaardUnify, BitVectorAndersen, OneLevelFlow} {
		an, err := db.AnalyzeCtx(context.Background(), &AnalyzeOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		got := names(an.PointsToName("q"))
		if len(got) < 2 {
			t.Errorf("alg %d: pts(q) = %v", alg, got)
		}
	}
}

func TestMayAlias(t *testing.T) {
	db, err := CompileSource("t.c", `
int a, b;
int *p, *q, *r;
void m(void) { p = &a; q = &a; r = &b; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(n string) Object { return db.Lookup(n)[0] }
	if !an.MayAlias(obj("p"), obj("q")) {
		t.Error("p and q must alias")
	}
	if an.MayAlias(obj("p"), obj("r")) {
		t.Error("p and r must not alias")
	}
}

func TestDependenceAPI(t *testing.T) {
	db, err := CompileSource("eg1.c", `
short target;
struct S { short x; short y; };
short u, *v, w;
struct S s, t;
void m(void) {
	v = &w;
	u = target;
	*v = u;
	s.x = w;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := an.DependenceByName("target", nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Dependent{}
	for _, d := range deps {
		byName[d.Object.Name()] = d
	}
	for _, want := range []string{"u", "w", "S.x"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing dependent %s (have %v)", want, byName)
		}
	}
	if d := byName["S.x"]; !strings.Contains(d.Chain, "where target/short") {
		t.Errorf("chain = %q", d.Chain)
	}
	if _, ok := byName["S.y"]; ok {
		t.Error("S.y must not be dependent")
	}
}

func TestDependenceNonTargets(t *testing.T) {
	db, err := CompileSource("t.c", `
int target, hub, down;
void m(void) { hub = target; down = hub; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := an.DependenceByName("target", &DependOptions{NonTargets: db.Lookup("hub")})
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 0 {
		t.Errorf("dependents = %v", deps)
	}
}

func TestCompileDirAndIncludes(t *testing.T) {
	dir := t.TempDir()
	hdr := "#ifndef H\n#define H\nextern int g;\n#endif\n"
	os.WriteFile(filepath.Join(dir, "defs.h"), []byte(hdr), 0o644)
	os.WriteFile(filepath.Join(dir, "a.c"), []byte("#include \"defs.h\"\nint g; int *p;\nvoid f(void) { p = &g; }\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "b.c"), []byte("#include \"defs.h\"\nint x;\nvoid h(void) { x = g; }\n"), 0o644)
	db, err := CompileDirCtx(context.Background(), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(an.PointsToName("p")); len(got) != 1 || got[0] != "g" {
		t.Errorf("pts(p) = %v", got)
	}
}

// TestCompileDirNoUnits: a directory with no units, or no directory at
// all, is a compile-phase error that names the directory.
func TestCompileDirNoUnits(t *testing.T) {
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "defs.h"), []byte("extern int g;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{empty, filepath.Join(empty, "missing")} {
		db, err := CompileDirCtx(context.Background(), dir, nil)
		var ce *Error
		if !errors.As(err, &ce) || ce.Phase != PhaseCompile {
			t.Errorf("CompileDirCtx(%s) = %v, %v; want a %s-phase error", dir, db, err, PhaseCompile)
			continue
		}
		if !strings.Contains(err.Error(), dir) {
			t.Errorf("CompileDirCtx(%s) error %q does not name the directory", dir, err)
		}
	}
}

func TestDefines(t *testing.T) {
	db, err := CompileSource("t.c", `
#if FEATURE
int v, *p;
void m(void) { p = &v; }
#endif
`, &Options{Defines: map[string]string{"FEATURE": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().Base != 1 {
		t.Errorf("stats = %+v", db.Stats())
	}
}

func TestFieldModes(t *testing.T) {
	src := `
struct S { int *x; int *y; } A, B;
int z;
void m(void) {
	int *p, *q, *r, *s;
	A.x = &z;
	p = A.x; q = A.y; r = B.x; s = B.y;
}
`
	fb, err := CompileSource("t.c", src, &Options{Mode: FieldBased})
	if err != nil {
		t.Fatal(err)
	}
	anFB, err := fb.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := CompileSource("t.c", src, &Options{Mode: FieldIndependent})
	if err != nil {
		t.Fatal(err)
	}
	anFI, err := fi.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Field-based: p and r get &z; field-independent: p and q get &z.
	if got := names(anFB.PointsToName("r")); len(got) != 1 {
		t.Errorf("field-based pts(r) = %v", got)
	}
	if got := names(anFB.PointsToName("q")); got != nil {
		t.Errorf("field-based pts(q) = %v", got)
	}
	if got := names(anFI.PointsToName("q")); len(got) != 1 {
		t.Errorf("field-independent pts(q) = %v", got)
	}
	if got := names(anFI.PointsToName("r")); got != nil {
		t.Errorf("field-independent pts(r) = %v", got)
	}
}

func TestObjectAccessors(t *testing.T) {
	db, err := CompileSource("t.c", "struct S { int f; } s;\nint g;\nvoid fn(int a) { int loc; loc = a; s.f = g; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, o := range db.Objects() {
		kinds[o.Name()] = o.Kind()
	}
	if kinds["g"] != "global" || kinds["fn"] != "func" || kinds["loc"] != "local" || kinds["S.f"] != "field" {
		t.Errorf("kinds = %v", kinds)
	}
	loc := db.Lookup("loc")[0]
	if loc.FuncName() != "fn" {
		t.Errorf("FuncName = %q", loc.FuncName())
	}
	if !strings.Contains(loc.Pos(), "t.c:") {
		t.Errorf("Pos = %q", loc.Pos())
	}
	var invalid Object
	if invalid.Valid() {
		t.Error("zero Object is valid")
	}
}

func TestStatsTotal(t *testing.T) {
	db, err := CompileSource("t.c", "int x, y, *p; void m(void) { x = y; p = &x; y = *p; *p = x; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Total() != st.Simple+st.Base+st.Store+st.Copy+st.Load || st.Total() != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkNilDatabase(t *testing.T) {
	if _, err := Link(nil); err == nil {
		t.Error("nil database accepted")
	}
}

func TestAblationOptionsAgree(t *testing.T) {
	src := `
int a, b, *p, *q, **pp;
void m(void) { p = &a; pp = &p; *pp = &b; q = *pp; }
`
	db, err := CompileSource("t.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := names(base.PointsToName("q"))
	variants := []*AnalyzeOptions{
		{NoCache: true},
		{NoCycleElim: true},
		{NoDemandLoad: true},
		{NoCache: true, NoCycleElim: true, NoDemandLoad: true},
	}
	for _, opts := range variants {
		an, err := db.AnalyzeCtx(context.Background(), opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		got := names(an.PointsToName("q"))
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%+v: pts(q) = %v, want %v", opts, got, want)
		}
	}
}

func TestContextSensitiveAPI(t *testing.T) {
	db, err := CompileSource("t.c", `
int g1, g2;
int *id(int *v) { return v; }
int *r1, *r2;
void m(void) {
	r1 = id(&g1);
	r2 = id(&g2);
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Insensitive baseline conflates the call sites.
	base, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(base.PointsToName("r1")); len(got) != 2 {
		t.Fatalf("baseline pts(r1) = %v", got)
	}
	cs := db.ContextSensitive(nil)
	an, err := cs.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(an.PointsToName("r1")); len(got) != 1 || got[0] != "g1" {
		t.Errorf("context-sensitive pts(r1) = %v", got)
	}
	if got := names(an.PointsToName("r2")); len(got) != 1 || got[0] != "g2" {
		t.Errorf("context-sensitive pts(r2) = %v", got)
	}
}

func TestOfflineVarSubAPI(t *testing.T) {
	db, err := CompileSource("t.c", `
int v;
int *p0, *p1, *p2;
void m(void) { p0 = &v; p1 = p0; p2 = p1; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, mapping := db.OfflineVarSub()
	if sub.Stats().Total() >= db.Stats().Total() {
		t.Errorf("no shrinkage: %d vs %d", sub.Stats().Total(), db.Stats().Total())
	}
	an, err := sub.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p2 := db.Lookup("p2")[0]
	rep := mapping.Map(p2)
	got := names(an.PointsTo(rep))
	if len(got) != 1 || got[0] != "v" {
		t.Errorf("pts(map(p2)) = %v via %s", got, rep.Name())
	}
	// Mapping an invalid object yields an invalid object.
	if mapping.Map(Object{}).Valid() {
		t.Error("invalid object mapped to valid")
	}
}
