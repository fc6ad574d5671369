package driver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
)

func TestCompileUnitsAndAnalyze(t *testing.T) {
	files := cpp.MapLoader{
		"a.c": "int g; int *p;\nvoid f(void) { p = &g; }\n",
		"b.c": "extern int *p; int *q;\nvoid h(void) { q = p; }\n",
	}
	prog, err := Compile(context.Background(), []string{"a.c", "b.c"}, files, frontend.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []Solver{PreTransitive, Worklist, Steensgaard} {
		res, err := Analyze(context.Background(), pts.NewMemSource(prog), solver, core.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		q := prog.SymIDByName("q")
		if len(res.PointsTo(q)) == 0 {
			t.Errorf("%v: pts(q) empty", solver)
		}
	}
}

func TestParseSolver(t *testing.T) {
	cases := map[string]Solver{
		"pretrans": PreTransitive, "pre-transitive": PreTransitive, "core": PreTransitive,
		"worklist": Worklist, "andersen-closed": Worklist,
		"steens": Steensgaard, "steensgaard": Steensgaard, "unify": Steensgaard,
	}
	for name, want := range cases {
		got, err := ParseSolver(name)
		if err != nil || got != want {
			t.Errorf("ParseSolver(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSolver("magic"); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestSolverString(t *testing.T) {
	if PreTransitive.String() != "pre-transitive" || Worklist.String() != "worklist" ||
		Steensgaard.String() != "steensgaard" {
		t.Error("solver names wrong")
	}
}

func TestAnalyzeUnknownSolver(t *testing.T) {
	prog, err := Compile(context.Background(), []string{"a.c"}, cpp.MapLoader{"a.c": "int x;"}, frontend.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(context.Background(), pts.NewMemSource(prog), Solver(99), core.DefaultConfig(), nil); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestCompileUnitsBadFile(t *testing.T) {
	if _, err := Compile(context.Background(), []string{"missing.c"}, cpp.MapLoader{}, frontend.Options{}, 0, nil); err == nil {
		t.Error("missing unit accepted")
	}
}

func TestCompileUnitsErrorNamesUnit(t *testing.T) {
	files := cpp.MapLoader{
		"good.c": "int g;\n",
		"bad.c":  "int broken(",
	}
	_, err := Compile(context.Background(), []string{"good.c", "bad.c"}, files, frontend.Options{}, 0, nil)
	if err == nil {
		t.Fatal("bad unit accepted")
	}
	if !strings.Contains(err.Error(), "bad.c") {
		t.Errorf("error does not name the failing unit: %v", err)
	}
}

func TestCompileUnitsErrorIsLowestUnit(t *testing.T) {
	// With several failures the first unit's error must win regardless of
	// worker scheduling, matching a sequential compile loop.
	files := cpp.MapLoader{"z.c": "int ok;\n"}
	units := []string{"a-missing.c", "z.c", "b-missing.c"}
	for _, jobs := range []int{1, 4} {
		_, err := Compile(context.Background(), units, files, frontend.Options{}, jobs, nil)
		if err == nil {
			t.Fatal("missing units accepted")
		}
		if !strings.Contains(err.Error(), "a-missing.c") {
			t.Errorf("jobs=%d: want first unit's error, got: %v", jobs, err)
		}
	}
}

func TestParallelCompileMatchesSerial(t *testing.T) {
	// The compile fan-out must give the database of a sequential
	// compile and link at every worker count.
	p, _ := gen.ProfileByName("burlap")
	code := gen.Generate(p.Scale(0.03), 2)
	dump := func(jobs int) []byte {
		prog, err := Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := objfile.Write(&buf, prog); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := dump(1)
	for _, jobs := range []int{2, 8} {
		if !bytes.Equal(want, dump(jobs)) {
			t.Errorf("jobs=%d: database differs from sequential compile", jobs)
		}
	}
}

// TestLinkTraceShapeAcrossJobs: the one traced link entry records the
// same spans and counters at every worker count through Compile — one
// "link" span on the main track and link.units, next to the per-unit
// compile spans — and links the same program as the untraced path.
func TestLinkTraceShapeAcrossJobs(t *testing.T) {
	p, _ := gen.ProfileByName("burlap")
	code := gen.Generate(p.Scale(0.03), 2)
	plain, err := Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := objfile.Write(&want, plain); err != nil {
		t.Fatal(err)
	}
	shape := func(o *obs.Observer) string {
		var b strings.Builder
		for _, e := range o.Events() {
			fmt.Fprintf(&b, "%d %s\n", e.Track, e.Name)
		}
		for _, m := range o.Counters() {
			fmt.Fprintf(&b, "%s=%d\n", m.Name, m.Value)
		}
		return b.String()
	}
	var base string
	for _, jobs := range []int{1, 2, 8} {
		o := obs.New()
		prog, err := Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, jobs, o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var got bytes.Buffer
		if err := objfile.Write(&got, prog); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("jobs=%d: traced link differs from the untraced one", jobs)
		}
		if n := o.OpenSpans(); n != 0 {
			t.Fatalf("jobs=%d: %d spans left open", jobs, n)
		}
		s := shape(o)
		if base == "" {
			base = s
		} else if s != base {
			t.Errorf("jobs=%d span shape differs:\n%s\nvs\n%s", jobs, s, base)
		}
	}
	wantUnits := fmt.Sprintf("link.units=%d\n", len(code.Units()))
	if strings.Count(base, "0 link\n") != 1 || !strings.Contains(base, wantUnits) {
		t.Errorf("unexpected shape, want one link span and %q:\n%s", wantUnits, base)
	}
}

// TestCompileMatchesSeparateCompiles: Compile, whose units share one
// leading-include memo, links the program that separate compiles
// without a memo link, at -j 1 and 8, on every Table 2 profile, gimp@0.2
// and the examples corpus; the shared header is preprocessed once.
func TestCompileMatchesSeparateCompiles(t *testing.T) {
	type input struct {
		name   string
		units  []string
		loader cpp.Loader
	}
	var inputs []input
	add := func(name string, p gen.Profile) {
		code := gen.Generate(p, 1)
		inputs = append(inputs, input{name, code.Units(), code.Loader()})
	}
	for _, p := range gen.Table2 {
		add(p.Name, p.Scale(0.02))
	}
	gimp, _ := gen.ProfileByName("gimp")
	add("gimp@0.2", gimp.Scale(0.2))
	corpus, err := filepath.Glob("../../examples/corpus/*.c")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("corpus: %v", err)
	}
	inputs = append(inputs, input{"corpus", corpus, cpp.OSLoader{}})
	for _, in := range inputs {
		progs := make([]*prim.Program, len(in.units))
		for i, u := range in.units {
			if progs[i], err = frontend.CompileFile(u, in.loader, frontend.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := linker.Link(progs)
		if err != nil {
			t.Fatal(err)
		}
		var wb bytes.Buffer
		if err := objfile.Write(&wb, want); err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []int{1, 8} {
			o := obs.New()
			got, err := Compile(context.Background(), in.units, in.loader, frontend.Options{}, jobs, o)
			if err != nil {
				t.Fatal(err)
			}
			var gb bytes.Buffer
			if err := objfile.Write(&gb, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) || got.Digest() != want.Digest() {
				t.Errorf("%s, jobs=%d: program differs from separate compiles", in.name, jobs)
			}
			if in.name != "corpus" {
				if h, m := o.Counter("compile.preamble_hits").Value(), o.Counter("compile.preamble_misses").Value(); h != int64(len(in.units)-1) || m != 1 {
					t.Errorf("%s, jobs=%d: %d hits, %d misses; want %d and 1", in.name, jobs, h, m, len(in.units)-1)
				}
			}
		}
	}
}

// TestCompilePreamblePerDirectory: units in two directories reach one
// header after probing their own directory, so each directory gets its
// own memo key: one miss per directory at any -j and unit order.
func TestCompilePreamblePerDirectory(t *testing.T) {
	loader := cpp.MapLoader{
		"defs.h": "typedef int T;\nextern T *g;\n",
		"a/x.c":  "#include \"defs.h\"\nT ax; void fa(void) { g = &ax; }\n",
		"a/y.c":  "#include \"defs.h\"\nT ay; void ga(void) { g = &ay; }\n",
		"b/x.c":  "#include \"defs.h\"\nT bx; void fb(void) { g = &bx; }\n",
		"b/y.c":  "#include \"defs.h\"\nT by; void gb(void) { g = &by; }\n",
	}
	units := []string{"a/x.c", "b/x.c", "a/y.c", "b/y.c"}
	for _, jobs := range []int{1, 8} {
		o := obs.New()
		if _, err := Compile(context.Background(), units, loader, frontend.Options{}, jobs, o); err != nil {
			t.Fatal(err)
		}
		if h, m := o.Counter("compile.preamble_hits").Value(), o.Counter("compile.preamble_misses").Value(); h != 2 || m != 2 {
			t.Errorf("jobs=%d: %d hits, %d misses; want 2 and 2", jobs, h, m)
		}
	}
}

// TestAnalyzeHeapSamplerPanic: a panic in the heap sampler fails the
// analyze it watches with a *parallel.PanicError carrying the panic's
// value and stack, for every solver, and the process goes on.
func TestAnalyzeHeapSamplerPanic(t *testing.T) {
	defer func(w func(*obs.Gauge, time.Duration) func() (any, []byte)) { watchHeap = w }(watchHeap)
	watchHeap = func(*obs.Gauge, time.Duration) func() (any, []byte) {
		return func() (any, []byte) { return "sampler fault", []byte("sampler stack") }
	}
	files := cpp.MapLoader{"a.c": "int g; int *p;\nvoid f(void) { p = &g; }\n"}
	prog, err := Compile(context.Background(), []string{"a.c"}, files, frontend.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []Solver{PreTransitive, Worklist, Steensgaard, BitVector, OneLevel} {
		res, err := Analyze(context.Background(), pts.NewMemSource(prog), solver, core.DefaultConfig(), obs.New())
		var pe *parallel.PanicError
		if !errors.As(err, &pe) || pe.Value != "sampler fault" || string(pe.Stack) != "sampler stack" || res != nil {
			t.Fatalf("%v: %v, %v", solver, res, err)
		}
	}
}
