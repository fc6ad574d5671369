package driver

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/objfile"
	"cla/internal/obs"
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
