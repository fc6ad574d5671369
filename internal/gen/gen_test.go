package gen

import (
	"context"
	"strings"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/prim"
	"cla/internal/pts"
)

func TestProfilesPresent(t *testing.T) {
	names := []string{"nethack", "burlap", "vortex", "emacs", "povray", "gcc", "gimp", "lucent"}
	for _, n := range names {
		if _, ok := ProfileByName(n); !ok {
			t.Errorf("profile %s missing", n)
		}
	}
	if _, ok := ProfileByName("quake"); ok {
		t.Error("unknown profile found")
	}
}

func TestScale(t *testing.T) {
	p, _ := ProfileByName("gcc")
	s := p.Scale(0.1)
	if s.Vars < p.Vars/11 || s.Vars > p.Vars/9 {
		t.Errorf("scaled vars = %d", s.Vars)
	}
	if s.Files < 1 || s.Funcs < s.Files {
		t.Errorf("files=%d funcs=%d", s.Files, s.Funcs)
	}
	// Scaling never zeroes a non-zero budget.
	tiny := p.Scale(0.00001)
	if tiny.Simple == 0 || tiny.Base == 0 {
		t.Errorf("tiny scale lost budgets: %+v", tiny)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("nethack")
	p = p.Scale(0.05)
	c1 := Generate(p, 42)
	c2 := Generate(p, 42)
	if len(c1.Files) != len(c2.Files) {
		t.Fatal("file counts differ")
	}
	for name, src := range c1.Files {
		if c2.Files[name] != src {
			t.Fatalf("file %s differs between runs", name)
		}
	}
	c3 := Generate(p, 43)
	same := true
	for name, src := range c1.Files {
		if c3.Files[name] != src {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical code")
	}
}

func TestGeneratedCodeCompiles(t *testing.T) {
	for _, base := range Table2 {
		p := base.Scale(0.02)
		code := Generate(p, 1)
		units := code.Units()
		if len(units) != p.Files {
			t.Fatalf("%s: units = %d, want %d", p.Name, len(units), p.Files)
		}
		prog, err := driver.Compile(context.Background(), units, code.Loader(), frontend.Options{}, 0, nil)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		if len(prog.Assigns) == 0 {
			t.Fatalf("%s: no assignments", p.Name)
		}
	}
}

func TestGeneratedCountsApproximateProfile(t *testing.T) {
	p, _ := ProfileByName("vortex")
	p = p.Scale(0.1)
	code := Generate(p, 7)
	prog, err := driver.Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := prog.CountByKind()
	// The generator spends explicit budgets; allow generous tolerance for
	// pool-miss skips and call/definition overheads.
	within := func(got, want int, loFrac, hiFrac float64) bool {
		return float64(got) >= float64(want)*loFrac && float64(got) <= float64(want)*hiFrac
	}
	if !within(counts[prim.Simple], p.Simple, 0.5, 1.6) {
		t.Errorf("simple = %d, budget %d", counts[prim.Simple], p.Simple)
	}
	if !within(counts[prim.Base], p.Base, 0.5, 1.6) {
		t.Errorf("base = %d, budget %d", counts[prim.Base], p.Base)
	}
	if !within(counts[prim.StoreInd], p.Store, 0.4, 1.8) {
		t.Errorf("store = %d, budget %d", counts[prim.StoreInd], p.Store)
	}
	if !within(counts[prim.LoadInd], p.Load, 0.4, 1.8) {
		t.Errorf("load = %d, budget %d", counts[prim.LoadInd], p.Load)
	}
}

func TestGeneratedCodeAnalyzes(t *testing.T) {
	p, _ := ProfileByName("burlap")
	p = p.Scale(0.05)
	code := Generate(p, 3)
	prog, err := driver.Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(pts.NewMemSource(prog), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if m.PointerVars == 0 || m.Relations == 0 {
		t.Errorf("no points-to facts on generated code: %+v", m)
	}
}

func TestGeneratedFieldModesDiffer(t *testing.T) {
	p, _ := ProfileByName("povray")
	p = p.Scale(0.05)
	code := Generate(p, 11)
	fb, err := driver.Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{Mode: frontend.FieldBased}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := driver.Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{Mode: frontend.FieldIndependent}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.Solve(pts.NewMemSource(fb), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ri, err := core.Solve(pts.NewMemSource(fi), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Field-independent conflates fields, producing more relations per
	// variable on struct-heavy code (the Table 4 effect).
	mb, mi := rb.Metrics(), ri.Metrics()
	if mb.Relations == 0 || mi.Relations == 0 {
		t.Fatalf("degenerate: fb=%+v fi=%+v", mb, mi)
	}
	t.Logf("field-based relations=%d field-independent relations=%d", mb.Relations, mi.Relations)
}

func TestHeaderGuard(t *testing.T) {
	p, _ := ProfileByName("nethack")
	code := Generate(p.Scale(0.01), 5)
	hdr := code.Files["defs.h"]
	if !strings.Contains(hdr, "#ifndef GEN_DEFS_H") {
		t.Error("header lacks include guard")
	}
	if code.TotalLines() == 0 {
		t.Error("no lines generated")
	}
}

func TestIndirectCallsGenerated(t *testing.T) {
	p, _ := ProfileByName("emacs") // highest IndirectFrac
	p = p.Scale(0.1)
	code := Generate(p, 9)
	found := false
	for name, src := range code.Files {
		if strings.HasSuffix(name, ".c") && strings.Contains(src, "fptr") {
			found = true
		}
	}
	if !found {
		t.Error("no function-pointer usage generated")
	}
}
