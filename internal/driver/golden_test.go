package driver

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/prim"
	"cla/internal/pts"
)

var updateGolden = flag.Bool("update", false, "rewrite the points-to golden digests")

// pointsToByName renders prog's solved points-to relation independently
// of symbol ids: one line per symbol with a non-empty set, its qualified
// name and its members' qualified names sorted, and the lines sorted.
// Two programs that differ only in which symbols they carry or in their
// order render alike exactly when their sets are equal by name.
func pointsToByName(t *testing.T, prog *prim.Program) string {
	t.Helper()
	res, err := Analyze(context.Background(), pts.NewMemSource(prog), PreTransitive, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	name := func(id prim.SymID) string {
		s := prog.Sym(id)
		if s.FuncName != "" {
			return s.FuncName + "::" + s.Name
		}
		return s.Name
	}
	var lines []string
	for i := range prog.Syms {
		set := res.PointsTo(prim.SymID(i))
		if len(set) == 0 {
			continue
		}
		members := make([]string, len(set))
		for j, z := range set {
			members[j] = name(z)
		}
		slices.Sort(members)
		lines = append(lines, name(prim.SymID(i))+" -> "+strings.Join(members, " "))
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestPointsToGolden pins a digest of the name-normalized points-to
// relation of a generated gimp tree and of examples/corpus, so a change
// to what a unit's program carries (which symbols, in which order) must
// leave every set equal by name. Regenerate with -update only for a
// change that means to alter the sets.
func TestPointsToGolden(t *testing.T) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.05), 1)
	corpus, err := filepath.Glob("../../examples/corpus/*.c")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("corpus units: %v %v", corpus, err)
	}
	inputs := []struct {
		name   string
		units  []string
		loader cpp.Loader
	}{
		{"gimp@0.05", code.Units(), code.Loader()},
		{"corpus", corpus, cpp.OSLoader{Dirs: []string{"../../examples/corpus"}}},
	}
	var got strings.Builder
	for _, in := range inputs {
		prog, err := Compile(context.Background(), in.units, in.loader, frontend.Options{}, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		rel := pointsToByName(t, prog)
		fmt.Fprintf(&got, "%s %d %x\n", in.name, strings.Count(rel, "\n"), sha256.Sum256([]byte(rel)))
	}
	golden := filepath.Join("testdata", "pointsto.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if string(want) != got.String() {
		t.Errorf("points-to digests differ from %s:\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}
