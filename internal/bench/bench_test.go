package bench

import (
	"bytes"
	"strings"
	"testing"

	"cla/internal/gen"
)

func smallWorkload(t *testing.T, name string) *Workload {
	t.Helper()
	p, ok := gen.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	w, err := BuildWorkload(p, 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorkload(t *testing.T) {
	w := smallWorkload(t, "vortex")
	if w.FieldBased == nil || w.FieldIndependent == nil {
		t.Fatal("databases missing")
	}
	if w.ObjectBytes == 0 {
		t.Error("no serialized size")
	}
	if len(w.FieldBased.Assigns) == 0 {
		t.Error("no assignments")
	}
}

func TestTable2RowAndFormat(t *testing.T) {
	w := smallWorkload(t, "nethack")
	row := Table2Row(w)
	if row.Name != "nethack" || row.Variables == 0 || row.SourceLines == 0 {
		t.Errorf("row = %+v", row)
	}
	var buf bytes.Buffer
	FormatTable2(&buf, []Row2{row})
	out := buf.String()
	if !strings.Contains(out, "nethack") || !strings.Contains(out, "x=&y") {
		t.Errorf("format:\n%s", out)
	}
}

func TestTable3RowAndFormat(t *testing.T) {
	w := smallWorkload(t, "burlap")
	row, err := Table3Row(w)
	if err != nil {
		t.Fatal(err)
	}
	if row.PointerVars == 0 || row.Relations == 0 {
		t.Errorf("row = %+v", row)
	}
	if row.Loaded == 0 || row.InFile == 0 || row.Loaded > row.InFile {
		t.Errorf("loading accounting wrong: %+v", row)
	}
	var buf bytes.Buffer
	FormatTable3(&buf, []Row3{row})
	if !strings.Contains(buf.String(), "burlap") {
		t.Errorf("format:\n%s", buf.String())
	}
}

func TestTable4RowShowsFieldEffect(t *testing.T) {
	w := smallWorkload(t, "povray")
	row, err := Table4Row(w)
	if err != nil {
		t.Fatal(err)
	}
	if row.FBRelations == 0 || row.FIRelations == 0 {
		t.Fatalf("row = %+v", row)
	}
	var buf bytes.Buffer
	FormatTable4(&buf, []Row4{row})
	if !strings.Contains(buf.String(), "field-independent") {
		t.Errorf("format:\n%s", buf.String())
	}
}

func TestAblationRowsComplete(t *testing.T) {
	w := smallWorkload(t, "gimp")
	rows, err := RunAblation(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The full configuration must see cache hits and unifications; the
	// naive one must see neither.
	if rows[0].Cache == 0 {
		t.Error("paper config has no cache hits")
	}
	if rows[3].Cache != 0 || rows[3].Unify != 0 {
		t.Errorf("naive config used optimizations: %+v", rows[3])
	}
	var buf bytes.Buffer
	FormatAblation(&buf, "gimp", rows)
	if !strings.Contains(buf.String(), "slowdown") {
		t.Errorf("format:\n%s", buf.String())
	}
}

func TestRunSolversAgreeOnRelationsOrdering(t *testing.T) {
	w := smallWorkload(t, "vortex")
	rows, err := RunSolvers(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]RowSolver{}
	for _, r := range rows {
		byName[r.Solver] = r
	}
	// The two subset-based solvers compute identical relation counts;
	// unification over-approximates (>=).
	if byName["pre-transitive"].Relations != byName["worklist"].Relations ||
		byName["worklist"].Relations != byName["bitvec"].Relations {
		t.Errorf("subset solvers disagree: %+v", byName)
	}
	if byName["steensgaard"].Relations < byName["pre-transitive"].Relations {
		t.Errorf("steensgaard under-approximates: %+v", byName)
	}
	if byName["one-level"].Relations < byName["pre-transitive"].Relations {
		t.Errorf("one-level under-approximates: %+v", byName)
	}
	var buf bytes.Buffer
	FormatSolvers(&buf, rows)
	if !strings.Contains(buf.String(), "steensgaard") {
		t.Errorf("format:\n%s", buf.String())
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtBytes(512); got != "512B" {
		t.Errorf("fmtBytes(512) = %q", got)
	}
	if got := fmtBytes(2048); got != "2.0KB" {
		t.Errorf("fmtBytes(2048) = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.0MB" {
		t.Errorf("fmtBytes(3MB) = %q", got)
	}
	if got := fmtCount(999); got != "999" {
		t.Errorf("fmtCount(999) = %q", got)
	}
	if got := fmtCount(15298); got != "15K" {
		t.Errorf("fmtCount(15298) = %q", got)
	}
}
