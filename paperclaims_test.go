package cla

// Tests that pin the paper's qualitative claims at test scale, so a
// regression that silently destroys a reproduction target fails CI rather
// than only showing up in benchmark numbers.

import (
	"context"
	"testing"

	"cla/internal/bench"
	"cla/internal/core"
	"cla/internal/gen"
	"cla/internal/pts"
	"cla/internal/pts/steens"
	"cla/internal/pts/worklist"
)

const claimScale = 0.1

func claimWorkload(t *testing.T, name string) *bench.Workload {
	t.Helper()
	p, ok := gen.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	w, err := bench.BuildWorkload(p, claimScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Claim (Section 4, Table 3): demand loading reads only a fraction of the
// database, and the discard strategy keeps only complex assignments in
// core.
func TestClaimDemandLoading(t *testing.T) {
	w := claimWorkload(t, "gcc")
	res, err := core.Solve(pts.NewMemSource(w.FieldBased), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if m.Loaded >= m.InFile {
		t.Errorf("loaded %d of %d: demand loading broken", m.Loaded, m.InFile)
	}
	if float64(m.Loaded) > 0.7*float64(m.InFile) {
		t.Errorf("loaded fraction %d/%d exceeds the paper's shape (~30-45%%)",
			m.Loaded, m.InFile)
	}
	if m.InCore >= m.Loaded {
		t.Errorf("in-core %d >= loaded %d: discard strategy broken", m.InCore, m.Loaded)
	}
}

// Claim (Table 4): field-independent analysis produces far more relations
// than field-based on struct-heavy code.
func TestClaimFieldBasedBeatsFieldIndependent(t *testing.T) {
	w := claimWorkload(t, "gimp")
	fb, err := core.Solve(pts.NewMemSource(w.FieldBased), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fi, err := core.Solve(pts.NewMemSource(w.FieldIndependent), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rb, ri := fb.Metrics().Relations, fi.Metrics().Relations
	if ri < 2*rb {
		t.Errorf("field-independent relations %d not >> field-based %d", ri, rb)
	}
}

// Claim (Section 5): caching and cycle elimination together dominate every
// degraded configuration.
func TestClaimAblationOrdering(t *testing.T) {
	w := claimWorkload(t, "gimp")
	rows, err := bench.RunAblation(w)
	if err != nil {
		t.Fatal(err)
	}
	full := rows[0].Time
	for _, r := range rows[1:] {
		if r.Time < full {
			t.Errorf("config %q (%v) beat the full configuration (%v)",
				r.Config, r.Time, full)
		}
	}
	// At this scale the naive configuration must already be measurably
	// slower (the paper reports >50,000x at full gimp scale).
	if rows[3].Time < 2*full {
		t.Errorf("naive config only %.1fx slower; expected a clear gap",
			float64(rows[3].Time)/float64(full))
	}
}

// Claim (Sections 3/6): unification is less precise than subset analysis;
// the two subset solvers agree exactly.
func TestClaimPrecisionGap(t *testing.T) {
	w := claimWorkload(t, "vortex")
	sub, err := core.Solve(pts.NewMemSource(w.FieldBased), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wl, err := worklist.Solve(context.Background(), pts.NewMemSource(w.FieldBased))
	if err != nil {
		t.Fatal(err)
	}
	uni, err := steens.Solve(pts.NewMemSource(w.FieldBased))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Metrics().Relations != wl.Metrics().Relations {
		t.Errorf("subset solvers disagree: %d vs %d",
			sub.Metrics().Relations, wl.Metrics().Relations)
	}
	if uni.Metrics().Relations < 2*sub.Metrics().Relations {
		t.Errorf("unification relations %d not >> subset %d",
			uni.Metrics().Relations, sub.Metrics().Relations)
	}
}

// Claim (Table 2): the generated workloads carry the published assignment
// budgets for the exactly-budgeted kinds.
func TestClaimTable2Budgets(t *testing.T) {
	for _, name := range []string{"nethack", "vortex", "lucent"} {
		p, _ := gen.ProfileByName(name)
		w := claimWorkload(t, name)
		row := bench.Table2Row(w)
		scaled := p.Scale(claimScale)
		if row.Counts[1] != scaled.Base { // x = &y is budgeted exactly
			t.Errorf("%s: base = %d, budget %d", name, row.Counts[1], scaled.Base)
		}
	}
}
