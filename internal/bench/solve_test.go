package bench

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/prim"
	"cla/internal/pts"
)

// solveOutcome captures everything a consumer can observe from one
// solve: the points-to sets of every symbol, the rendered checks report
// and the call-graph shape derived from it.
type solveOutcome struct {
	sets      [][]prim.SymID
	report    string
	funcs     int
	sites     int
	relations int
	waves     int
}

func solveAt(t *testing.T, w *Workload, solver driver.Solver, jobs int) solveOutcome {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(w.FieldBased), solver, cfg, nil)
	if err != nil {
		t.Fatalf("%s -j%d: %v", solver, jobs, err)
	}
	m := res.Metrics()
	out := solveOutcome{
		sets:      make([][]prim.SymID, len(w.FieldBased.Syms)),
		relations: m.Relations,
		waves:     m.Waves,
	}
	for i := range out.sets {
		out.sets[i] = res.PointsTo(prim.SymID(i))
	}
	rep, err := checks.Run(w.FieldBased, res, checks.Options{Jobs: jobs})
	if err != nil {
		t.Fatalf("checks %s -j%d: %v", solver, jobs, err)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out.report = buf.String()
	out.funcs = len(rep.Graph.Funcs)
	out.sites = len(rep.Graph.Sites)
	return out
}

// TestWaveDeterminismAllWorkloads pins the acceptance bar of the
// pre-transitive wave fixpoint across every Table 2 workload: the
// points-to sets, the call graph and the rendered checks report must be
// identical at -j 1 (sequential reference), -j 2 and -j 8, and -j 1 must
// not take the wave path at all.
func TestWaveDeterminismAllWorkloads(t *testing.T) {
	ws, err := BuildAll(0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		want := solveAt(t, w, driver.PreTransitive, 1)
		if want.waves != 0 {
			t.Errorf("%s: -j1 took the wave path (%d waves)", w.Profile.Name, want.waves)
		}
		for _, jobs := range []int{2, 8} {
			got := solveAt(t, w, driver.PreTransitive, jobs)
			if !reflect.DeepEqual(want.sets, got.sets) {
				t.Errorf("%s: points-to sets differ at -j%d vs -j1", w.Profile.Name, jobs)
			}
			if want.funcs != got.funcs || want.sites != got.sites {
				t.Errorf("%s: call graph differs at -j%d (funcs %d/%d sites %d/%d)",
					w.Profile.Name, jobs, want.funcs, got.funcs, want.sites, got.sites)
			}
			if want.report != got.report {
				t.Errorf("%s: checks report differs at -j%d vs -j1", w.Profile.Name, jobs)
			}
		}
	}
}

// TestRunSolveSweep pins which fixpoint each -j setting takes: -j 1 is
// the sequential solve and takes no waves, the pre-transitive solver
// takes the wave path at -j 2 and -j 8 while the worklist solver stays
// sequential, and every setting derives the same non-empty relation set.
func TestRunSolveSweep(t *testing.T) {
	w := smallWorkload(t, "burlap")
	for _, solver := range []driver.Solver{driver.PreTransitive, driver.Worklist} {
		want := solveAt(t, w, solver, 1)
		for _, jobs := range []int{1, 2, 8} {
			got := want
			if jobs != 1 {
				got = solveAt(t, w, solver, jobs)
			}
			if !reflect.DeepEqual(want.sets, got.sets) {
				t.Errorf("%s -j%d not identical to -j1", solver, jobs)
			}
			if got.relations == 0 {
				t.Errorf("%s -j%d: no relations", solver, jobs)
			}
			waves := jobs > 1 && solver == driver.PreTransitive
			if !waves && got.waves != 0 {
				t.Errorf("%s -j%d took the wave path (%d waves)", solver, jobs, got.waves)
			} else if waves && got.waves == 0 {
				t.Errorf("%s -j%d missed the wave path", solver, jobs)
			}
		}
	}
}
