package cla

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
)

const obsSrc = `
int g;
int *p;
int **q;
int *r;
void f(void) {
	p = &g;
	q = &p;
	r = *q;
	*q = r;
	p = r;
}
`

// TestObserverStats attaches one observer across compile and analyze and
// checks that Stats surfaces phases, counters and (for file-backed runs)
// demand-load accounting.
func TestObserverStats(t *testing.T) {
	ob := NewObserver()
	db, err := CompileSource("obs.c", obsSrc, &Options{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "obs.cla")
	if err := db.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeFileCtx(context.Background(), path, &AnalyzeOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if got := an.PointsToName("p"); len(got) != 1 || got[0].Name() != "g" {
		t.Fatalf("PointsToName(p) = %v, want [g]", got)
	}

	st := an.Stats()
	names := map[string]bool{}
	for _, ph := range st.Phases {
		names[ph.Name] = true
		if ph.Duration < 0 {
			t.Errorf("phase %s has negative duration", ph.Name)
		}
	}
	if !names["compile obs.c"] || !names["analyze"] {
		t.Fatalf("missing expected phases, got %v", st.Phases)
	}
	if st.Counters["solver.pointer_vars"] == 0 {
		t.Errorf("solver.pointer_vars counter missing: %v", st.Counters)
	}
	if !st.DemandLoaded {
		t.Fatal("DemandLoaded = false for AnalyzeFileCtx run")
	}
	if st.Load.EntriesLoaded == 0 || st.Load.BytesLoaded == 0 {
		t.Errorf("load accounting empty: %+v", st.Load)
	}
	if st.Load.EntriesLoaded > st.Load.TotalEntries {
		t.Errorf("loaded %d entries of %d total", st.Load.EntriesLoaded, st.Load.TotalEntries)
	}
	if st.Counters["load.entries.loaded"] != st.Load.EntriesLoaded {
		t.Errorf("counter/load mismatch: %d vs %d",
			st.Counters["load.entries.loaded"], st.Load.EntriesLoaded)
	}

	var buf bytes.Buffer
	if err := ob.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON: %s", buf.Bytes())
	}
}

// TestNilObserverIsNoOp runs the same pipeline with no observer and with
// a nil *Observer value; both must work and report empty run stats.
func TestNilObserverIsNoOp(t *testing.T) {
	var ob *Observer
	db, err := CompileSource("obs.c", obsSrc, &Options{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), &AnalyzeOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	st := an.Stats()
	if len(st.Phases) != 0 || st.Counters != nil {
		t.Fatalf("nil observer recorded data: %+v", st)
	}
	if st.Metrics.PointerVars == 0 {
		t.Error("metrics should still be populated without an observer")
	}
	var buf bytes.Buffer
	if err := ob.WriteTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteTrace wrote %d bytes, err %v", buf.Len(), err)
	}
}
