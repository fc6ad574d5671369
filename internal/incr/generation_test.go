package incr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cla/internal/claerr"
	"cla/internal/extmodel"
	"cla/internal/obs"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/snapfile"
)

// savedGenerations lists the saved generations in the store at cache.
func savedGenerations(t *testing.T, cache string) []string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(cache, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// storedWorkspace writes baseTree, opens it over a fresh store and
// closes the pipeline, so its generation is saved. It returns the
// config (observed by o) and the cold open's generation.
func storedWorkspace(t *testing.T, o *obs.Observer) (Config, *Result) {
	t.Helper()
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = t.TempDir()
	cold, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold.Close()
	if snaps := savedGenerations(t, cfg.CacheDir); len(snaps) != 1 {
		t.Fatalf("store holds saved generations %v after Close, want 1", snaps)
	}
	cfg.Obs = o
	return cfg, cold.Current()
}

// TestReopenServesSavedGeneration: a reopen over an unchanged tree is
// read from the saved generation, decoding no object file and running
// no link or solve, and answers as the cold open did. A comment edit
// then reuses that fixpoint with still no object decoded; a fact edit
// decodes the other units, solves from scratch, equals a scratch open,
// and its generation replaces the saved one.
func TestReopenServesSavedGeneration(t *testing.T) {
	o := obs.New()
	cfg, cold := storedWorkspace(t, o)
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Current()
	if st := r.Stats; !st.Snapshot || !st.Changed || st.StoreHits != 4 || st.Recompiled != 0 || st.Link != 0 || st.Solve != 0 {
		t.Fatalf("reopen stats = %+v, want the saved generation with 4 store hits", st)
	}
	if r.Linked != nil || r.Digest != cold.Digest || r.Gen != 1 {
		t.Fatalf("reopen: Linked %v, digest %016x (cold %016x), gen %d", r.Linked != nil, r.Digest, cold.Digest, r.Gen)
	}
	if c, w := analysisBytes(t, cold), analysisBytes(t, r); c != w {
		t.Fatalf("saved generation differs from the cold open:\n%s\nvs\n%s", w, c)
	}
	counter := func(name string) int64 { return o.Counter(name).Value() }
	if counter("incr.solve_snapshot") != 1 || counter("incr.units_decoded") != 0 || o.Histogram("incr.refresh.solve").Count() != 0 {
		t.Fatalf("reopen counters: solve_snapshot %d, units_decoded %d, solve samples %d",
			counter("incr.solve_snapshot"), counter("incr.units_decoded"), o.Histogram("incr.refresh.solve").Count())
	}

	_, st, err := p.Update(context.Background(), edit(t, cfg.Dir, "count.c", baseTree["count.c"]+"/* note */"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.SolveReused || st.Recompiled != 1 || counter("incr.units_decoded") != 0 {
		t.Fatalf("comment edit: stats %+v, %d units decoded; want the fixpoint reused and none decoded", st, counter("incr.units_decoded"))
	}

	got, st, err := p.Update(context.Background(), edit(t, cfg.Dir, "count.c", baseTree["count.c"]+"int extra, *ep = &extra;\n"))
	if err != nil {
		t.Fatal(err)
	}
	if st.SolveReused || st.Snapshot || st.SolveWarm || st.Recompiled != 1 || st.Reused != 3 {
		t.Fatalf("fact edit: stats %+v, want a scratch solve with 1 unit recompiled", st)
	}
	if counter("incr.units_decoded") != 3 || counter("incr.solve_scratch") != 1 {
		t.Fatalf("fact edit: %d units decoded, %d scratch solves; want 3 and 1", counter("incr.units_decoded"), counter("incr.solve_scratch"))
	}
	if g, w := fingerprint(got.Prog, got.Res), scratchFingerprint(t, cfg); g != w {
		t.Fatalf("fact edit after the reopen: fingerprint %s, scratch %s", g, w)
	}
	// The generation the pipeline read is removed by the save that
	// replaces it, even when its file looks newer.
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(p.store.generationPath(p.key, cold.Digest), future, future); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if n := o.Histogram("incr.snapshot.write").Count(); n != 1 || counter("incr.snapshot.write_errors") != 0 {
		t.Fatalf("%d saves timed, %d failed; want the fact edit's one save", n, counter("incr.snapshot.write_errors"))
	}
	snaps := savedGenerations(t, cfg.CacheDir)
	if want := p.store.generationPath(p.key, got.Digest); len(snaps) != 1 || snaps[0] != want {
		t.Fatalf("after the fact edit the store holds %v, want only %s", snaps, want)
	}
}

// TestSnapshotReadTimed: a reopen served from the saved generation
// records the read as one snapshot.read span and one
// incr.snapshot.read observation, and its trace encodes.
func TestSnapshotReadTimed(t *testing.T) {
	o := obs.New()
	cfg, _ := storedWorkspace(t, o)
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.Current().Stats.Snapshot {
		t.Fatalf("reopen stats %+v, want the saved generation", p.Current().Stats)
	}
	if n, s := o.Histogram("incr.snapshot.read").Count(), spanCount(o, "snapshot.read"); n != 1 || s != 1 {
		t.Fatalf("reopen recorded %d incr.snapshot.read observations and %d snapshot.read spans, want 1 and 1", n, s)
	}
	var trace bytes.Buffer
	if err := o.WriteTrace(&trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !strings.Contains(trace.String(), `"snapshot.read"`) {
		t.Fatal("trace has no snapshot.read span")
	}
}

// TestObjectDeletedAfterSnapshotReopen: a unit's object file removed
// between a reopen served from the saved generation and the first edit
// that links is compiled again, not an error.
func TestObjectDeletedAfterSnapshotReopen(t *testing.T) {
	cfg, _ := storedWorkspace(t, nil)
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.Current().Stats.Snapshot {
		t.Fatalf("reopen stats = %+v, want the saved generation", p.Current().Stats)
	}
	objs, _ := filepath.Glob(filepath.Join(cfg.CacheDir, "*.clo"))
	if len(objs) != 4 {
		t.Fatalf("store holds %d objects, want 4", len(objs))
	}
	if err := os.Remove(objs[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objs[1], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, st, err := p.Update(context.Background(), edit(t, cfg.Dir, "main.c", baseTree["main.c"]+"int extra, *ep = &extra;\n"))
	if err != nil {
		t.Fatalf("fact edit over a store missing an object: %v", err)
	}
	if st.Recompiled < 2 || st.Recompiled > 3 || st.Recompiled+st.Reused != 4 {
		t.Fatalf("fact edit: stats %+v, want main.c and the units of the two broken objects recompiled", st)
	}
	if g, w := fingerprint(got.Prog, got.Res), scratchFingerprint(t, cfg); g != w {
		t.Fatalf("fact edit: fingerprint %s, scratch %s", g, w)
	}
}

// TestHostileSavedGeneration: a saved generation that is truncated,
// bit-flipped, names another generation than its file, or was solved by
// another solver or under another extern model is refused with a typed
// snapfile error; the reopen then decodes, links and solves, and
// answers as the cold open did.
func TestHostileSavedGeneration(t *testing.T) {
	o := obs.New()
	cfg, cold := storedWorkspace(t, o)
	path := savedGenerations(t, cfg.CacheDir)[0]
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resave := func(s snapfile.Snapshot) []byte {
		t.Helper()
		s.Prog, s.Res = cold.Prog, cold.Res
		if err := snapfile.Save(path, &s); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	flipped := func(at int) []byte {
		b := append([]byte(nil), good...)
		b[at] ^= 0x10
		return b
	}
	const (
		corrupt = iota
		stale
	)
	cases := []struct {
		name string
		data []byte
		want int
	}{
		{"truncated", good[:len(good)/2], corrupt},
		{"bit-flipped symbols", flipped(len(good) / 3), corrupt},
		{"bit-flipped sets", flipped(len(good) - 200), corrupt},
		{"another generation", resave(snapfile.Snapshot{Solver: "pre-transitive", ExtModel: "unsound", Generation: cold.Digest + 1}), stale},
		{"another solver", resave(snapfile.Snapshot{Solver: "worklist", ExtModel: "unsound", Generation: cold.Digest}), stale},
		{"another extern model", resave(snapfile.Snapshot{Solver: "pre-transitive", ExtModel: extmodel.Blanket.String(), Generation: cold.Digest}), stale},
	}
	want := analysisBytes(t, cold)
	for i, c := range cases {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := OpenStore(cfg.CacheDir)
		_, err := st.loadGeneration(filepath.Base(path)[:16], cold.Digest, "pre-transitive", "unsound")
		var ce *snapfile.CorruptError
		if c.want == corrupt && !errors.As(err, &ce) || c.want == stale && !errors.Is(err, claerr.ErrStale) {
			t.Fatalf("%s: loadGeneration error %v, want a typed %s error", c.name, err, []string{"corrupt", "stale"}[c.want])
		}
		p, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: reopen: %v", c.name, err)
		}
		r := p.Current()
		if r.Stats.Snapshot || r.Stats.StoreHits != 4 || r.Linked == nil {
			t.Fatalf("%s: reopen stats %+v, want a link and solve over 4 store hits", c.name, r.Stats)
		}
		if got := analysisBytes(t, r); got != want {
			t.Fatalf("%s: reopen differs from the cold open:\n%s\nvs\n%s", c.name, got, want)
		}
		if n := o.Counter("incr.snapshot.rejected").Value(); n != int64(i+1) {
			t.Fatalf("%s: incr.snapshot.rejected = %d, want %d", c.name, n, i+1)
		}
		p.Close()
	}
}

// TestCloseDuringWrite runs refreshes and queries while Close saves a
// generation (run it under -race). Close returns only once the store
// holds a saved generation, every generation handed out stays readable
// after it, and a reopen after a last Close is served from the saved
// generation and equals a scratch open.
func TestCloseDuringWrite(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = t.TempDir()
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen []*Result
	)
	wg.Add(3)
	go func() { // refresh: fact edits
		defer wg.Done()
		for k := 0; k < 6; k++ {
			src := baseTree["count.c"]
			for j := 0; j <= k; j++ {
				src += "int x" + string(rune('a'+j)) + ", *px" + string(rune('a'+j)) + " = &x" + string(rune('a'+j)) + ";\n"
			}
			r, _, err := p.Update(context.Background(), edit(t, dir, "count.c", src))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			seen = append(seen, r)
			mu.Unlock()
		}
	}()
	go func() { // query the current generation
		defer wg.Done()
		for k := 0; k < 50; k++ {
			r := p.Current()
			for s := range r.Prog.Syms {
				r.Res.PointsTo(prim.SymID(s))
			}
		}
	}()
	go func() { // close mid-stream
		defer wg.Done()
		p.Close()
	}()
	wg.Wait()
	p.Close()
	for _, r := range seen {
		for s := range r.Prog.Syms {
			r.Res.PointsTo(prim.SymID(s))
		}
	}
	if snaps := savedGenerations(t, cfg.CacheDir); len(snaps) != 1 {
		t.Fatalf("store holds saved generations %v after Close, want 1", snaps)
	}
	again, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !again.Current().Stats.Snapshot {
		t.Fatalf("reopen after Close: stats %+v, want the saved generation", again.Current().Stats)
	}
	if g, w := fingerprint(again.Current().Prog, again.Current().Res), scratchFingerprint(t, cfg); g != w {
		t.Fatalf("reopen after Close: fingerprint %s, scratch %s", g, w)
	}
}

// TestSavedGenerationRetention: a save removes the key's generations
// written before it and temporary files older than tempAge, but keeps
// a newer generation and a fresh temporary file, which another writer
// sharing the store may have just renamed or still be writing, and the
// files of other keys.
func TestSavedGenerationRetention(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = t.TempDir()
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	files := map[string]time.Time{
		p.key + "-0000000000000001.snap":         now.Add(-time.Minute), // older generation
		p.key + "-0000000000000002.snap":         now.Add(time.Minute),  // newer generation
		p.key + "-0000000000000003.snap.tmp1234": now,                   // save under way
		p.key + "-0000000000000004.snap.tmp5678": now.Add(-2 * tempAge), // abandoned save
		"0123456789abcdef-0000000000000005.snap": now.Add(-time.Minute), // another key
	}
	for name, mtime := range files {
		path := filepath.Join(cfg.CacheDir, name)
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	want := []string{
		"0123456789abcdef-0000000000000005.snap",
		p.key + "-0000000000000002.snap",
		p.key + "-0000000000000003.snap.tmp1234",
		filepath.Base(p.store.generationPath(p.key, p.Current().Digest)),
	}
	var got []string
	entries, err := os.ReadDir(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") || strings.Contains(e.Name(), ".snap.tmp") {
			got = append(got, e.Name())
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("store holds %v after the save, want %v", got, want)
	}
}

// TestSavedGenerationMetrics pins what a generation served from the
// store reports as its solver metrics: the counts its program and
// relation determine (pointer variables, relations, assignments in the
// file), equal to those of the warm solve that produced it, and no
// trace counter of that solve.
func TestSavedGenerationMetrics(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = t.TempDir()
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, st, err := p.Update(context.Background(), edit(t, dir, "count.c", baseTree["count.c"]+"int extra, *ep = &extra;\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.SolveWarm {
		t.Fatalf("fact edit stats %+v, want a warm solve", st)
	}
	p.Close()
	again, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	r := again.Current()
	if !r.Stats.Snapshot {
		t.Fatalf("reopen stats %+v, want the saved generation", r.Stats)
	}
	wm := warm.Res.Metrics()
	want := pts.Metrics{PointerVars: wm.PointerVars, Relations: wm.Relations, InFile: wm.InFile}
	if got := r.Res.Metrics(); got != want {
		t.Fatalf("served generation reports metrics %+v, want %+v", got, want)
	}
}

// TestSavedGenerationIsTreeOnly: the file Close saves depends only on
// the tree. A session that reached the tree through warm fact edits and
// one that opened it from scratch save byte-identical generations.
func TestSavedGenerationIsTreeOnly(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		dir := t.TempDir()
		writeTree(t, dir, baseTree)
		cfg := testConfig(dir)
		cfg.Jobs = jobs
		cfg.CacheDir = t.TempDir()
		p, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			fact := fmt.Sprintf("int g%[1]d, *p%[1]d = &g%[1]d;\n", k)
			if _, st, err := p.Update(context.Background(), edit(t, dir, "count.c", baseTree["count.c"]+fact)); err != nil || !st.SolveWarm {
				t.Fatalf("jobs %d edit %d: stats %+v, %v; want a warm solve", jobs, k, st, err)
			}
		}
		p.Close()
		scratch := cfg
		scratch.CacheDir = t.TempDir()
		q, err := Open(context.Background(), scratch)
		if err != nil {
			t.Fatal(err)
		}
		q.Close()
		saved := func(dir string) []byte {
			t.Helper()
			names, err := filepath.Glob(filepath.Join(dir, "*.snap"))
			if err != nil || len(names) != 1 {
				t.Fatalf("saved generations in %s: %v, %v", dir, names, err)
			}
			b, err := os.ReadFile(names[0])
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if !bytes.Equal(saved(cfg.CacheDir), saved(scratch.CacheDir)) {
			t.Fatalf("jobs %d: the edited session and the scratch open saved different generations", jobs)
		}
	}
}
