package incr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/srchash"
)

// A miniature workspace: four units, one header shared by exactly two of
// them (list.c and table.c), one private header, so header edits have a
// precise expected blast radius.
var baseTree = map[string]string{
	"shared.h": `
void *malloc(unsigned long);
struct node { struct node *next; int value; };
extern struct node *head;
struct node *push(struct node *h, int v);
`,
	"priv.h": `
extern int counter;
`,
	"list.c": `
#include "shared.h"
struct node *head;
struct node *push(struct node *h, int v) {
	struct node *n = (struct node *)malloc(sizeof(struct node));
	n->next = h;
	n->value = v;
	return n;
}
`,
	"table.c": `
#include "shared.h"
struct node *bucket;
void put(int v) { bucket = push(bucket, v); }
`,
	"count.c": `
#include "priv.h"
int counter;
int *counter_addr(void) { return &counter; }
`,
	"main.c": `
extern void put(int v);
int main(void) { put(1); return 0; }
`,
}

func writeTree(t testing.TB, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func edit(t testing.TB, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testConfig(dir string) Config {
	return Config{
		Dir:    dir,
		Solver: driver.PreTransitive,
		Core:   core.DefaultConfig(),
		Jobs:   2,
	}
}

// fingerprint renders a result as sorted "pointer -> {objects}" lines
// keyed by symbol name and location, so it compares across independently
// built programs, and digests them.
func fingerprint(p *prim.Program, res pts.Result) string {
	name := func(id prim.SymID) string {
		s := &p.Syms[id]
		return fmt.Sprintf("%s@%s:%d/%s", s.Name, s.Loc.File, s.Loc.Line, s.FuncName)
	}
	var lines []string
	for id := range p.Syms {
		set := res.PointsTo(prim.SymID(id))
		if len(set) == 0 {
			continue
		}
		names := make([]string, len(set))
		for i, o := range set {
			names[i] = name(o)
		}
		sort.Strings(names)
		lines = append(lines, name(prim.SymID(id))+" -> {"+strings.Join(names, ", ")+"}")
	}
	sort.Strings(lines)
	return srchash.String(strings.Join(lines, "\n"))
}

// dropGenerations closes the pipelines, so their saved generations are
// on disk, then removes every saved generation from the store in cache:
// the next Open decodes the units' object files, links and solves,
// instead of reading the solved generation and no object file.
func dropGenerations(t testing.TB, cache string, ps ...*Pipeline) {
	t.Helper()
	for _, p := range ps {
		p.Close()
	}
	snaps, _ := filepath.Glob(filepath.Join(cache, "*.snap"))
	for _, s := range snaps {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
}

// scratchFingerprint builds the same analysis from scratch through the
// non-incremental driver reference path.
func scratchFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	units, err := driver.Units(cfg.Dir)
	if err != nil {
		t.Fatalf("scratch units: %v", err)
	}
	loader := cpp.OSLoader{Dirs: append([]string{cfg.Dir}, cfg.Includes...)}
	prog, err := driver.Compile(context.Background(), units, loader, cfg.Frontend, cfg.Jobs, nil)
	if err != nil {
		t.Fatalf("scratch compile: %v", err)
	}
	aprog, _ := extmodel.ApplyClone(prog, cfg.Model)
	ccfg := cfg.Core
	ccfg.Jobs = cfg.Jobs
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(aprog), cfg.Solver, ccfg, nil)
	if err != nil {
		t.Fatalf("scratch analyze: %v", err)
	}
	return fingerprint(aprog, res)
}

func TestOpenMatchesScratch(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	// Files that are not .c units are not compiled.
	writeTree(t, dir, map[string]string{"notes.txt": "not C"})
	cfg := testConfig(dir)
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Current()
	if res.Gen != 1 {
		t.Fatalf("first generation = %d, want 1", res.Gen)
	}
	if res.Stats.Units != 4 || res.Stats.Recompiled != 4 {
		t.Fatalf("stats = %+v, want 4 units all recompiled", res.Stats)
	}
	if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
		t.Fatalf("open fingerprint %s != scratch %s", got, want)
	}
	for _, bad := range []string{t.TempDir(), filepath.Join(dir, "missing")} {
		if _, err := Open(context.Background(), testConfig(bad)); err == nil {
			t.Errorf("Open(%s) accepted a directory with no units", bad)
		}
	}
}

func TestNoopRefreshKeepsGeneration(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	first := p.Current()
	res, st, err := p.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res != first {
		t.Fatal("no-op refresh built a new Result")
	}
	if st.Changed || st.Recompiled != 0 || st.Reused != 4 || !st.SolveReused {
		t.Fatalf("no-op stats = %+v", st)
	}
}

// TestSharedHeaderRecompilesExactlyItsUsers is the issue's e2e case: an
// edit to a header included by two of four units must recompile exactly
// those two (observed through the incr.* counters), and the incremental
// result must be byte-identical to a from-scratch analysis.
func TestSharedHeaderRecompilesExactlyItsUsers(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	o := obs.New()
	cfg.Obs = o
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	before := o.Counter("incr.units_recompiled").Value()

	hdr := edit(t, dir, "shared.h", `
void *malloc(unsigned long);
struct node { struct node *next; int value; };
extern struct node *head;
extern struct node *tail;
struct node *push(struct node *h, int v);
`)
	res, st, err := p.Update(context.Background(), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != gen1.Gen+1 {
		t.Fatalf("generation = %d, want %d", res.Gen, gen1.Gen+1)
	}
	if st.Recompiled != 2 || st.Reused != 2 {
		t.Fatalf("stats = %+v, want exactly the 2 header users recompiled", st)
	}
	if got := o.Counter("incr.units_recompiled").Value() - before; got != 2 {
		t.Fatalf("incr.units_recompiled delta = %d, want 2", got)
	}
	if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
		t.Fatalf("incremental fingerprint %s != scratch %s", got, want)
	}
	// The old generation is untouched and still answers queries.
	if gen1.Gen != 1 || len(gen1.Res.PointsTo(0)) != len(gen1.Res.PointsTo(0)) {
		t.Fatal("previous generation mutated")
	}
}

// TestIdentityAcrossSolversAndJobs pins the acceptance criterion: after
// an edit, the incremental result is byte-identical to a from-scratch
// build for every solver at -j 1 and -j 8.
func TestIdentityAcrossSolversAndJobs(t *testing.T) {
	solvers := []driver.Solver{
		driver.PreTransitive, driver.Worklist, driver.Steensgaard,
		driver.BitVector, driver.OneLevel,
	}
	for _, solver := range solvers {
		for _, jobs := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v-j%d", solver, jobs), func(t *testing.T) {
				dir := t.TempDir()
				writeTree(t, dir, baseTree)
				cfg := testConfig(dir)
				cfg.Solver = solver
				cfg.Jobs = jobs
				cfg.Model = extmodel.Blanket
				p, err := Open(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				changed := edit(t, dir, "list.c", `
#include "shared.h"
struct node *head;
struct node *spare;
struct node *push(struct node *h, int v) {
	struct node *n = (struct node *)malloc(sizeof(struct node));
	n->next = h;
	n->value = v;
	spare = n;
	return n;
}
`)
				res, _, err := p.Update(context.Background(), changed)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
					t.Fatalf("incremental %s != scratch %s", got, want)
				}
			})
		}
	}
}

// TestCommentEditReusesFixpoint: a comment edit that shifts no line
// leaves every unit digest as it was, so the refresh keeps the
// generation before linking — no link span, no analyze span.
func TestCommentEditReusesFixpoint(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	o := obs.New()
	cfg.Obs = o
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	links, solves := spanCount(o, "link"), spanCount(o, "analyze")
	if links != 1 || solves != 1 {
		t.Fatalf("open recorded %d link and %d analyze spans, want 1 each", links, solves)
	}
	// Same tokens on the same lines: the unit recompiles (its hash
	// changed) but its program digest — and so the fixpoint and the
	// generation — must not.
	changed := edit(t, dir, "main.c", `
extern void put(int v); /* callback into table.c */
int main(void) { put(1); return 0; }
`)
	res, st, err := p.Update(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if res != gen1 {
		t.Fatalf("generation bumped to %d on a semantics-preserving edit", res.Gen)
	}
	if st.Recompiled != 1 || !st.SolveReused || st.Changed || st.Link != 0 || st.Solve != 0 {
		t.Fatalf("stats = %+v, want 1 recompile with fixpoint reuse", st)
	}
	if l, s := spanCount(o, "link"), spanCount(o, "analyze"); l != links || s != solves {
		t.Fatalf("comment edit recorded %d link and %d analyze spans", l-links, s-solves)
	}
}

// spanCount counts the completed spans named name.
func spanCount(o *obs.Observer, name string) int {
	n := 0
	for _, e := range o.Events() {
		if e.Name == name {
			n++
		}
	}
	return n
}

// TestLineShiftingCommentEditMatchesScratch: a comment that shifts lines
// moves every location below it, and locations render in lint and
// dependence output — so the edit must build a new generation, equal to
// a from-scratch analysis line numbers and all.
func TestLineShiftingCommentEditMatchesScratch(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	// count.c has no heap site, whose name would carry the line too.
	changed := edit(t, dir, "count.c", "/* a comment\n   two lines long */\n"+baseTree["count.c"])
	res, st, err := p.Update(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != gen1.Gen+1 || !st.Changed || st.SolveReused {
		t.Fatalf("generation %d, stats %+v: want a new generation", res.Gen, st)
	}
	if res.Digest == gen1.Digest {
		t.Fatal("line-shifting edit kept the solve digest")
	}
	if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
		t.Fatalf("incremental fingerprint %s != scratch %s", got, want)
	}
	if fingerprint(res.Prog, res.Res) == fingerprint(gen1.Prog, gen1.Res) {
		t.Fatal("shifted locations did not reach the points-to rendering")
	}
	scratch, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != scratch.Current().Digest {
		t.Fatalf("incremental digest %016x != scratch %016x", res.Digest, scratch.Current().Digest)
	}
}

// TestReopenOverStoreKeepsDigest: units served from the store carry the
// digest recorded when they were compiled, so a reopen names the same
// generation as the cold open and answers byte-equal to it (points-to
// sets and checks report), although its decoded units list their
// assignments in another order. A manifest without that digest is a
// miss.
func TestReopenOverStoreKeepsDigest(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = t.TempDir()
	cold, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	warm, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if st := warm.Current().Stats; st.StoreHits != 4 || st.Recompiled != 0 {
		t.Fatalf("reopen stats = %+v, want all 4 units from the store", st)
	}
	if c, w := analysisBytes(t, cold.Current()), analysisBytes(t, warm.Current()); c != w {
		t.Fatalf("reopen over the store differs from the cold open:\n%s\nvs\n%s", w, c)
	}

	manifests, _ := filepath.Glob(filepath.Join(cfg.CacheDir, "*.manifest"))
	for _, m := range manifests {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		_, deps, _ := strings.Cut(string(b), "\n")
		if err := os.WriteFile(m, []byte(deps), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	again, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.Current().Stats; st.StoreHits != 0 || st.Recompiled != 4 {
		t.Fatalf("digest-less manifests: stats = %+v, want all 4 units recompiled", st)
	}
	if c, a := analysisBytes(t, cold.Current()), analysisBytes(t, again.Current()); c != a {
		t.Fatalf("recompiled session differs from the cold open:\n%s\nvs\n%s", a, c)
	}
}

func TestAddAndRemoveUnit(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	extra := edit(t, dir, "extra.c", `
int extra_global;
int *extra_addr(void) { return &extra_global; }
`)
	res, st, err := p.Update(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if st.Units != 5 || st.Recompiled != 1 {
		t.Fatalf("stats after add = %+v", st)
	}
	found := false
	for i := range res.Prog.Syms {
		if res.Prog.Syms[i].Name == "extra_global" {
			found = true
		}
	}
	if !found {
		t.Fatal("added unit's global missing from new generation")
	}
	if err := os.Remove(extra); err != nil {
		t.Fatal(err)
	}
	res, st, err = p.Update(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if st.Units != 4 {
		t.Fatalf("stats after remove = %+v", st)
	}
	for i := range res.Prog.Syms {
		if res.Prog.Syms[i].Name == "extra_global" {
			t.Fatal("removed unit's global still present")
		}
	}
}

func TestCompileErrorKeepsServingOldGeneration(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	broken := edit(t, dir, "count.c", `#include "priv.h"
int counter = {{{;
`)
	if _, _, err := p.Update(context.Background(), broken); err == nil {
		t.Fatal("expected a compile error")
	}
	if p.Current() != gen1 {
		t.Fatal("failed refresh replaced the current generation")
	}
	fixed := edit(t, dir, "count.c", baseTree["count.c"])
	res, _, err := p.Update(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != gen1.Gen && res.Gen != gen1.Gen+1 {
		t.Fatalf("unexpected generation %d after recovery", res.Gen)
	}
}

// TestCompilePanicKeepsServingOldGeneration: a compile worker that
// panics fails the refresh with the contained panic, and the previous
// generation keeps serving.
func TestCompilePanicKeepsServingOldGeneration(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	for _, jobs := range []int{1, 4} {
		cfg := testConfig(dir)
		cfg.Jobs = jobs
		p, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen1 := p.Current()
		compileFn = func(path string, dirs []string, opts frontend.Options, pre *frontend.Preambles, prev *unit) (*unit, error) {
			if filepath.Base(path) == "table.c" {
				panic("frontend fault")
			}
			return compileUnit(path, dirs, opts, pre, prev)
		}
		hdr := edit(t, dir, "shared.h", baseTree["shared.h"]+"extern int more;\n")
		_, _, err = p.Update(context.Background(), hdr)
		compileFn = compileUnit
		var pe *parallel.PanicError
		if !errors.As(err, &pe) || pe.Value != "frontend fault" {
			t.Fatalf("jobs=%d: err = %v, want the worker's contained panic", jobs, err)
		}
		if p.Current() != gen1 {
			t.Fatalf("jobs=%d: failed refresh replaced the current generation", jobs)
		}
		res, _, err := p.Update(context.Background(), hdr)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
			t.Fatalf("jobs=%d: recovered fingerprint %s != scratch %s", jobs, got, want)
		}
		edit(t, dir, "shared.h", baseTree["shared.h"])
	}
}

// TestRefreshPanicKeepsServingOldGeneration: a panic on the refresh
// goroutine itself, outside the worker pool (here in the link), fails
// the refresh with a *parallel.PanicError carrying the stack, and the
// previous generation keeps serving.
func TestRefreshPanicKeepsServingOldGeneration(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	linkFn = func(prev *linker.Fold, units []*prim.Program, o *obs.Observer) (*linker.Fold, error) {
		panic("link fault")
	}
	changed := edit(t, dir, "count.c", baseTree["count.c"]+"int *more = &counter;\n")
	_, _, err = p.Update(context.Background(), changed)
	linkFn = linker.LinkTraced
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || pe.Value != "link fault" || !bytes.Contains(pe.Stack, []byte("TestRefreshPanicKeepsServingOldGeneration")) {
		t.Fatalf("err = %v, want the link's contained panic with its stack", err)
	}
	if p.Current() != gen1 || p.Generation() != gen1.Gen {
		t.Fatal("failed refresh replaced the current generation")
	}
	res, _, err := p.Update(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != gen1.Gen+1 {
		t.Fatalf("recovered generation %d, want %d", res.Gen, gen1.Gen+1)
	}
	if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
		t.Fatalf("recovered fingerprint %s != scratch %s", got, want)
	}
}

func TestStoreWarmStartAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	cache := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = cache
	p1, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := p1.Current().Stats; st.Recompiled != 4 {
		t.Fatalf("first session stats = %+v", st)
	}
	p2, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := p2.Current().Stats
	if st.Recompiled != 0 || st.StoreHits != 4 {
		t.Fatalf("second session stats = %+v, want all 4 units from the store", st)
	}
	if got, want := fingerprint(p2.Current().Prog, p2.Current().Res), fingerprint(p1.Current().Prog, p1.Current().Res); got != want {
		t.Fatalf("store-served fingerprint %s != parsed %s", got, want)
	}

	// The compile options are part of the entry name: another struct mode
	// must not be served the field-based entries.
	fi := cfg
	fi.Frontend.Mode = frontend.FieldIndependent
	p3, err := Open(context.Background(), fi)
	if err != nil {
		t.Fatal(err)
	}
	if st := p3.Current().Stats; st.StoreHits != 0 || st.Recompiled != 4 {
		t.Fatalf("field-independent session stats = %+v, want no store hits", st)
	}

	// A corrupt object behind a still-matching manifest is recompiled
	// once the open needs it, which it does without a saved generation.
	dropGenerations(t, cache, p1, p2, p3)
	objs, _ := filepath.Glob(filepath.Join(cache, "*.clo"))
	if len(objs) != 8 {
		t.Fatalf("store holds %d objects, want 8 (4 units x 2 modes)", len(objs))
	}
	for _, obj := range objs {
		if err := os.WriteFile(obj, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p4, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := p4.Current().Stats; st.StoreHits != 0 || st.Recompiled != 4 {
		t.Fatalf("corrupt-store session stats = %+v, want all 4 units recompiled", st)
	}
	if got, want := fingerprint(p4.Current().Prog, p4.Current().Res), fingerprint(p1.Current().Prog, p1.Current().Res); got != want {
		t.Fatalf("recompiled fingerprint %s != parsed %s", got, want)
	}

	// So is a well-formed object whose function record names a parameter
	// outside its symbol table. p4 rewrote its own mode's four entries;
	// the other mode's still hold garbage.
	var rewritten int
	for _, obj := range objs {
		r, err := objfile.Open(obj)
		if err != nil {
			continue
		}
		prog, err := r.Program()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		prog.Funcs = append(prog.Funcs, prim.FuncRecord{Func: 0, Ret: prim.NoSym, Params: []prim.SymID{999}})
		if err := objfile.WriteFile(obj, prog); err != nil {
			t.Fatal(err)
		}
		rewritten++
	}
	if rewritten != 4 {
		t.Fatalf("%d store objects decode after the recompile, want 4", rewritten)
	}
	dropGenerations(t, cache, p4)
	p5, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p5.Close()
	if st := p5.Current().Stats; st.StoreHits != 0 || st.Recompiled != 4 {
		t.Fatalf("bad-parameter store session stats = %+v, want all 4 units recompiled", st)
	}
	if got, want := fingerprint(p5.Current().Prog, p5.Current().Res), fingerprint(p1.Current().Prog, p1.Current().Res); got != want {
		t.Fatalf("recompiled fingerprint %s != parsed %s", got, want)
	}
}

// TestStoreRefillsPreviousVersion: a store filled with object files of
// the previous objfile.Version, as written before unit programs carried
// only the header entries they use, misses on every unit, is refilled
// at the current version and never serves the stale entry. As a control,
// the same stale program at the current version is served, so the miss
// is the version's doing. Every open runs without a saved generation,
// so it reads the object files.
func TestStoreRefillsPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = t.TempDir()
	open := func() *Result {
		t.Helper()
		p, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dropGenerations(t, cfg.CacheDir, p)
		return p.Current()
	}
	fresh := open()
	want := fingerprint(fresh.Prog, fresh.Res)
	objs, _ := filepath.Glob(filepath.Join(cfg.CacheDir, "*.clo"))
	if len(objs) != 4 {
		t.Fatalf("store holds %d objects, want 4", len(objs))
	}
	// stale rewrites every entry's object as the stored program plus an
	// unused extern and a fact pointing symbol 0 at it, at version v.
	stale := func(v uint32) {
		t.Helper()
		for _, obj := range objs {
			r, err := objfile.Open(obj)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := r.Program()
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			ext := prog.AddSym(prim.Symbol{Name: "stale_extern", Kind: prim.SymGlobal})
			prog.AddAssign(prim.Assign{Kind: prim.Base, Dst: 0, Src: ext, Strength: prim.Strong})
			var b bytes.Buffer
			if err := objfile.Write(&b, prog); err != nil {
				t.Fatal(err)
			}
			data := b.Bytes()
			binary.LittleEndian.PutUint32(data[4:], v)
			if err := os.WriteFile(obj, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	stale(objfile.Version)
	if got := open(); got.Stats.StoreHits != 4 || fingerprint(got.Prog, got.Res) == want {
		t.Fatalf("control: stats %+v; want the stale current-version entries served", got.Stats)
	}
	stale(objfile.Version - 1)
	got := open()
	if st := got.Stats; st.StoreHits != 0 || st.Recompiled != 4 {
		t.Fatalf("previous-version store: stats %+v, want all 4 units recompiled", st)
	}
	if g := fingerprint(got.Prog, got.Res); g != want {
		t.Fatalf("previous-version store served a stale entry: fingerprint %s, want %s", g, want)
	}
	again := open()
	if st := again.Stats; st.StoreHits != 4 || st.Recompiled != 0 {
		t.Fatalf("after the refill: stats %+v, want all 4 units from the store", st)
	}
	if g := fingerprint(again.Prog, again.Res); g != want {
		t.Fatalf("refilled store: fingerprint %s, want %s", g, want)
	}
}

// TestStoreKeyIncludesSearchPath: the same unit compiled against two
// include directories holding different versions of its header must not
// share a store entry, through the pipeline or through Store.Compile.
func TestStoreKeyIncludesSearchPath(t *testing.T) {
	root := t.TempDir()
	src, incA, incB := filepath.Join(root, "src"), filepath.Join(root, "A"), filepath.Join(root, "B")
	for _, d := range []string{src, incA, incB} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeTree(t, src, map[string]string{"u.c": "#include \"defs.h\"\nint *p;\nvoid f(void) { p = &G; }\n"})
	writeTree(t, incA, map[string]string{"defs.h": "int G;\n"})
	writeTree(t, incB, map[string]string{"defs.h": "int G, H;\nint *q = &H;\n"})
	cache := t.TempDir()

	cfg := testConfig(src)
	cfg.CacheDir = cache
	for _, inc := range []string{incA, incB} {
		cfg.Includes = []string{inc}
		p, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if st := p.Current().Stats; st.StoreHits != 0 {
			t.Fatalf("-I %s: stats = %+v, want a fresh compile", filepath.Base(inc), st)
		}
		if got, want := fingerprint(p.Current().Prog, p.Current().Res), scratchFingerprint(t, cfg); got != want {
			t.Fatalf("-I %s: fingerprint %s != scratch %s", filepath.Base(inc), got, want)
		}
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	unit := filepath.Join(src, "u.c")
	dump := func(p *prim.Program) []byte {
		var buf bytes.Buffer
		if err := objfile.Write(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, inc := range []string{incA, incB, incA} {
		dirs := []string{inc}
		got, err := st.Compile(unit, dirs, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := frontend.CompileFile(unit, cpp.OSLoader{Dirs: dirs}, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump(got), dump(want)) {
			t.Fatalf("Store.Compile under -I %s differs from a fresh compile", filepath.Base(inc))
		}
	}
}

func TestStaleProbe(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if stale, changed := p.Stale(); stale {
		t.Fatalf("fresh workspace reported stale: %v", changed)
	}
	hdr := edit(t, dir, "priv.h", "extern int counter; extern int other;\n")
	stale, changed := p.Stale()
	if !stale {
		t.Fatal("edited workspace reported clean")
	}
	found := false
	for _, c := range changed {
		if c == hdr {
			found = true
		}
	}
	if !found {
		t.Fatalf("changed set %v missing %s", changed, hdr)
	}
	if _, _, err := p.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stale, changed := p.Stale(); stale {
		t.Fatalf("refreshed workspace reported stale: %v", changed)
	}
}

func TestTrackedFilesCoversIncludeClosure(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := p.TrackedFiles()
	want := []string{"count.c", "list.c", "main.c", "priv.h", "shared.h", "table.c"}
	if len(got) != len(want) {
		t.Fatalf("tracked = %v, want %d files", got, len(want))
	}
	for i, name := range want {
		if filepath.Base(got[i]) != name {
			t.Fatalf("tracked[%d] = %s, want %s", i, got[i], name)
		}
	}
}

// watchOutcome is one WatchLoop callback.
type watchOutcome struct {
	res *Result
	err error
}

// startWatch runs WatchLoop over p's tracked files until the test ends,
// sending every callback on the returned channel.
func startWatch(t *testing.T, p *Pipeline, interval time.Duration) <-chan watchOutcome {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() { cancel(); <-done })
	got := make(chan watchOutcome, 64) // the loop need not wait for the test to read
	go func() {
		defer close(done)
		WatchLoop(ctx, p, p.TrackedFiles, interval, func(r *Result, _ RefreshStats, err error) {
			select {
			case got <- watchOutcome{r, err}:
			case <-ctx.Done():
			}
		})
	}()
	return got
}

// shadowCount is count.c edited so counter_addr returns another object:
// a change the analysis sees.
const shadowCount = `
#include "priv.h"
int counter;
int shadow;
int *counter_addr(void) { return &shadow; }
`

func TestWatchLoopPicksUpEdit(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := startWatch(t, p, 20*time.Millisecond)

	// mtime resolution can swallow an immediate rewrite; wait a tick.
	time.Sleep(30 * time.Millisecond)
	edit(t, dir, "count.c", shadowCount)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case oc := <-got:
			if oc.err != nil {
				t.Fatalf("watch refresh error: %v", oc.err)
			}
			if oc.res != nil && oc.res.Gen == 2 {
				return // the edit landed as a new generation
			}
		case <-deadline:
			t.Fatal("the watch loop never delivered the edit")
		}
	}
}

// An edit that lands after the pipeline builds but before the watch
// loop's first poll has no previous poll to differ from. The first poll
// compares against the stamps the pipeline's last refresh recorded, so
// it must find the edit.
func TestWatchLoopCatchesPreBaselineEdit(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Edit BEFORE the loop starts.
	edit(t, dir, "count.c", shadowCount)
	got := startWatch(t, p, 60*time.Millisecond)
	select {
	case oc := <-got:
		if oc.err != nil {
			t.Fatalf("watch refresh error: %v", oc.err)
		}
		if oc.res == nil || oc.res.Gen != 2 {
			t.Fatalf("catch-up result = %+v, want generation 2", oc.res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WatchLoop never caught up with the pre-baseline edit")
	}
}

// TestWatchLoopSyntaxErrorReportedOnce: a save with a syntax error fails
// its refresh once, and the loop does not retry it while the file stays
// as it is — each poll compares against the previous one — and the fix
// then lands as the next generation.
func TestWatchLoopSyntaxErrorReportedOnce(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	const interval = 20 * time.Millisecond
	got := startWatch(t, p, interval)

	time.Sleep(30 * time.Millisecond)
	edit(t, dir, "count.c", "int counter\nint *counter_addr(void) { return &counter; }\n")
	select {
	case oc := <-got:
		if oc.err == nil {
			t.Fatalf("syntax-error refresh succeeded: %+v", oc.res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the watch loop never reported the syntax error")
	}
	select {
	case oc := <-got:
		t.Fatalf("unchanged broken file refreshed again: %+v, %v", oc.res, oc.err)
	case <-time.After(6 * interval):
	}

	edit(t, dir, "count.c", shadowCount)
	select {
	case oc := <-got:
		if oc.err != nil || oc.res == nil || oc.res.Gen != 2 {
			t.Fatalf("fix = %+v, %v; want generation 2", oc.res, oc.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the watch loop never picked up the fix")
	}
}

// TestRefreshPhaseHistograms: every committed refresh records its hash
// and compile times, and one that links and solves its link and solve
// times, each in its own histogram beside incr.refresh; a comment edit,
// whose fixpoint is reused, records no link or solve sample.
func TestRefreshPhaseHistograms(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	o := obs.New()
	cfg.Obs = o
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]time.Duration{}
	add := func(st RefreshStats) {
		sums["hash"] += st.Hash
		sums["compile"] += st.Compile
		sums["link"] += st.Link
		sums["solve"] += st.Solve
	}
	add(p.Current().Stats)
	for _, e := range []struct {
		src    string
		reused bool
	}{
		{baseTree["count.c"] + "int extra, *ep = &extra;\n", false},
		{baseTree["count.c"] + "int extra, *ep = &extra;\n/* comment */\n", true},
	} {
		_, st, err := p.Update(context.Background(), edit(t, dir, "count.c", e.src))
		if err != nil || st.SolveReused != e.reused {
			t.Fatalf("edit: %+v, %v", st, err)
		}
		add(st)
	}
	for phase, want := range map[string]int64{"": 3, "hash": 3, "compile": 3, "link": 2, "solve": 2} {
		name := "incr.refresh"
		if phase != "" {
			name += "." + phase
		}
		h := o.Histogram(name)
		if h.Count() != want {
			t.Errorf("%s: %d samples, want %d", name, h.Count(), want)
		}
		if phase != "" && h.Sum() != int64(sums[phase]) {
			t.Errorf("%s: sum %d, want %d", name, h.Sum(), sums[phase])
		}
	}
}
