package incr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cla/internal/checks"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/linker"
	"cla/internal/obs"
	"cla/internal/prim"
)

// fuzzFile is one workspace file as the fuzzer edits it: a prefix of
// blank lines (shifts every line below), the original text, an #if 0
// block whose one-line body the fuzzer rewrites, the facts added so far,
// the unit's store fact and a run of comments appended without a
// newline (shifts no line).
type fuzzFile struct {
	prefix, base string
	dead         string
	facts        []string
	store        string
	comments     string
}

func (f *fuzzFile) render() string {
	return f.prefix + f.base + "#if 0\nint *fz_dead" + f.dead + ";\n#endif\n" +
		strings.Join(f.facts, "") + f.store + f.comments
}

// checkCutoffs makes every compile that the frontend cuts off also
// compile in full, and fails t unless the two programs deep-equal and
// have equal digests. It returns the function that restores compileFn.
func checkCutoffs(t *testing.T) func() {
	compileFn = func(path string, dirs []string, opts frontend.Options, pre *frontend.Preambles, prev *unit) (*unit, error) {
		u, err := compileUnit(path, dirs, opts, pre, prev)
		if err == nil && u.cutOff(prev) {
			full, err := compileUnit(path, dirs, opts, nil, nil)
			if err != nil || !reflect.DeepEqual(full.prog, u.prog) || full.digest != u.digest {
				t.Errorf("%s: cut-off program differs from a full compile (%v)", path, err)
			}
		}
		return u, err
	}
	return func() { compileFn = compileUnit }
}

// fuzzFact is the k-th fact the fuzzer adds. Even facts have the edit
// loop's shape, a global and a pointer to it; odd ones add a function
// that links through fz_shared, or, every fourth fact, one that points
// the widely read fz_hub at a new object (fuzzHubBase), so the warm
// solve's region is every reader.
func fuzzFact(k int) string {
	switch {
	case k%2 == 0:
		return fmt.Sprintf("int fz_g%[1]d;\nint *fz_p%[1]d = &fz_g%[1]d;\n", k)
	case k%4 == 3:
		return fmt.Sprintf("extern int **fz_hub;\nint fz_g%[1]d, *fz_p%[1]d = &fz_g%[1]d;\nvoid fz_f%[1]d(void) { fz_hub = &fz_p%[1]d; }\n", k)
	}
	return fmt.Sprintf("extern int *fz_shared;\nint fz_g%[1]d, *fz_p%[1]d;\nvoid fz_f%[1]d(void) { fz_p%[1]d = &fz_g%[1]d; fz_shared = fz_p%[1]d; }\n", k)
}

// fuzzHubBase is main.c's widely read pointer: readers that copy it and
// readers that load through it.
const fuzzHubBase = "int **fz_hub;\nint **fz_c0, **fz_c1, **fz_c2, **fz_c3, *fz_r0, *fz_r1, *fz_r2, *fz_r3;\n" +
	"void fz_read(void) { fz_c0 = fz_hub; fz_c1 = fz_c0; fz_c2 = fz_c1; fz_c3 = fz_hub;\n" +
	"\tfz_r0 = *fz_hub; fz_r1 = *fz_c1; fz_r2 = *fz_c2; fz_r3 = fz_r0; }\n"

// armedCancel is a context that reports cancellation from the n-th
// Err call after it is armed on: the fuzz test arms it when a refresh's
// link returns, so the cancellation lands in that refresh's solve.
type armedCancel struct {
	context.Context
	armed atomic.Bool
	n     atomic.Int64
}

func (c *armedCancel) Err() error {
	if c.armed.Load() && c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cancelledUpdate runs p.Update(path) under a context cancelled at the
// n-th cancellation check after the link, which lands inside the solve,
// and requires it to fail with context.Canceled or succeed.
func cancelledUpdate(t *testing.T, p *Pipeline, path string, n int) {
	t.Helper()
	ctx := &armedCancel{Context: context.Background()}
	ctx.n.Store(int64(n))
	link := linkFn
	linkFn = func(prev *linker.Fold, units []*prim.Program, o *obs.Observer) (*linker.Fold, error) {
		f, err := link(prev, units, o)
		ctx.armed.Store(true)
		return f, err
	}
	defer func() { linkFn = link }()
	if _, _, err := p.Update(ctx, path); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled update: %v", err)
	}
}

// queryWhile queries every symbol of r from a few goroutines until done
// is closed, failing if any answer differs from what r answered before:
// an older generation stays valid, unchanged, while the next one solves
// in place on the solver it handed over.
func queryWhile(t *testing.T, r *Result, done <-chan struct{}) *sync.WaitGroup {
	want := make([][]prim.SymID, len(r.Prog.Syms))
	for i := range want {
		want[i] = slices.Clone(r.Res.PointsTo(prim.SymID(i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for i := range want {
					if got := r.Res.PointsTo(prim.SymID(i)); !slices.Equal(got, want[i]) {
						t.Errorf("generation %d: pts(%s) changed to %v while the next one solved", r.Gen, r.Prog.Syms[i].Name, got)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	return &wg
}

// fuzzStore is the k-th store fact of unit u: a new pointer to the kept
// object fz_kept, and a store through it, in a function whose name is
// fixed per unit. Replacing it drops a store, so the next solve cannot
// start warm.
func fuzzStore(u string, k int) string {
	return fmt.Sprintf("extern int *fz_kept;\nint fz_o%[1]d, **fz_q%[1]d = &fz_kept;\nvoid fz_st_%[2]s(void) { *fz_q%[1]d = &fz_o%[1]d; }\n",
		k, strings.TrimSuffix(u, ".c"))
}

// fuzzHeaderFact is the k-th rewrite of the shared header of the given
// kind: a new extern and a pointer to it (1); a macro that table.c
// expands (2); a typedef that table.c declares a variable with (3).
func fuzzHeaderFact(kind, k int) string {
	switch kind {
	case 1:
		return fmt.Sprintf("extern int *fz_x%[1]d;\nstatic int **fz_xp%[1]d = &fz_x%[1]d;\n", k)
	case 2:
		return fmt.Sprintf("static struct node *fz_m%[1]d;\n#undef FZ_MACRO\n#define FZ_MACRO (&fz_m%[1]d)\n", k)
	}
	return fmt.Sprintf("typedef struct node *fz_t%[1]d;\n#undef FZ_TYPE\n#define FZ_TYPE fz_t%[1]d\n", k)
}

// fuzzHeaderUses is table.c's use of the header's rewrites.
const fuzzHeaderUses = "#ifdef FZ_MACRO\nstruct node **fz_mu = FZ_MACRO;\n#endif\n#ifdef FZ_TYPE\nFZ_TYPE fz_tv = 0;\n#endif\n"

// analysisBytes renders everything a generation answers with: its
// digest, every points-to set and the full checks report.
func analysisBytes(t *testing.T, r *Result) string {
	t.Helper()
	rep, err := checks.Run(r.Prog, r.Res, checks.Options{Checks: checks.AllChecksAudited(), Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("digest %016x\npts %s\nchecks %s\n", r.Digest, fingerprint(r.Prog, r.Res), js)
}

// FuzzIncrEdits applies a random sequence of edits to a small workspace
// — add a fact, delete or replace the newest fact, set a unit's store
// fact, add a comment, shift lines, edit the shared header (shift it,
// or add a fact, an extern, a macro or a typedef to it) — and after
// each Update requires the incremental generation to answer byte-equal
// to a scratch Open of the same tree. It is the gate for every change to
// what the pipeline reuses, the warm start included: additions and the
// edit loop's replace solve warm, while a dropped store or function
// record, or a solver other than pre-transitive, falls back to scratch.
// The first byte picks the solver, whether the session runs over a unit
// store, the worker count and whether fact edits are first cancelled
// partway through their solve (then retried); a stored session starts from a reopen
// served from the generation the first session saved, so every edit
// starts from that snapshot and from units whose programs are decoded
// from the store only when a link needs them, while the scratch Open
// always compiles. Whenever a refresh spliced its link, the linked
// program and remap tables must deep-equal a fresh fold of the same
// units. Every Update runs while other goroutines query the previous
// generation, whose answers must not change. Every compile the frontend
// cuts off is also compiled in full, and the two must deep-equal
// (checkCutoffs); an edit that changes no token — a comment appended, a
// comment's text or an #if 0 body rewritten in place — must be cut off
// where the unit's previous compile is in memory. Inputs run up to 15
// edits, so one solver carries chains of warm generations.
func FuzzIncrEdits(f *testing.F) {
	f.Add([]byte{0, 0, 2, 3, 4})
	f.Add([]byte{1, 5, 2, 7, 12, 1, 6})
	f.Add([]byte{2, 0, 5, 10, 15, 1, 9, 4})
	f.Add([]byte{3, 4, 9, 14, 19, 3, 8})
	f.Add([]byte{4, 0, 1, 0, 1, 2, 2, 4, 4})
	f.Add([]byte{5, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{8, 5, 6, 4, 9, 2, 14})
	// Warm: the edit loop's add-then-replace, at -j 1, 2 and 8.
	f.Add([]byte{0, 0, 5, 5, 5})
	f.Add([]byte{10, 7, 12, 12})
	f.Add([]byte{20, 14, 19, 1})
	// Fallbacks: a replaced store fact drops a store; a replaced or
	// deleted function fact drops a function record; the worklist solver
	// never starts warm.
	f.Add([]byte{10, 6, 6, 13})
	f.Add([]byte{0, 2, 7, 12, 8})
	f.Add([]byte{1, 0, 5, 5, 6, 6})
	// Shared-header rewrites (a new extern, macro and typedef), which
	// replace the leading-include memo's entry, at -j 1, 2 and 8.
	f.Add([]byte{0, 11, 18, 25, 2})
	f.Add([]byte{11, 25, 18, 21, 11})
	f.Add([]byte{23, 18, 25, 4, 25})
	// Chains of warm generations on one solver: facts added to and
	// replaced in every unit, hub facts (every fourth) among them, with
	// a removal, at -j 1, 2 and 8.
	f.Add([]byte{0, 0, 7, 14, 21, 0, 5, 7, 12, 14, 5, 21, 1, 0})
	f.Add([]byte{10, 0, 0, 0, 0, 5, 5, 14, 14, 14, 19, 19, 7})
	f.Add([]byte{20, 14, 21, 0, 7, 19, 26, 5, 12, 0, 0, 0})
	// The same chains with each fact edit first cancelled partway
	// through its solve, then retried.
	f.Add([]byte{30, 0, 7, 14, 21, 0, 5, 7, 12, 14, 5, 21, 1, 0})
	f.Add([]byte{40, 0, 0, 0, 0, 5, 5, 14, 14, 14, 19, 19, 7})
	f.Add([]byte{50, 14, 21, 0, 7, 19, 26, 5, 12, 0, 0, 0})
	// Comment edits cut off (checkCutoffs): one after a fact edit on the
	// same unit, in-place rewrites of a comment's text and edits of an
	// #if 0 body, each on a unit that also changes otherwise.
	f.Add([]byte{0, 0, 2, 0, 2})
	f.Add([]byte{2, 9, 37, 7, 37, 65})
	f.Add([]byte{10, 58, 16, 44, 3, 58})
	solvers := []driver.Solver{
		driver.PreTransitive, driver.Worklist, driver.Steensgaard,
		driver.BitVector, driver.OneLevel,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 16 {
			t.Skip()
		}
		defer checkCutoffs(t)()
		dir := t.TempDir()
		files := map[string]*fuzzFile{}
		for name, content := range baseTree {
			files[name] = &fuzzFile{base: content}
		}
		files["main.c"].base += "int *fz_kept;\n" + fuzzHubBase
		files["table.c"].base += fuzzHeaderUses
		for name, ff := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(ff.render()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		units := []string{"count.c", "list.c", "main.c", "table.c"}
		cfg := testConfig(dir)
		cfg.Solver = solvers[int(data[0])%len(solvers)]
		cfg.Jobs = []int{1, 2, 8}[int(data[0])/10%3]
		cancel := data[0]/30%2 == 1
		stored := cfg
		if data[0]/5%2 == 1 {
			stored.CacheDir = t.TempDir()
			first, err := Open(context.Background(), stored)
			if err != nil {
				t.Fatal(err)
			}
			first.Close()
		}
		p, err := Open(context.Background(), stored)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if st := p.Current().Stats; stored.CacheDir != "" && (!st.Snapshot || st.StoreHits != len(units)) {
			t.Fatalf("reopen over the store: stats %+v, want the saved generation", st)
		}
		for k, b := range data[1:] {
			name := units[int(b/7)%len(units)]
			ff := files[name]
			switch b % 7 {
			case 0: // add a fact
				ff.facts = append(ff.facts, fuzzFact(k))
			case 1: // delete the newest fact, if any
				if len(ff.facts) > 0 {
					ff.facts = ff.facts[:len(ff.facts)-1]
				}
			case 2: // a comment appended, a comment's text or the #if 0 body rewritten: no token changes
				switch n := len(ff.comments); {
				case b/28%3 == 2:
					ff.dead = fmt.Sprint(k)
				case b/28%3 == 1 && n > 0:
					c := byte('a' + k%26)
					if ff.comments[2] == c {
						c++
					}
					ff.comments = "/*" + strings.Repeat(string(c), n-4) + "*/"
				default:
					ff.comments += fmt.Sprintf("/* fz %d */", k)
				}
			case 3:
				ff.prefix += "\n"
			case 4: // the shared header: shift it, add a fact to every includer, or rewrite it
				name, ff = "shared.h", files["shared.h"]
				switch kind := int(b/7) % 4; {
				case kind > 0:
					ff.facts = append(ff.facts, fuzzHeaderFact(kind, k))
				case k%2 == 0:
					ff.prefix += "\n"
				default:
					ff.facts = append(ff.facts, fmt.Sprintf("static struct node **fz_h%d = &head;\n", k))
				}
			case 5: // replace the newest fact with one of its shape under fresh names
				if n := len(ff.facts); n > 0 {
					ff.facts[n-1] = fuzzFact(2*len(data) + k*2 + strings.Count(ff.facts[n-1], "fz_f"))
				} else {
					ff.facts = append(ff.facts, fuzzFact(2*len(data)+k*2))
				}
			case 6: // store through a new pointer into the kept fz_kept
				ff.store = fuzzStore(name, k)
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(ff.render()), 0o644); err != nil {
				t.Fatal(err)
			}
			if cancel && (b%7 == 0 || b%7 == 5) {
				cancelledUpdate(t, p, path, int(b)%4)
			}
			done := make(chan struct{})
			readers := queryWhile(t, p.Current(), done)
			got, st, err := p.Update(context.Background(), path)
			close(done)
			readers.Wait()
			if err != nil {
				t.Fatalf("edit %d (%s): %v", k, name, err)
			}
			if b%7 == 2 && stored.CacheDir == "" && (st.Recompiled != 1 || st.CutOff != 1 || !st.SolveReused) {
				t.Fatalf("edit %d (%s): a comment edit refreshed with %+v, want one unit cut off", k, name, st)
			}
			if st.LinkSpliced {
				progs := make([]*prim.Program, len(p.link.units))
				for i, u := range p.link.units {
					progs[i] = u.prog
				}
				want, err := linker.Relink(nil, progs)
				if err != nil || !reflect.DeepEqual(got.Linked.Canonical(), want.Prog.Canonical()) || !reflect.DeepEqual(p.link.fold.Remaps, want.Remaps) {
					t.Fatalf("edit %d (%s): spliced link differs from the fold of its units (fold error %v)", k, name, err)
				}
			}
			scratch, err := Open(context.Background(), cfg)
			if err != nil {
				t.Fatalf("edit %d: scratch open: %v", k, err)
			}
			if g, w := analysisBytes(t, got), analysisBytes(t, scratch.Current()); g != w {
				t.Fatalf("edit %d (%s): incremental generation differs from scratch:\n%s\nvs\n%s", k, name, g, w)
			}
		}
	})
}
