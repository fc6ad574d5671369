package incr

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cla/internal/obs"
)

// ownTree is baseTree in the layout where each unit that includes
// shared.h starts with its own header, which includes it: no two units
// share a leading include, so the memo keeps neither entry between
// refreshes and each compile fills its unit's entry again.
func ownTree() map[string]string {
	files := maps.Clone(baseTree)
	for _, u := range []string{"list", "table"} {
		files[u+".h"] = "#include \"shared.h\"\n"
		files[u+".c"] = strings.Replace(files[u+".c"], "#include \"shared.h\"", "#include \""+u+".h\"", 1)
	}
	return files
}

// TestTokenCutoff opens a workspace, makes one edit and refreshes,
// requiring the edited units to be recompiled and cut off exactly as
// each case says, the cut-off visible in the unit's span and the
// compile.cutoff counter, and the generation to equal a scratch open of
// the edited tree. A case with broken first writes that unit's broken
// text and refreshes, which fails, before the edit.
func TestTokenCutoff(t *testing.T) {
	const put = "void put(int v) { bucket = push(bucket, v); }"
	withComment := func(files map[string]string, c string) map[string]string {
		files = maps.Clone(files)
		files["table.c"] = strings.Replace(files["table.c"], put, "void put(int v) { /* "+c+" */ bucket = push(bucket, v); }", 1)
		return files
	}
	macro := func(body string) map[string]string {
		files := maps.Clone(baseTree)
		files["shared.h"] += "#define NEXT(n) " + body + "\n"
		files["table.c"] += "struct node *first(void) { return NEXT(bucket); }\n"
		return files
	}
	for _, c := range []struct {
		name          string
		before, after map[string]string
		broken        string // table.c's text in a failed refresh before the edit, if set
		// recompiled and cutOff are the refresh's counts.
		recompiled, cutOff int
	}{
		{name: "comment text", before: withComment(baseTree, "one"), after: withComment(baseTree, "two"),
			recompiled: 1, cutOff: 1},
		{name: "whitespace within a line", before: baseTree, after: map[string]string{
			"table.c": strings.Replace(baseTree["table.c"], "struct node *bucket;", "struct  node*bucket ;", 1)},
			recompiled: 1, cutOff: 1},
		{name: "comment text, own headers", before: withComment(ownTree(), "one"), after: withComment(ownTree(), "two"),
			recompiled: 1, cutOff: 1},
		{name: "comment line above code", before: baseTree, after: map[string]string{
			"table.c": strings.Replace(baseTree["table.c"], "struct node *bucket;", "/* the bucket */\nstruct node *bucket;", 1)},
			recompiled: 1},
		{name: "header macro the unit expands", before: macro("((n)->next)"), after: map[string]string{
			"shared.h": macro("((n)->next->next)")["shared.h"]},
			recompiled: 2},
		{name: "header edit no unit uses", before: baseTree, after: map[string]string{
			"shared.h": baseTree["shared.h"] + "extern int unused;\n"},
			recompiled: 2},
		{name: "last compile failed", before: withComment(baseTree, "one"), after: withComment(baseTree, "two"),
			broken: strings.Replace(baseTree["table.c"], put, "void put(int v) { bucket = ; }", 1), recompiled: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeTree(t, dir, c.before)
			cfg := testConfig(dir)
			o := obs.New()
			cfg.Obs = o
			p, err := Open(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.broken != "" {
				path := edit(t, dir, "table.c", c.broken)
				if _, _, err := p.Update(context.Background(), path); err == nil {
					t.Fatal("broken edit refreshed")
				}
			}
			var changed []string
			for name, content := range c.after {
				if content != c.before[name] || c.broken != "" {
					changed = append(changed, edit(t, dir, name, content))
				}
			}
			res, st, err := p.Update(context.Background(), changed...)
			if err != nil {
				t.Fatal(err)
			}
			if st.Recompiled != c.recompiled || st.CutOff != c.cutOff {
				t.Fatalf("stats %+v, want %d recompiled and %d cut off", st, c.recompiled, c.cutOff)
			}
			if got := o.Counter("compile.cutoff").Value(); got != int64(c.cutOff) {
				t.Fatalf("compile.cutoff = %d, want %d", got, c.cutOff)
			}
			if got := spanCount(o, "unit table.c (cut off)"); got != c.cutOff {
				t.Fatalf("%d cut-off unit spans, want %d", got, c.cutOff)
			}
			if c.cutOff > 0 && !st.SolveReused {
				t.Fatalf("stats %+v: a cut-off edit must reuse the fixpoint", st)
			}
			if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
				t.Fatalf("generation %s differs from scratch %s", got, want)
			}
		})
	}
}

// TestTokenCutoffOverStore: a cut-off over a unit store rewrites the
// unit's manifest, for its new closure, and not its object file; after
// Close, a reopen serves every unit from the store and the generation
// from the saved copy, compiling nothing.
func TestTokenCutoffOverStore(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = t.TempDir()
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	objects, _ := filepath.Glob(filepath.Join(cfg.CacheDir, "*.clo"))
	written := map[string]time.Time{}
	for _, f := range objects {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		written[f] = fi.ModTime()
	}
	time.Sleep(10 * time.Millisecond)
	path := edit(t, dir, "table.c", baseTree["table.c"]+"/* trailing */")
	if _, st, err := p.Update(context.Background(), path); err != nil || st.CutOff != 1 || !st.SolveReused {
		t.Fatalf("comment edit: %+v, %v; want a cut-off", st, err)
	}
	for f, at := range written {
		if fi, err := os.Stat(f); err != nil || !fi.ModTime().Equal(at) {
			t.Fatalf("%s rewritten by a cut-off (%v)", f, err)
		}
	}
	want := analysisBytes(t, p.Current())
	p.Close()
	q, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if st := q.Current().Stats; st.Recompiled != 0 || st.StoreHits != 4 || !st.Snapshot {
		t.Fatalf("reopen after a cut-off: %+v, want the saved generation and every unit from the store", st)
	}
	if got := analysisBytes(t, q.Current()); got != want {
		t.Fatalf("reopen differs from the session:\n%s\nvs\n%s", got, want)
	}
}
