package checks

import (
	"bytes"
	"cla/internal/pts"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/linker"
	"cla/internal/prim"
)

// exampleSource extracts the embedded C program from the funcpointers
// example, so the golden expectations below track the example verbatim.
func exampleSource(t *testing.T) string {
	t.Helper()
	path := filepath.Join("..", "..", "examples", "funcpointers", "main.go")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	const marker = "const source = `"
	i := bytes.Index(data, []byte(marker))
	if i < 0 {
		t.Fatalf("%s: embedded C source not found", path)
	}
	rest := data[i+len(marker):]
	j := bytes.IndexByte(rest, '`')
	if j < 0 {
		t.Fatalf("%s: unterminated C source", path)
	}
	return string(rest[:j])
}

// TestGoldenFuncpointers runs the full pipeline plus the call-graph check
// over the examples/funcpointers program under every solver and asserts
// the resolved callee set of its one indirect call site. Subset solvers
// (pretrans, worklist, bitvec) must produce exactly the three handlers;
// the unification solvers may widen the set but never miss a handler or
// leave the site unresolved.
func TestGoldenFuncpointers(t *testing.T) {
	src := exampleSource(t)
	prog, err := frontend.CompileSource("dispatch.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	handlers := []string{"handle_close", "handle_read", "handle_write"}

	subset := map[driver.Solver]bool{
		driver.PreTransitive: true,
		driver.Worklist:      true,
		driver.BitVector:     true,
	}
	for _, s := range []driver.Solver{
		driver.PreTransitive, driver.Worklist, driver.BitVector,
		driver.Steensgaard, driver.OneLevel,
	} {
		res := solve(t, prog, s)
		rep, err := Run(prog, res, Options{})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var indirect []Site
		for _, site := range rep.Graph.Sites {
			if site.Indirect {
				indirect = append(indirect, site)
			}
		}
		if len(indirect) != 1 {
			t.Fatalf("%v: want 1 indirect site, got %+v", s, indirect)
		}
		site := indirect[0]
		if site.Via != "hot" || site.Caller != "serve" {
			t.Errorf("%v: site via=%q caller=%q, want hot/serve", s, site.Via, site.Caller)
		}
		if subset[s] {
			if got := strings.Join(site.Callees, ","); got != strings.Join(handlers, ",") {
				t.Errorf("%v: callees = %s, want %s", s, got, strings.Join(handlers, ","))
			}
		} else {
			have := map[string]bool{}
			for _, c := range site.Callees {
				have[c] = true
			}
			for _, h := range handlers {
				if !have[h] {
					t.Errorf("%v: callee set %v misses %s", s, site.Callees, h)
				}
			}
		}
		// The example program is clean: every deref has targets and no
		// local's address outlives its frame — under any solver.
		if len(rep.Diags) != 0 {
			t.Errorf("%v: unexpected diagnostics: %v", s, rep.Diags)
		}
		// handle_write reads *req, and req binds to &buf_c at the site.
		for _, sum := range rep.ModRef {
			if sum.Func == "handle_write" {
				found := false
				for _, r := range sum.DirectRef {
					if r == "buf_c" {
						found = true
					}
				}
				if !found {
					t.Errorf("%v: handle_write REF = %v, want buf_c", s, sum.DirectRef)
				}
			}
		}
	}
}

// TestDeterminismAcrossJobs renders the full report of a generated
// synthetic workload at Jobs=1 and Jobs=8 and requires byte-identical
// output, including the DOT and JSON renderings of the call graph.
func TestDeterminismAcrossJobs(t *testing.T) {
	profile := gen.Table2[0].Scale(0.05) // small nethack-shaped workload
	code := gen.Generate(profile, 42)
	prog, err := driver.Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, 0, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := solve(t, prog, driver.PreTransitive)

	render := func(jobs int) []byte {
		rep, err := Run(prog, res, Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var b bytes.Buffer
		rep.Format(&b)
		b.WriteString(rep.Graph.DOT())
		js, err := rep.Graph.JSON()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		b.Write(js)
		for _, s := range rep.ModRef {
			b.WriteString(s.Func)
			b.WriteString(strings.Join(s.Mod, ","))
			b.WriteString(strings.Join(s.Ref, ","))
		}
		return b.Bytes()
	}

	one := render(1)
	eight := render(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("output differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", one, eight)
	}
	if len(one) == 0 {
		t.Fatal("empty report; workload produced nothing to check")
	}
}

// TestChecksOverLinkedUnits exercises the call-site path through the
// linker: two units, a function pointer set in one and called in the
// other.
func TestChecksOverLinkedUnits(t *testing.T) {
	units := map[string]string{
		"a.c": `
void handler(void) { }
void (*cb)(void);
void install(void) { cb = handler; }
`,
		"b.c": `
extern void (*cb)(void);
void drive(void) { cb(); }
`,
	}
	var progs []*prim.Program
	for _, name := range []string{"a.c", "b.c"} {
		p, err := frontend.CompileSource(name, units[name], nil, frontend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, p)
	}
	prog, err := linker.Link(progs)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), driver.PreTransitive, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	rep, err := Run(prog, res, Options{})
	if err != nil {
		t.Fatalf("checks: %v", err)
	}
	var sites []Site
	for _, s := range rep.Graph.Sites {
		if s.Indirect {
			sites = append(sites, s)
		}
	}
	if len(sites) != 1 || sites[0].Caller != "drive" {
		t.Fatalf("want one indirect site in drive, got %+v", sites)
	}
	if got := strings.Join(sites[0].Callees, ","); got != "handler" {
		t.Errorf("callees = %s, want handler", got)
	}
}
