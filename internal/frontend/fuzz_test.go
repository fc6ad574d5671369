package frontend

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cla/internal/core"
	"cla/internal/gen"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/bitvec"
	"cla/internal/pts/onelevel"
	"cla/internal/pts/steens"
	"cla/internal/pts/worklist"
)

// FuzzCompile runs the whole compile phase — preprocess, parse, type
// check, lower — on arbitrary units. It must never panic, and it must
// either reject the unit with an error or accept it as a valid program.
// The unit is compiled three ways: without a memo, through a fresh
// Preambles (which fills it) and through that memo again (which is
// served from it); all three must give the same error string or
// byte-equal programs. The seeds include units that write the state of
// the header they start with (headerWriteCases) and wide literals.
// Every accepted program carries only what it uses (checkKept), and
// the cut-off keeps it exactly when the tokens are unchanged
// (checkCutoff): after every comment's text is rewritten in place, and
// not after a blank line is inserted at the top.
// Every accepted program is solved by all five solvers, which must agree
// per symbol: pre-transitive = worklist = bitvec, each of the first two
// both sequentially and as waves (Jobs 2), and that exact set is within
// both one-level's and Steensgaard's. One-level within
// Steensgaard is not checked: the onelevel package's simplified
// below-level model couples every address-taken variable with its
// class's contents, so it is not pointwise comparable to Steensgaard (on
// the gimp seed, 442 of 938 symbols have one-level sets outside
// Steensgaard's).
func FuzzCompile(f *testing.F) {
	for _, path := range exampleUnits(f) {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		hdr, _ := os.ReadFile(filepath.Join(filepath.Dir(path), "corpus.h"))
		f.Add(string(src), string(hdr))
	}
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.01), 1)
	f.Add(code.Files[code.Units()[0]], code.Files[code.Header])
	for _, c := range handoffCases {
		f.Add(c.src, "")
		for _, hdr := range c.files {
			f.Add(c.src, hdr)
		}
	}
	for _, c := range preambleCases {
		for _, hdr := range c.files {
			f.Add(c.src, hdr)
		}
	}
	for _, c := range headerWriteCases {
		f.Add(c.src, c.header)
	}
	f.Add(keepSrc, keepHeader)
	f.Add("#include \"h.h\"\nwchar_t *w = L\"x\";\nwchar_t c = L'y';\n", "typedef int wchar_t;\n")
	f.Add("int *f(int *p);\nint L; int *q = L\"\" + L;\n", "")
	f.Add("#include \"h.h\"\n/* c */ int *p = &g; // d\n#if 0\nint *q = &g;\n#endif\n", "int g; /* h */\n")
	f.Add("# 7 \"f.c\"\nint g, *p = &g; /* pinned */\n", "")
	f.Fuzz(func(t *testing.T, src, header string) {
		if len(src)+len(header) > 1<<16 {
			t.Skip()
		}
		prog, err := CompileSource("f.c", src, oneHeader(header), Options{})
		m := NewPreambles()
		for _, pass := range []string{"fill", "hit"} {
			got, gotErr := memoCompile(m, "f.c", src, oneHeader(header), Options{})
			if d := diffPrograms(got, gotErr, prog, err); d != "" {
				t.Fatalf("memo %s: %s", pass, d)
			}
		}
		if err != nil {
			if prog != nil {
				t.Fatalf("rejected with %v but returned a program", err)
			}
			return
		}
		if prog == nil {
			t.Fatal("accepted without a program")
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("accepted an invalid program: %v", err)
		}
		checkKept(t, prog)
		checkCutoff(t, m, src, oneHeader(header))
		checkLattice(t, prog)
	})
}

// checkKept checks that prog carries only what it uses: every symbol is
// named by an assignment or a call site, or is defined, or belongs to a
// function record one of whose symbols is.
func checkKept(t *testing.T, prog *prim.Program) {
	t.Helper()
	used := make([]bool, len(prog.Syms))
	for _, a := range prog.Assigns {
		used[a.Dst], used[a.Src] = true, true
	}
	for _, c := range prog.Calls {
		used[c.Callee] = true
	}
	for i := range prog.Syms {
		used[i] = used[i] || prog.Syms[i].Defined
	}
	inRecord := make([]bool, len(prog.Syms))
	for _, r := range prog.Funcs {
		syms := append([]prim.SymID{r.Func}, r.Params...)
		if r.Ret != prim.NoSym {
			syms = append(syms, r.Ret)
		}
		if !slices.ContainsFunc(syms, func(id prim.SymID) bool { return used[id] }) {
			t.Fatalf("record of %s kept, but none of its symbols is used", prog.Syms[r.Func].Name)
		}
		for _, id := range syms {
			inRecord[id] = true
		}
	}
	for i := range prog.Syms {
		if !used[i] && !inRecord[i] {
			t.Fatalf("symbol %s kept, but neither used nor in a kept record", prog.Syms[i].Name)
		}
	}
}

// checkLattice solves prog with every solver and checks, per symbol,
// pretrans (at Jobs 1 and 2) = worklist = bitvec, bitvec ⊆ onelevel and
// bitvec ⊆ steens.
func checkLattice(t *testing.T, prog *prim.Program) {
	t.Helper()
	src := pts.NewMemSource(prog)
	bv, err := bitvec.Solve(src, 1)
	if err != nil {
		t.Fatalf("bitvec: %v", err)
	}
	// The Andersen-family solvers, pre-transitive on its sequential and
	// its wave path (Jobs 2), must equal bitvec exactly.
	type solved struct {
		name string
		res  pts.Result
	}
	wl, err := worklist.Solve(context.Background(), src)
	if err != nil {
		t.Fatalf("worklist: %v", err)
	}
	exact := []solved{{"worklist", wl}}
	for _, jobs := range []int{1, 2} {
		cfg := core.DefaultConfig()
		cfg.Jobs = jobs
		pre, err := core.Solve(src, cfg)
		if err != nil {
			t.Fatalf("pretrans jobs %d: %v", jobs, err)
		}
		exact = append(exact, solved{fmt.Sprintf("pretrans jobs %d", jobs), pre})
	}
	ol, err := onelevel.Solve(src)
	if err != nil {
		t.Fatalf("onelevel: %v", err)
	}
	st, err := steens.Solve(src)
	if err != nil {
		t.Fatalf("steens: %v", err)
	}
	for i := range prog.Syms {
		id := prim.SymID(i)
		want := bv.PointsTo(id)
		for _, e := range exact {
			if got := e.res.PointsTo(id); !slices.Equal(want, got) {
				t.Fatalf("%s: bitvec %v, %s %v", prog.Syms[i].Name, want, e.name, got)
			}
		}
		if o := ol.PointsTo(id); !subset(want, o) {
			t.Fatalf("%s: bitvec %v not within onelevel %v", prog.Syms[i].Name, want, o)
		}
		if s := st.PointsTo(id); !subset(want, s) {
			t.Fatalf("%s: bitvec %v not within steens %v", prog.Syms[i].Name, want, s)
		}
	}
}

// subset reports whether sorted a is contained in sorted b.
func subset(a, b []prim.SymID) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}
