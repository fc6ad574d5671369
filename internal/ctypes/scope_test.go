package ctypes

import (
	"fmt"
	"sync"
	"testing"

	"cla/internal/cc"
)

// splitUnit parses header and then src from the header's typedef scope,
// as one translation unit in two runs of declarations.
func splitUnit(t *testing.T, header, src string) (head, own *cc.TranslationUnit) {
	t.Helper()
	parse := func(name, text string, sc cc.Scope) (*cc.TranslationUnit, cc.Scope) {
		toks, err := cc.Tokenize(name, text)
		if err != nil {
			t.Fatalf("lex %s: %v", name, err)
		}
		u, after, err := cc.ParseTokensFrom(name, toks, sc)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return u, after
	}
	head, sc := parse("h.h", header, cc.Scope{})
	own, _ = parse("u.c", src, sc)
	return head, own
}

// render describes what a check resolved for the unit's own nodes, in a
// form that compares across checks: objects by kind, name and type.
func render(ck *Checked, own *cc.TranslationUnit) string {
	obj := func(o *Object) string {
		if o == nil {
			return "<nil>"
		}
		return fmt.Sprintf("%d:%s:%s", o.Kind, o.Name, o.Type)
	}
	out := ""
	for _, d := range own.Decls {
		switch v := d.(type) {
		case *cc.Declaration:
			for _, item := range v.Items {
				out += "decl " + obj(ck.DeclObj[item]) + "\n"
			}
		case *cc.FuncDef:
			out += "func " + obj(ck.FuncObj[v]) + "\n"
		}
	}
	// The unit's expression nodes, counted by position, kind and what
	// they resolved to (fmt prints maps sorted).
	lines := map[string]int{}
	for e, typ := range ck.ExprType {
		if e.Position().File == own.Name {
			lines[fmt.Sprintf("expr %s %T %s", e.Position(), e, typ)]++
		}
	}
	for id, o := range ck.Refs {
		if id.Position().File == own.Name {
			lines[fmt.Sprintf("ref %s %s %s", id.Position(), id.Name, obj(o))]++
		}
	}
	for m, r := range ck.Members {
		if m.Position().File == own.Name {
			lines[fmt.Sprintf("member %s %s.%s %s", m.Position(), r.Struct.Tag, r.Field.Name, r.Field.Type)]++
		}
	}
	return out + fmt.Sprint(lines) + fmt.Sprint(ck.Errs.Errs)
}

// scopeCases pair a header with a unit that uses or writes its state.
var scopeCases = []struct {
	name, header, src string
	complete          bool // the unit completes a tag the header left incomplete
}{
	{name: "uses", header: "typedef int *T;\nextern T g;\nstruct S { T p; };\nenum { A = 3, B };\nint f(int);\n",
		src: "struct S s;\nint arr[B];\nint main(void) { g = s.p; return f(A); }\n"},
	{name: "defines prototype", header: "int *f(int *);\n",
		src: "int x;\nint *r;\nvoid g(void) { r = f(&x); }\nint *f(int *p) { return p; }\nvoid h(void) { r = f(r); }\n"},
	{name: "redeclares", header: "int f();\nextern int v;\ntypedef int F(int);\n",
		src: "int f(int a, int b);\nint v = 1;\ntypedef int F(long);\nF k;\nint f(int a, int b) { return k(a) + v; }\n"},
	{name: "shadows", header: "typedef int T;\nint n;\nstruct S { int a; };\n",
		src: "int T;\nvoid f(void) { struct S { long b; } s; int n = T; s.b = n; }\n"},
	{name: "implicit", header: "static int w(void) { return undeclared() + missing; }\n",
		src: "int f(void) { return undeclared() + missing + w(); }\n"},
	{name: "anonymous tags", header: "struct { int a; } x;\n",
		src: "struct { int b; } y;\nint f(void) { return x.a + y.b; }\n"},
	{name: "errors", header: "int e = nope;\n",
		src: "int f(void) { return alsonope; }\n"},
	{name: "completes", header: "struct S;\nextern struct S *cur;\n",
		src: "struct S { int *p; };\nint *g(void) { return cur->p; }\n", complete: true},
}

// TestCheckFromMatchesCheck: checking a unit's own declarations from the
// scope its header left resolves every node of the unit as checking the
// whole list does, unless the unit completes one of the header's tags,
// which CheckFrom reports.
func TestCheckFromMatchesCheck(t *testing.T) {
	for _, c := range scopeCases {
		head, own := splitUnit(t, c.header, c.src)
		whole := Check(&cc.TranslationUnit{Decls: append(append([]cc.ExtDecl{}, head.Decls...), own.Decls...)})
		from, ok := CheckFrom(own, Check(head).Scope())
		if ok == c.complete {
			t.Errorf("%s: CheckFrom reports %v", c.name, ok)
		}
		if !ok {
			continue
		}
		if got, want := render(from, own), render(whole, own); got != want {
			t.Errorf("%s:\ngot  %s\nwant %s", c.name, got, want)
		}
	}
}

// snapshot records the state of a scope's objects and tags that a check
// from it must not write.
func snapshot(sc *Scope) string {
	s := map[string]string{} // fmt prints maps sorted
	for l := 0; sc != nil; sc, l = sc.prev, l+1 {
		for name, o := range sc.names {
			s[fmt.Sprint(l, name)] = fmt.Sprintf("%p %v", o.Type, *o)
		}
		for name, t := range sc.tags {
			s[fmt.Sprint(l, name)] = fmt.Sprintf("%v %v", *t, *t.Info)
		}
	}
	return fmt.Sprint(s)
}

// TestCheckFromLeavesScope: checks from one scope on many goroutines,
// of units that redeclare its objects and complete its tags, write
// nothing of it; copies stand in for the redeclared objects.
func TestCheckFromLeavesScope(t *testing.T) {
	for _, c := range scopeCases {
		head, own := splitUnit(t, c.header, c.src)
		sc := Check(head).Scope()
		before := snapshot(sc)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ck, _ := CheckFrom(own, sc)
				for _, cp := range ck.Copies {
					if o := cp.Original(); o == cp || o.Name != cp.Name {
						t.Errorf("%s: copy %v of %v", c.name, cp, o)
					}
				}
			}()
		}
		wg.Wait()
		if after := snapshot(sc); after != before {
			t.Errorf("%s: scope written:\n%s\n%s", c.name, before, after)
		}
	}
}

// TestCheckFromLayers: a scope checked from a scope adds a layer; a unit
// after both sees either's names and tags and continues the anonymous
// tag count.
func TestCheckFromLayers(t *testing.T) {
	a, b := splitUnit(t, "typedef int *A;\nstruct { int x; } ax;\n", "struct S { A p; } s;\nint f(void);\n")
	sa := Check(a).Scope()
	cb, _ := CheckFrom(b, sa)
	head, own := splitUnit(t, "typedef int *A;\nstruct { int x; } ax;\nstruct S { A p; } s;\nint f(void);\n",
		"struct { int y; } ay;\nint f(void) { return *s.p + ax.x + ay.y; }\n")
	whole := Check(&cc.TranslationUnit{Decls: append(append([]cc.ExtDecl{}, head.Decls...), own.Decls...)})
	from, _ := CheckFrom(own, cb.Scope())
	if got, want := render(from, own), render(whole, own); got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}
