package frontend

import (
	"reflect"
	"testing"

	"cla/internal/cc"
	"cla/internal/cpp"
	"cla/internal/gen"
	"cla/internal/prim"
)

// memoCompile compiles one unit through m with no previous compile.
func memoCompile(m *Preambles, name, src string, loader cpp.Loader, opts Options) (*prim.Program, error) {
	return compiledProgram(m.CompileSource(name, src, loader, opts, nil))
}

// rewriteComments replaces the text of every comment in src with other
// text of the same length and the same line breaks, scanning src as
// the preprocessor's comment stripper does, so the result preprocesses
// to the same tokens.
func rewriteComments(src string) string {
	b := []byte(src)
	other := func(i int) {
		if b[i] != '\n' {
			if src[i] == 'x' {
				b[i] = 'y'
			} else {
				b[i] = 'x'
			}
		}
	}
	n := len(src)
	for i := 0; i < n; {
		c := src[i]
		switch {
		case c == '\\' && i+1 < n && src[i+1] == '\n':
			i += 2
		case c == '\\' && i+2 < n && src[i+1] == '\r' && src[i+2] == '\n':
			i += 3
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i += 2; i < n && src[i] != '\n'; i++ {
				other(i)
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			for i += 2; i < n; i++ {
				if src[i] == '*' && i+1 < n && src[i+1] == '/' {
					i += 2
					break
				}
				other(i)
			}
		case c == '"' || c == '\'':
			for i++; i < n && src[i] != c; i++ {
				if src[i] == '\\' && i+1 < n {
					i++
				}
			}
			i++
		default:
			i++
		}
	}
	return string(b)
}

// cutoffCase is one edit of a unit and whether its compile must be cut
// off after the original's.
type cutoffCase struct {
	name      string
	src, edit string
	files     cpp.MapLoader
	// edited replaces files for the edit, when set.
	edited cpp.MapLoader
	opts   Options
	// editOpts replaces opts for the edit, when set.
	editOpts *Options
	// hit is the cut-off through a memo. Without one, a leading header's
	// tokens are part of the unit's own stream, so a header edit that
	// leaves them unchanged is cut off too (plainHit).
	hit, plainHit bool
}

var cutoffCases = []cutoffCase{
	{name: "comment text", src: "int g; /* one */\nint *p = &g; // two\n",
		edit: "int g; /* uno */\nint *p = &g; // dos\n", hit: true},
	{name: "whitespace within a line", src: "int g;\nint *p = &g;\n",
		edit: "int   g ;\nint*p=&g;\t\n", hit: true},
	{name: "if 0 body that moves no line", src: "int g;\n#if 0\nint *q = &g;\n#endif\nint *p = &g;\n",
		edit: "int g;\n#if 0\nint *r = 0;\n#endif\nint *p = &g;\n", hit: true},
	{name: "comment after a leading include", src: "#include \"h.h\"\n/* a */ int *p = &g;\n",
		edit: "#include \"h.h\"\n/* b */ int *p = &g;\n", files: cpp.MapLoader{"h.h": "int g;\n"}, hit: true},
	{name: "comment line above code", src: "int g;\nint *p = &g;\n",
		edit: "/* new */\nint g;\nint *p = &g;\n"},
	{name: "changed token", src: "int g, h;\nint *p = &g;\n",
		edit: "int g, h;\nint *p = &h;\n"},
	{name: "header macro the unit expands", src: "#include \"h.h\"\nint *p = M;\n",
		edit:   "#include \"h.h\"\nint *p = M;\n",
		files:  cpp.MapLoader{"h.h": "int g, h;\n#define M (&g)\n"},
		edited: cpp.MapLoader{"h.h": "int g, h;\n#define M (&h)\n"}},
	{name: "header edit the unit does not use", src: "#include \"h.h\"\nint *p = &g;\n",
		edit:   "#include \"h.h\"\nint *p = &g;\n",
		files:  cpp.MapLoader{"h.h": "int g;\n"},
		edited: cpp.MapLoader{"h.h": "int g;\nint unused;\n"}},
	{name: "header comment", src: "#include \"h.h\"\nint *p = &g;\n",
		edit:   "#include \"h.h\"\nint *p = &g;\n",
		files:  cpp.MapLoader{"h.h": "int g; /* a */\n"},
		edited: cpp.MapLoader{"h.h": "int g; /* b */\n"}, plainHit: true},
	{name: "lowering option", src: "char *s = \"x\";\n", edit: "char *s = \"x\";\n",
		editOpts: &Options{ModelStrings: true}},
	{name: "define the unit reads", src: "int g, h;\nint *p = &D;\n", edit: "int g, h;\nint *p = &D;\n",
		opts: Options{Defines: map[string]string{"D": "g"}}, editOpts: &Options{Defines: map[string]string{"D": "h"}}},
}

// TestFingerprintCutoff compiles each case's unit and then its edit, offering
// the first compile to the second, without a memo and through one, and
// requires the cut-off exactly where the case says, with the edit's
// program equal to a compile of the edit with no previous one. A leading
// header's entry is swept from the memo between the compiles, so the
// chain fingerprint must come from the header's content, not its entry.
func TestFingerprintCutoff(t *testing.T) {
	for _, c := range cutoffCases {
		t.Run(c.name, func(t *testing.T) {
			edited, editOpts := c.files, c.opts
			if c.edited != nil {
				edited = c.edited
			}
			if c.editOpts != nil {
				editOpts = *c.editOpts
			}
			fresh, err := CompileSource("u.c", c.edit, edited, editOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*Preambles{nil, NewPreambles()} {
				first, err := m.CompileSource("u.c", c.src, c.files, c.opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if m != nil {
					m.Sweep()
					m.Sweep()
				}
				got, err := m.CompileSource("u.c", c.edit, edited, editOpts, first)
				if err != nil {
					t.Fatal(err)
				}
				want := c.hit || m == nil && c.plainHit
				if hit := got == first; hit != want {
					t.Errorf("memo %v: cut off %v, want %v", m != nil, hit, want)
				}
				if !reflect.DeepEqual(got.Prog, fresh) {
					t.Errorf("memo %v: program differs from a compile with no previous one", m != nil)
				}
			}
		})
	}
}

// TestCutoffNeedsEqualTokens offers a previous compile to units whose
// tokens or name differ from it: a broken edit fails as it would with no
// previous compile, and a unit under another name compiles in full.
func TestCutoffNeedsEqualTokens(t *testing.T) {
	first, err := (*Preambles)(nil).CompileSource("u.c", "int g;\n", nil, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := (*Preambles)(nil).CompileSource("u.c", "int g;\nint ;;garbage(\n", nil, Options{}, first); err == nil || c != nil {
		t.Fatalf("broken unit: %v, %v", c, err)
	}
	if c, _ := (*Preambles)(nil).CompileSource("v.c", "int g;\n", nil, Options{}, first); c == first {
		t.Fatal("a unit under another name kept the program")
	}
}

// tokensOf preprocesses src without a memo.
func tokensOf(src string, loader cpp.Loader) []cc.Token {
	toks, _ := newPreprocessor(loader, Options{}).Preprocess("f.c", src)
	return toks
}

// checkCutoff is FuzzCompile's cut-off arm. Rewriting the text of every
// comment of an accepted unit moves no line, so its compile must be cut
// off after the unit's, through no memo and through m, and equal a
// compile with no previous one. Inserting a blank line at the top moves
// every line of the unit's own text, so that compile must be cut off
// exactly when the preprocessed tokens stay equal (a unit whose own
// text yields no line, or whose line markers pin the lines), and equal a
// fresh compile either way.
func checkCutoff(t *testing.T, m *Preambles, src string, loader cpp.Loader) {
	t.Helper()
	for _, memo := range []*Preambles{nil, m} {
		first, err := memo.CompileSource("f.c", src, loader, Options{}, nil)
		if err != nil {
			t.Fatalf("memo %v: %v", memo != nil, err)
		}
		rewritten := rewriteComments(src)
		got, err := memo.CompileSource("f.c", rewritten, loader, Options{}, first)
		if err != nil || got != first {
			t.Fatalf("memo %v: comments rewritten: cut off %v, error %v; want a cut-off", memo != nil, got == first, err)
		}
		if fresh, err := CompileSource("f.c", rewritten, loader, Options{}); err != nil || !reflect.DeepEqual(fresh, got.Prog) {
			t.Fatalf("memo %v: comments rewritten: cut-off program differs from a fresh compile (%v)", memo != nil, err)
		}
	}
	shifted := "\n" + src
	prev, err := (*Preambles)(nil).CompileSource("f.c", src, loader, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (*Preambles)(nil).CompileSource("f.c", shifted, loader, Options{}, prev)
	if err != nil {
		t.Fatalf("blank line at the top: %v", err)
	}
	if same := reflect.DeepEqual(tokensOf(src, loader), tokensOf(shifted, loader)); (got == prev) != same {
		t.Fatalf("blank line at the top: cut off %v, tokens equal %v", got == prev, same)
	}
	if fresh, err := CompileSource("f.c", shifted, loader, Options{}); err != nil || !reflect.DeepEqual(fresh, got.Prog) {
		t.Fatalf("blank line at the top: program differs from a fresh compile (%v)", err)
	}
}

func TestRewriteComments(t *testing.T) {
	for src, want := range map[string]string{
		"a /* bc */ d // x\n":        "a /*xxxx*/ d //xy\n",
		"s = \"/* no */\"; // c\\\n": "s = \"/* no */\"; //xxx\n",
		"/* a\nb */ c":               "/*xx\nxx*/ c",
	} {
		if got := rewriteComments(src); got != want {
			t.Errorf("rewriteComments(%q) = %q, want %q", src, got, want)
		}
	}
}

// BenchmarkFingerprint measures the cost the cut-off adds to every
// compile next to the preprocessing it follows, per unit of gimp@0.2
// in turn: pass=fingerprint hashes the token stream the cut-off hashes
// (the unit's own tokens after its memoized defs.h), and
// pass=preprocess preprocesses the unit through the filled memo.
func BenchmarkFingerprint(b *testing.B) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.2), 1)
	units := code.Units()
	m := NewPreambles()
	preprocess := func(u string) []cc.Token {
		pp := cpp.New(code.Loader())
		newPreambleRun(m, pp, Options{})
		toks, err := pp.Preprocess(u, code.Files[u])
		if err != nil {
			b.Fatal(err)
		}
		return toks
	}
	var streams [][]cc.Token
	n := 0
	for _, u := range units {
		toks := preprocess(u)
		streams = append(streams, toks)
		n += len(toks)
	}
	b.Run("pass=fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fingerprint("u.c", Options{}, 0, streams[i%len(streams)])
		}
		b.ReportMetric(float64(n)/float64(len(streams)), "tokens/unit")
	})
	b.Run("pass=preprocess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			preprocess(units[i%len(units)])
		}
	})
}
