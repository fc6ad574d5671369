package frontend

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cla/internal/cc"
	"cla/internal/cpp"
	"cla/internal/ctypes"
	"cla/internal/gen"
	"cla/internal/objfile"
	"cla/internal/prim"
)

// The preprocessor hands the parser tokens. The reference it is checked
// against is the text hand-off: cpp writes its output as text with a
// `# <line> "<file>"` marker where a file starts or resumes and before
// every line, and cc.Tokenize lexes the whole text.

// textSink writes the preprocessor's output as marker text.
type textSink struct{ b strings.Builder }

func (s *textSink) Enter(file string, size int) { s.marker(1, file) }
func (s *textSink) Resume(pos cc.Pos)           { s.marker(pos.Line, pos.File) }
func (s *textSink) Marker(text string)          { fmt.Fprintf(&s.b, "# %s\n", text) }

func (s *textSink) Line(pos cc.Pos, text string) {
	s.marker(pos.Line, pos.File)
	s.b.WriteString(text)
	s.b.WriteByte('\n')
}

func (s *textSink) marker(line int, file string) {
	fmt.Fprintf(&s.b, "# %d %q\n", line, file)
}

// textTokens runs the text hand-off: it returns the tokens and the
// preprocessing and lexing errors.
func textTokens(name, src string, loader cpp.Loader, opts Options) (toks []cc.Token, ppErr, lexErr error) {
	var s textSink
	if err := newPreprocessor(loader, opts).Run(name, src, &s); err != nil {
		return nil, err, nil
	}
	toks, lexErr = cc.Tokenize(name, s.b.String())
	return toks, nil, lexErr
}

// compileText is CompileSource over the text hand-off.
func compileText(name, src string, loader cpp.Loader, opts Options) (*prim.Program, error) {
	toks, ppErr, lexErr := textTokens(name, src, loader, opts)
	if ppErr != nil {
		return nil, fmt.Errorf("preprocess %s: %w", name, ppErr)
	}
	if lexErr != nil {
		return nil, fmt.Errorf("parse %s: %w", name, lexErr)
	}
	unit, err := cc.ParseTokens(name, toks)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	return Compile(ctypes.Check(unit), opts), nil
}

func newPreprocessor(loader cpp.Loader, opts Options) *cpp.Preprocessor {
	if loader == nil {
		loader = cpp.MapLoader{}
	}
	pp := cpp.New(loader)
	for k, v := range opts.Defines {
		pp.Define(k, v)
	}
	return pp
}

// diffTokens reports how the token hand-off differs from the text
// hand-off on one unit, in error strings or in tokens (EOF included).
// It returns "" when they agree.
func diffTokens(name, src string, loader cpp.Loader, opts Options) string {
	want, wantPP, wantLex := textTokens(name, src, loader, opts)
	got, err := newPreprocessor(loader, opts).Preprocess(name, src)
	var gotPP, gotLex error
	var lexErr *cpp.LexError
	if errors.As(err, &lexErr) {
		gotLex = lexErr.Err
	} else {
		gotPP = err
	}
	if d := diffErr("preprocess", gotPP, wantPP) + diffErr("lex", gotLex, wantLex); d != "" {
		return d
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				return fmt.Sprintf("token %d: got %q at %v, want %q at %v",
					i, got[i].Text, got[i].Pos, want[i].Text, want[i].Pos)
			}
		}
		return fmt.Sprintf("got %d tokens, want %d", len(got), len(want))
	}
	return ""
}

// diffCompile compares CompileSource with compileText: error strings
// and the lowered programs, field by field and as object files.
func diffCompile(name, src string, loader cpp.Loader, opts Options) string {
	got, gotErr := CompileSource(name, src, loader, opts)
	want, wantErr := compileText(name, src, loader, opts)
	return diffPrograms(got, gotErr, want, wantErr)
}

// diffPrograms compares two compiles' error strings and lowered
// programs, field by field and as object files.
func diffPrograms(got *prim.Program, gotErr error, want *prim.Program, wantErr error) string {
	if d := diffErr("compile", gotErr, wantErr); d != "" {
		return d
	}
	if !reflect.DeepEqual(got, want) {
		return "lowered programs differ"
	}
	if got == nil {
		return ""
	}
	if got.Digest() != want.Digest() {
		return "program digests differ"
	}
	var gb, wb bytes.Buffer
	if err := objfile.Write(&gb, got); err != nil {
		return err.Error()
	}
	if err := objfile.Write(&wb, want); err != nil {
		return err.Error()
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return "object files differ"
	}
	return ""
}

func diffErr(what string, got, want error) string {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("%s error: got %v, want %v", what, got, want)
	}
	return ""
}

func checkHandoff(t *testing.T, name, src string, loader cpp.Loader, opts Options) {
	t.Helper()
	if d := diffTokens(name, src, loader, opts) + diffCompile(name, src, loader, opts); d != "" {
		t.Errorf("%s: %s", name, d)
	}
}

// exampleUnits lists the C files of examples/*/testdata and
// examples/corpus.
func exampleUnits(t testing.TB) []string {
	var units []string
	for _, pat := range []string{"../../examples/*/testdata/*.c", "../../examples/corpus/*.c"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, m...)
	}
	if len(units) < 2 {
		t.Fatalf("found %d example units", len(units))
	}
	return units
}

func TestHandoffExamples(t *testing.T) {
	for _, path := range exampleUnits(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		loader := cpp.OSLoader{Dirs: []string{filepath.Dir(path)}}
		checkHandoff(t, path, string(src), loader, Options{})
	}
}

func TestHandoffTable2Profiles(t *testing.T) {
	for _, p := range gen.Table2 {
		code := gen.Generate(p.Scale(0.02), 1)
		for _, u := range code.Units() {
			checkHandoff(t, p.Name+"/"+u, code.Files[u], code.Loader(), Options{})
		}
	}
}

// handoffCases are units that exercise the hand-off's edges: glued
// tokens, positions and the EOF position, lex errors and their order
// with preprocessing errors.
var handoffCases = []struct {
	name, src string
	files     cpp.MapLoader
	defines   map[string]string
}{
	{name: "wide paste", src: "#define W(s) L##s\n#define WIDE L\nchar *a = W(\"x\");\nchar *b = WIDE\"y\";\nint c = W('z');\n"},
	{name: "stringize and paste", src: "#define S(x) #x\n#define G(a, b) a ## b\n#define XS(x) S(x)\nchar *s = S(a  +  \"q\\n\");\nint G(p, q) = G(1, 2);\nchar *t = XS(G(x, y));\nint G(, r);\n"},
	{name: "line on continued lines", src: "int a = \\\n  __LINE__;\nint b = __LINE__ + \\\n\\\n __LINE__;\nint c = __LINE__;"},
	{name: "file builtin", src: "char *f = __FILE__;\n#include \"in/h.h\"\nchar *g = __FILE__;\n",
		files: cpp.MapLoader{"in/h.h": "char *hf = __FILE__;\n"}},
	{name: "macro include", src: "#define H \"h.h\"\n#define A <a.h>\n#include H\n#include A\nint after;\n",
		files: cpp.MapLoader{"h.h": "int h;\n", "a.h": "int a;"}},
	{name: "pass-through markers", src: "# 7 \"other.c\"\nint x;\n# 9 \"y.c\" 1 3\nint y;\n# 12 bogus\nint z;\n#  20   \"w.c\"\n"},
	{name: "unparsed marker last", src: "int x;\n# 12 bogus\n"},
	{name: "raw-quoted marker last", src: "int x;\n# 30 `raw.c`\n"},
	{name: "stray hash", src: "#define HASH #\n#define M # 5 \"m.c\"\nint a; HASH int b;\nint c;\nint d; M int e;\n"},
	{name: "stray hash at end", src: "#define M # 5 \"m.c\"\nint a; M"},
	{name: "stray hash then nothing", src: "#define HASH #\nint a; HASH junk \"open\n"},
	{name: "unterminated literals", src: "char *s = \"abc;\nchar c = 'x;\nchar *t = \"esc\\\nint ok;\nchar *u = \"end\\"},
	{name: "unterminated in include", src: "int a;\n#include \"h.h\"\n", files: cpp.MapLoader{"h.h": "char *s = \"open;\n"}},
	{name: "lex error cap", src: strings.Repeat("char *s = \"open;\n", 25)},
	{name: "cpp error after lex error", src: "char *s = \"open;\nint a;\n#error stop\n"},
	{name: "cpp error in include after lex error", src: "char *s = \"open;\n#include \"h.h\"\n", files: cpp.MapLoader{"h.h": "#if 1\nint x;\n"}},
	{name: "ends inside include", src: "int a;\n#include \"h.h\"", files: cpp.MapLoader{"h.h": "int h;\n#include \"g.h\"", "g.h": "int g;"}},
	{name: "bare include", src: "int a;\n#include"},
	{name: "include of empty", src: "#include \"e.h\"\n", files: cpp.MapLoader{"e.h": ""}},
	{name: "dollar", src: "#define FOO$BAR 7\nint x = FOO$BAR;\nint $y$ = 1;\n"},
	{name: "odd file name", src: "#include \"sp ace\\\xc3.h\"\n", files: cpp.MapLoader{"sp ace\\\xc3.h": "char *f = __FILE__;\n"}},
	{name: "non-ASCII", src: "int caf\xc3\xa9 = 1;\nchar *s = \"\xff\";\n"},
	{name: "empty", src: ""},
	{name: "only directives", src: "#define A 1\n#if A\n#endif\n"},
	{name: "no final newline", src: "int a;\nint b"},
	{name: "blank expansion", src: "#define E\nE\nE E\nint x;\nE\n"},
	{name: "defines", src: "int x = DEBUG;\n", defines: map[string]string{"DEBUG": "2"}},
}

func TestHandoffCases(t *testing.T) {
	for _, c := range handoffCases {
		checkHandoff(t, c.name+".c", c.src, c.files, Options{Defines: c.defines})
	}
}

// TestHandoffEOFPosition pins the EOF token's position, where an
// unexpected end of input is reported, in cases where it is not just
// below the last line.
func TestHandoffEOFPosition(t *testing.T) {
	for _, c := range []struct {
		src  string
		want cc.Pos
	}{
		{"int a;\n", cc.Pos{File: "t.c", Line: 2}},
		{"int a;\n\n\n", cc.Pos{File: "t.c", Line: 2}},
		{"", cc.Pos{File: "t.c", Line: 1}},
		{"int a;\n#include \"h.h\"\n", cc.Pos{File: "t.c", Line: 3}},
		{"int a;\n# 40 \"x.c\"\n", cc.Pos{File: "x.c", Line: 40}},
		{"int a;\n# 40 x.c\n", cc.Pos{File: "t.c", Line: 3}},
		{"#define M # 5 \"m.c\"\nint a; M\n", cc.Pos{File: "m.c", Line: 5}},
	} {
		toks, err := cpp.New(cpp.MapLoader{"h.h": "int h;\n"}).Preprocess("t.c", c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if eof := toks[len(toks)-1]; eof.Kind != cc.EOF || eof.Pos != c.want {
			t.Errorf("%q: last token %v at %v, want EOF at %v", c.src, eof, eof.Pos, c.want)
		}
		if d := diffTokens("t.c", c.src, cpp.MapLoader{"h.h": "int h;\n"}, Options{}); d != "" {
			t.Errorf("%q: %s", c.src, d)
		}
	}
}

// oneHeader serves the same header under every include name.
type oneHeader string

func (h oneHeader) Load(name string) (string, string, error) { return string(h), name, nil }

// FuzzPreprocessTokens checks that the token and text hand-offs agree
// on arbitrary units: equal tokens, equal errors, no panics.
func FuzzPreprocessTokens(f *testing.F) {
	for _, path := range exampleUnits(f) {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		hdr, _ := os.ReadFile(filepath.Join(filepath.Dir(path), "corpus.h"))
		f.Add(string(src), string(hdr))
	}
	p, _ := gen.ProfileByName("nethack")
	code := gen.Generate(p.Scale(0.02), 1)
	for _, u := range code.Units() {
		f.Add(code.Files[u], code.Files[code.Header])
	}
	for _, c := range handoffCases {
		f.Add(c.src, "")
		for _, hdr := range c.files {
			f.Add(c.src, hdr)
		}
	}
	f.Fuzz(func(t *testing.T, src, header string) {
		if d := diffTokens("f.c", src, oneHeader(header), Options{}); d != "" {
			t.Fatal(d)
		}
	})
}
