package frontend

import (
	"slices"
	"testing"

	"cla/internal/cc"
	"cla/internal/cpp"
	"cla/internal/ctypes"
	"cla/internal/gen"
	"cla/internal/prim"
)

// BenchmarkCompileSource compiles every unit of gimp@0.2 (the
// benchmark's cold-analyze input) serially; one op is one unit. The
// sub-benchmarks measure the leading-include memo layer by layer: none,
// the shared header's tokens only, and every layer (memo=tokens+ast,
// Preambles: tokens, declarations, checked scope and lowered prefix;
// the name stays so runs compare across versions); memo=miss fills a
// fresh Preambles per unit, the cost a workspace whose units share no
// leading include pays.
func BenchmarkCompileSource(b *testing.B) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.2), 1)
	units := code.Units()
	loader := code.Loader()
	for _, c := range []struct {
		name    string
		compile func(name, src string) (*prim.Program, error)
	}{
		{"memo=none", func(name, src string) (*prim.Program, error) {
			return CompileSource(name, src, loader, Options{})
		}},
		{"memo=miss", func(name, src string) (*prim.Program, error) {
			return memoCompile(NewPreambles(), name, src, loader, Options{})
		}},
		{"memo=tokens", (&tokenMemo{}).compiler(loader)},
		{"memo=tokens+ast", func() func(name, src string) (*prim.Program, error) {
			m := NewPreambles()
			return func(name, src string) (*prim.Program, error) {
				return memoCompile(m, name, src, loader, Options{})
			}
		}()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u := units[i%len(units)]
				if _, err := c.compile(u, code.Files[u]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// tokenMemo is the token layer alone, for measurement: the first
// leading include's tokens and the preprocessor state after it, reused
// by every later unit whose first leading include has the same key. It
// skips Preambles' validity checks and is for one goroutine.
type tokenMemo struct {
	key   string
	toks  []cc.Token // without the EOF token
	state *cpp.State
}

func (m *tokenMemo) compiler(loader cpp.Loader) func(name, src string) (*prim.Program, error) {
	return func(name, src string) (*prim.Program, error) {
		pp := cpp.New(loader)
		var head []cc.Token
		first := true
		pp.Leading = func(path, content string) (bool, error) {
			if !first {
				return false, nil
			}
			first = false
			if key := pp.StateKey() + "\x00" + path; key != m.key {
				toks, err := pp.Header(path, content)
				if err != nil {
					return false, err
				}
				m.key, m.toks, m.state = key, toks[:len(toks)-1], pp.State()
			} else {
				pp.SetState(m.state)
			}
			head = m.toks
			return true, nil
		}
		toks, err := pp.Preprocess(name, src)
		if err != nil {
			return nil, err
		}
		unit, err := cc.ParseTokens(name, append(slices.Clip(head), toks...))
		if err != nil {
			return nil, err
		}
		return Compile(ctypes.Check(unit), Options{}), nil
	}
}

// BenchmarkSharedHeader measures, for the first unit of gimp@0.2 served
// its shared header from the memo, what the memo saves per unit and
// what a hit still pays. It saves type checking (check) and lowering
// (lower) the header's declarations. A hit pays for checking and
// lowering the unit's own declarations from the header's scope and
// prefix (unit), which replays the unit's writes to header symbols and
// ends by laying out the entries the unit keeps.
func BenchmarkSharedHeader(b *testing.B) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.2), 1)
	m := NewPreambles()
	u := code.Units()[0]
	if _, err := memoCompile(m, u, code.Files[u], code.Loader(), Options{}); err != nil {
		b.Fatal(err)
	}
	pp := cpp.New(code.Loader())
	r := newPreambleRun(m, pp, Options{})
	toks, err := pp.Preprocess(u, code.Files[u])
	if err != nil {
		b.Fatal(err)
	}
	own, err := r.parse(u, toks)
	if err != nil {
		b.Fatal(err)
	}
	e := r.entry
	header := &cc.TranslationUnit{Name: u, Decls: e.decls}
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			checkedSink = ctypes.Check(header)
		}
	})
	ck := ctypes.Check(header)
	b.Run("lower", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			programSink = Compile(ck, Options{})
		}
	})
	b.Run("unit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			programSink = r.compile(own, Options{})
		}
	})
}

// Sinks keep the benchmarked calls' results alive.
var (
	checkedSink *ctypes.Checked
	programSink *prim.Program
)
