package objfile

import (
	"bytes"
	"fmt"
	"testing"

	"cla/internal/prim"
)

// fuzzSeedProgram builds a small database exercising every section:
// symbols of several kinds, statics, per-source blocks, function records
// and call sites.
func fuzzSeedProgram() *prim.Program {
	p := &prim.Program{}
	a, f, main := p.Intern("a.c"), p.Intern("f"), p.Intern("main")
	g := p.AddSym(prim.Symbol{Name: "g", Kind: prim.SymGlobal, Type: "int"})
	ptr := p.AddSym(prim.Symbol{Name: "p", Kind: prim.SymGlobal, Type: "int *"})
	fn := p.AddSym(prim.Symbol{Name: "f", Kind: prim.SymFunc, Type: "void (void)"})
	par := p.AddSym(prim.Symbol{Name: "f$1", Kind: prim.SymParam, FuncName: "f"})
	ret := p.AddSym(prim.Symbol{Name: "f$ret", Kind: prim.SymRet, FuncName: "f"})
	loc := p.AddSym(prim.Symbol{Name: "x", Kind: prim.SymLocal, FuncName: "f",
		Loc: prim.Loc{File: a, Line: 3}})
	fp := p.AddSym(prim.Symbol{Name: "cb", Kind: prim.SymGlobal, Type: "void (*)(void)", FuncPtr: true})

	p.AddAssign(prim.Assign{Kind: prim.Base, Dst: ptr, Src: g,
		Loc: prim.Loc{File: a, Line: 1}})
	p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: loc, Src: par, Func: f,
		Loc: prim.Loc{File: a, Line: 4}})
	p.AddAssign(prim.Assign{Kind: prim.StoreInd, Dst: ptr, Src: loc, Func: f,
		Loc: prim.Loc{File: a, Line: 5}})
	p.AddAssign(prim.Assign{Kind: prim.Base, Dst: fp, Src: fn,
		Loc: prim.Loc{File: a, Line: 6}})
	p.Funcs = append(p.Funcs, prim.FuncRecord{Func: fn, Params: []prim.SymID{par}, Ret: ret})
	p.AddCall(prim.CallSite{Callee: fn, Caller: main,
		Loc: prim.Loc{File: a, Line: 7}, Args: 1})
	p.AddCall(prim.CallSite{Callee: fp, Caller: main, Indirect: true,
		Loc: prim.Loc{File: a, Line: 8}})
	return p
}

// FuzzReader feeds arbitrary bytes to the object-file reader and every
// accessor reachable from it. Malformed databases must produce errors,
// never panics or out-of-range indexing.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, fuzzSeedProgram()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Truncations at interesting boundaries: inside the magic, the
	// header, the section table, and each section.
	for _, n := range []int{0, 3, 8, 16, 32, 64, buf.Len() / 2, buf.Len() - 1} {
		if n >= 0 && n < buf.Len() {
			f.Add(buf.Bytes()[:n])
		}
	}
	f.Add([]byte("CLAO"))
	f.Add(bytes.Repeat([]byte{0xff}, 128))
	for _, c := range stringIndexCorruptions(buf.Bytes()) {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		_ = r.Syms()
		_ = r.Counts()
		_ = r.Funcs()
		_ = r.Calls()
		_ = r.Stats()
		if _, err := r.Statics(); err != nil {
			_ = err
		}
		n := r.NumSyms()
		if n > 256 {
			n = 256
		}
		for i := 0; i < n; i++ {
			_ = r.BlockLen(prim.SymID(i))
			if _, err := r.Block(prim.SymID(i)); err != nil {
				continue
			}
		}
		if prog, err := r.Program(); err == nil {
			// A database the reader accepts end-to-end must also be
			// internally consistent.
			if verr := prog.Validate(); verr != nil {
				t.Fatalf("reader accepted inconsistent database: %v", verr)
			}
			for _, a := range prog.Assigns {
				_, _ = prog.Str(a.Loc.File), prog.Str(a.Func)
			}
			for _, c := range prog.Calls {
				_, _ = prog.Str(c.Loc.File), prog.Str(c.Caller)
			}
		}
	})
}

// stringIndexCorruption is an object file with one string index past
// its pool.
type stringIndexCorruption struct {
	name string
	data []byte
}

// stringIndexCorruptions returns copies of the object file data with
// one string index of a symbol, static, block or call-site record set
// past the pool: to the pool's length, one more, and all ones.
func stringIndexCorruptions(data []byte) []stringIndexCorruption {
	const hdr = 8 + 8*prim.NumKinds
	sec := func(i int) (int, int) {
		return int(le.Uint64(data[hdr+16*i:])), int(le.Uint64(data[hdr+16*i+8:]))
	}
	strOff, _ := sec(secStrings)
	n := le.Uint32(data[strOff:])
	// field is one string index: the section, the offset of the first
	// record, the record size and the index's offset in a record.
	type field struct {
		name                string
		sec, first, rec, at int
	}
	var out []stringIndexCorruption
	for _, f := range []field{
		{"symbol file", secSymbols, 4, symRecSize, 8},
		{"symbol name", secSymbols, 4, symRecSize, 0},
		{"static file", secStatic, 4, staticRec, 8},
		{"static func", secStatic, 4, staticRec, 16},
		{"block file", secBlocks, 0, blockRecSize, 8},
		{"block func", secBlocks, 0, blockRecSize, 16},
		{"call file", secCalls, 4, callRecSize, 4},
		{"call caller", secCalls, 4, callRecSize, 12},
	} {
		off, size := sec(f.sec)
		if size < f.first+f.rec {
			continue
		}
		for _, bad := range []uint32{n, n + 1, 0xffffffff} {
			b := bytes.Clone(data)
			le.PutUint32(b[off+f.first+f.at:], bad)
			out = append(out, stringIndexCorruption{fmt.Sprintf("%s %#x of %d", f.name, bad, n), b})
		}
	}
	return out
}
