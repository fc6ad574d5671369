package objfile

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"cla/internal/frontend"
	"cla/internal/prim"
)

// sampleProgram builds a small in-memory database by hand.
func sampleProgram() *prim.Program {
	p := &prim.Program{}
	a := p.Intern("a.c")
	x := p.AddSym(prim.Symbol{Name: "x", Kind: prim.SymGlobal, Type: "int", Loc: prim.Loc{File: a, Line: 1}})
	y := p.AddSym(prim.Symbol{Name: "y", Kind: prim.SymGlobal, Type: "int", Loc: prim.Loc{File: a, Line: 1}})
	q := p.AddSym(prim.Symbol{Name: "q", Kind: prim.SymGlobal, Type: "int*", Loc: prim.Loc{File: a, Line: 1}})
	f := p.AddSym(prim.Symbol{Name: "f", Kind: prim.SymFunc, Type: "int(int)", Loc: prim.Loc{File: a, Line: 2}})
	f1 := p.AddSym(prim.Symbol{Name: "f$1", Kind: prim.SymParam, FuncName: "f"})
	fr := p.AddSym(prim.Symbol{Name: "f$ret", Kind: prim.SymRet, FuncName: "f"})
	p.AddAssign(prim.Assign{Kind: prim.Base, Dst: q, Src: y, Op: prim.OpCopy, Strength: prim.Strong, Loc: prim.Loc{File: a, Line: 5}})
	p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: x, Src: y, Op: prim.OpAdd, Strength: prim.Strong, Loc: prim.Loc{File: a, Line: 6}})
	p.AddAssign(prim.Assign{Kind: prim.LoadInd, Dst: x, Src: q, Op: prim.OpCopy, Strength: prim.Strong, Loc: prim.Loc{File: a, Line: 7}})
	p.AddAssign(prim.Assign{Kind: prim.StoreInd, Dst: q, Src: y, Op: prim.OpCopy, Strength: prim.Strong, Loc: prim.Loc{File: a, Line: 8}})
	p.Funcs = append(p.Funcs, prim.FuncRecord{Func: f, Params: []prim.SymID{f1}, Ret: fr})
	return p
}

// resolvedAssign is an assignment with its strings resolved and its ids
// cleared, comparable across programs whose tables differ.
type resolvedAssign struct {
	prim.Assign
	file, fn string
}

func resolveAssigns(p *prim.Program) []resolvedAssign {
	out := make([]resolvedAssign, len(p.Assigns))
	for i, a := range p.Assigns {
		out[i] = resolvedAssign{a, p.Str(a.Loc.File), p.Str(a.Func)}
		out[i].Loc.File, out[i].Func = 0, 0
	}
	return out
}

// writeRead round-trips a program through the binary format.
func writeRead(t *testing.T, p *prim.Program) *Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

func TestRoundTripSymbols(t *testing.T) {
	p := sampleProgram()
	r := writeRead(t, p)
	if r.NumSyms() != len(p.Syms) {
		t.Fatalf("syms = %d, want %d", r.NumSyms(), len(p.Syms))
	}
	for i := range p.Syms {
		got, want := *r.Sym(prim.SymID(i)), p.Syms[i]
		if r.Str(got.Loc.File) != p.Str(want.Loc.File) {
			t.Errorf("sym %d: file %q, want %q", i, r.Str(got.Loc.File), p.Str(want.Loc.File))
		}
		got.Loc.File, want.Loc.File = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sym %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestRoundTripProgram(t *testing.T) {
	p := sampleProgram()
	r := writeRead(t, p)
	p2, err := r.Program()
	if err != nil {
		t.Fatal(err)
	}
	sortAssigns := func(as []resolvedAssign) {
		sort.Slice(as, func(i, j int) bool {
			if as[i].Loc.Line != as[j].Loc.Line {
				return as[i].Loc.Line < as[j].Loc.Line
			}
			return as[i].Kind < as[j].Kind
		})
	}
	want, got := resolveAssigns(p), resolveAssigns(p2)
	sortAssigns(want)
	sortAssigns(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("assigns:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(p.Funcs, p2.Funcs) {
		t.Errorf("funcs: got %+v want %+v", p2.Funcs, p.Funcs)
	}
}

func TestStaticsOnlyBase(t *testing.T) {
	r := writeRead(t, sampleProgram())
	statics, err := r.Statics()
	if err != nil {
		t.Fatal(err)
	}
	if len(statics) != 1 || statics[0].Kind != prim.Base {
		t.Errorf("statics = %v", statics)
	}
}

func TestBlockOrganizedBySource(t *testing.T) {
	p := sampleProgram()
	r := writeRead(t, p)
	// Block for y: x = y (simple), *q = y (store).
	y := p.SymIDByName("y")
	entries, err := r.Block(y)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("block(y) = %v", entries)
	}
	kinds := map[prim.Kind]bool{}
	for _, e := range entries {
		kinds[e.Kind] = true
	}
	if !kinds[prim.Simple] || !kinds[prim.StoreInd] {
		t.Errorf("block kinds = %v", kinds)
	}
	// Block for q: x = *q.
	q := p.SymIDByName("q")
	entries, err = r.Block(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Kind != prim.LoadInd {
		t.Errorf("block(q) = %v", entries)
	}
	// x is never a source.
	if n := r.BlockLen(p.SymIDByName("x")); n != 0 {
		t.Errorf("block(x) len = %d", n)
	}
}

func TestBlockEntryAssignReconstruction(t *testing.T) {
	p := sampleProgram()
	r := writeRead(t, p)
	y := p.SymIDByName("y")
	entries, _ := r.Block(y)
	for _, e := range entries {
		a := e.Assign(y)
		if a.Src != y || a.Kind != e.Kind || a.Dst != e.Dst {
			t.Errorf("reconstructed %v from %v", a, e)
		}
	}
}

func TestCountsHeader(t *testing.T) {
	p := sampleProgram()
	r := writeRead(t, p)
	want := p.CountByKind()
	if r.Counts() != want {
		t.Errorf("counts = %v, want %v", r.Counts(), want)
	}
}

// writtenTargets writes p and decodes the target section the writer
// emits, which readers check only for its framing: each name with the
// ids it lists, in section order.
func writtenTargets(t *testing.T, p *prim.Program) map[string][]prim.SymID {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	data := buf.Bytes()
	const hdr = 8 + 8*prim.NumKinds
	sec := func(i int) []byte {
		off, n := le.Uint64(data[hdr+16*i:]), le.Uint64(data[hdr+16*i+8:])
		return data[off : off+n]
	}
	strs, err := DecodeStrings(sec(secStrings))
	if err != nil {
		t.Fatal(err)
	}
	b := sec(secTargets)
	out := map[string][]prim.SymID{}
	var last string
	for i := 0; i < int(le.Uint32(b)); i++ {
		rec := b[4+8*i:]
		name, err := strs.Str(le.Uint32(rec))
		if err != nil {
			t.Fatal(err)
		}
		if name < last {
			t.Fatalf("target %q after %q: the section is not sorted", name, last)
		}
		last = name
		out[name] = append(out[name], DecodeSymID(le.Uint32(rec[4:])))
	}
	return out
}

func TestTargetLookup(t *testing.T) {
	p := sampleProgram()
	targets := writtenTargets(t, p)
	if ids := targets["y"]; len(ids) != 1 || ids[0] != p.SymIDByName("y") {
		t.Errorf("targets y = %v", ids)
	}
	if ids, ok := targets["nosuch"]; ok {
		t.Errorf("targets nosuch = %v", ids)
	}
}

func TestTargetLookupMultiple(t *testing.T) {
	p := &prim.Program{}
	p.AddSym(prim.Symbol{Name: "dup", Kind: prim.SymLocal, FuncName: "f"})
	p.AddSym(prim.Symbol{Name: "dup", Kind: prim.SymLocal, FuncName: "g"})
	p.AddSym(prim.Symbol{Name: "other", Kind: prim.SymGlobal})
	if ids := writtenTargets(t, p)["dup"]; len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("targets dup = %v", ids)
	}
}

func TestTempsExcludedFromTargets(t *testing.T) {
	p := &prim.Program{}
	p.AddSym(prim.Symbol{Name: "tmp$1", Kind: prim.SymTemp})
	if ids, ok := writtenTargets(t, p)["tmp$1"]; ok {
		t.Errorf("temp found in targets: %v", ids)
	}
}

// TestTargetFramingChecked: a target section whose count disagrees
// with its size is rejected, though its records are not read.
func TestTargetFramingChecked(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const hdr = 8 + 8*prim.NumKinds
	off := le.Uint64(data[hdr+16*secTargets:])
	le.PutUint32(data[off:], le.Uint32(data[off:])+1)
	if _, err := NewReader(bytes.NewReader(data), int64(len(data))); err == nil {
		t.Fatal("a target count past the section was accepted")
	}
}

func TestEntriesLoadedAccounting(t *testing.T) {
	p := sampleProgram()
	r := writeRead(t, p)
	y := p.SymIDByName("y")
	r.Block(y)
	r.Block(y) // discard and re-load
	ls := r.LoadStats()
	if ls.EntriesLoaded != 4 {
		t.Errorf("EntriesLoaded = %d, want 4", ls.EntriesLoaded)
	}
	if ls.BlocksLoaded != 1 {
		t.Errorf("BlocksLoaded = %d, want 1 distinct block", ls.BlocksLoaded)
	}
	if ls.BlockLoads != 2 {
		t.Errorf("BlockLoads = %d, want 2", ls.BlockLoads)
	}
	if ls.BytesLoaded <= 0 || ls.BytesLoaded > ls.TotalBytes*2 {
		t.Errorf("BytesLoaded = %d (total %d)", ls.BytesLoaded, ls.TotalBytes)
	}
	if ls.TotalBlocks < ls.BlocksLoaded || ls.TotalEntries < 2 {
		t.Errorf("totals = %+v", ls)
	}
}

func TestWriteFileAndOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.clo")
	p := sampleProgram()
	if err := WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumSyms() != len(p.Syms) {
		t.Errorf("syms = %d", r.NumSyms())
	}
	st := r.Stats()
	if st.TotalAssigns != len(p.Assigns) {
		t.Errorf("stats = %+v", st)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent.clo")); err == nil {
		t.Error("expected error")
	}
}

func TestCorruptMagic(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, sampleProgram())
	b := buf.Bytes()
	b[0] = 'X'
	if _, err := NewReader(bytes.NewReader(b), int64(len(b))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestCorruptVersion(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, sampleProgram())
	b := buf.Bytes()
	b[4] = 0xff
	if _, err := NewReader(bytes.NewReader(b), int64(len(b))); err == nil {
		t.Error("bad version accepted")
	}
}

// TestCorruptStringIndex: a record whose string index is past the pool
// fails its decode with a *CorruptError, never a panic, for every
// record kind that holds one.
func TestCorruptStringIndex(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, fuzzSeedProgram()); err != nil {
		t.Fatal(err)
	}
	cases := stringIndexCorruptions(buf.Bytes())
	if len(cases) != 24 {
		t.Fatalf("%d corruptions, want 24 (every record kind)", len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(c.data), int64(len(c.data)))
			if err == nil {
				_, err = r.Program()
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decode: %v, want a *CorruptError", err)
			}
		})
	}
}

func TestTruncatedFile(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, sampleProgram())
	b := buf.Bytes()
	for _, n := range []int{0, 3, 10, len(b) / 2, len(b) - 1} {
		if _, err := NewReader(bytes.NewReader(b[:n]), int64(n)); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestCorruptEveryByteNeverPanics(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, sampleProgram())
	orig := buf.Bytes()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		b := append([]byte(nil), orig...)
		// Flip a few random bytes.
		for k := 0; k < 3; k++ {
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
		r, err := NewReader(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			continue // rejected: fine
		}
		// If accepted, decoding everything must not panic.
		r.Statics()
		for i := 0; i < r.NumSyms(); i++ {
			r.Block(prim.SymID(i))
		}
		r.Program()
	}
}

func TestRoundTripCompiledUnit(t *testing.T) {
	src := `
struct S { int *p; int v; };
struct S gs;
int gx, *gp;
static int hidden;
int func(int a, int *b) {
	gp = &gx;
	gs.p = b;
	*b = a;
	return a;
}
void caller(void) { func(gx, gp); }
`
	p, err := frontend.CompileSource("unit.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := writeRead(t, p)
	p2, err := r.Program()
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Assigns) != len(p.Assigns) {
		t.Errorf("assigns = %d, want %d", len(p2.Assigns), len(p.Assigns))
	}
	if len(p2.Funcs) != len(p.Funcs) {
		t.Errorf("funcs = %d, want %d", len(p2.Funcs), len(p.Funcs))
	}
	// Spot-check a location survived.
	found := false
	for _, a := range p2.Assigns {
		if p2.Str(a.Loc.File) == "unit.c" && a.Loc.Line > 0 {
			found = true
		}
	}
	if !found {
		t.Error("locations lost in round trip")
	}
}

// Property: random programs round-trip exactly (up to assignment order
// within static/blocks, which the format preserves per construction).
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &prim.Program{}
		file := p.Intern("r.c")
		nsyms := 1 + rng.Intn(20)
		for i := 0; i < nsyms; i++ {
			p.AddSym(prim.Symbol{
				Name: string(rune('a' + i%26)),
				Kind: prim.SymKind(rng.Intn(prim.NumSymKinds)),
				Type: "int",
				Loc:  prim.Loc{File: file, Line: int32(rng.Intn(100))},
			})
		}
		na := rng.Intn(50)
		for i := 0; i < na; i++ {
			p.AddAssign(prim.Assign{
				Kind:     prim.Kind(rng.Intn(prim.NumKinds)),
				Dst:      prim.SymID(rng.Intn(nsyms)),
				Src:      prim.SymID(rng.Intn(nsyms)),
				Op:       prim.Op(rng.Intn(5)),
				Strength: prim.Strength(rng.Intn(3)),
				Loc:      prim.Loc{File: file, Line: int32(rng.Intn(100))},
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			return false
		}
		p2, err := r.Program()
		if err != nil {
			return false
		}
		if len(p2.Assigns) != len(p.Assigns) || len(p2.Syms) != len(p.Syms) {
			return false
		}
		// Compare as multisets.
		count := map[resolvedAssign]int{}
		for _, a := range resolveAssigns(p) {
			count[a]++
		}
		for _, a := range resolveAssigns(p2) {
			count[a]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsProgramVars(t *testing.T) {
	p := sampleProgram()
	r := writeRead(t, p)
	st := r.Stats()
	// x, y, q are program vars; f, f$1, f$ret are not.
	if st.ProgramVars != 3 {
		t.Errorf("ProgramVars = %d, want 3", st.ProgramVars)
	}
}

func TestEmptyProgram(t *testing.T) {
	r := writeRead(t, &prim.Program{})
	if r.NumSyms() != 0 {
		t.Errorf("syms = %d", r.NumSyms())
	}
	if _, err := r.Statics(); err != nil {
		t.Errorf("statics: %v", err)
	}
}

func TestWriterRejectsBadSource(t *testing.T) {
	p := &prim.Program{}
	p.AddSym(prim.Symbol{Name: "x"})
	p.Assigns = append(p.Assigns, prim.Assign{Kind: prim.Simple, Dst: 0, Src: 99})
	var buf bytes.Buffer
	if err := Write(&buf, p); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestFileRemovedAfterOpenStillReadable(t *testing.T) {
	// The reader holds the fd; unlinking must not break demand loads.
	dir := t.TempDir()
	path := filepath.Join(dir, "a.clo")
	p := sampleProgram()
	if err := WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	os.Remove(path)
	if _, err := r.Block(p.SymIDByName("y")); err != nil {
		t.Errorf("block after unlink: %v", err)
	}
}

// TestDecodedStringsAreCopies: decoded names are substrings of the
// pool's one copy, never views of the input bytes, so a caller may
// reuse those bytes once the decode returns.
func TestDecodedStringsAreCopies(t *testing.T) {
	p := fuzzSeedProgram()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	in := buf.Bytes()
	r, err := NewReader(bytes.NewReader(in), int64(len(in)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Program()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewStringPool(p)
	sec := AppendSymbols(nil, pool, p.Syms)
	poolBytes := pool.Bytes()
	strs, err := DecodeStrings(poolBytes)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := DecodeSymbols(sec, strs)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{in, poolBytes} {
		for i := range b {
			b[i] = 'X'
		}
	}
	want := p.Canonical()
	if c := got.Canonical(); !reflect.DeepEqual(c.Syms, want.Syms) || !reflect.DeepEqual(c.Strs, want.Strs) {
		t.Fatalf("after overwriting the input: reader %+v %q, want %+v %q", c.Syms, c.Strs, want.Syms, want.Strs)
	}
	for i := range p.Syms {
		s := syms[i]
		if strs[s.Loc.File] != p.Str(p.Syms[i].Loc.File) {
			t.Fatalf("symbol %d after overwriting the pool: file %q", i, strs[s.Loc.File])
		}
		s.Loc.File = p.Syms[i].Loc.File
		if s != p.Syms[i] {
			t.Fatalf("symbol %d after overwriting the pool: %+v, want %+v", i, s, p.Syms[i])
		}
	}
	for i, a := range got.Assigns {
		if got.Str(a.Loc.File) != "a.c" || (a.Func != 0 && got.Str(a.Func) != "f") {
			t.Fatalf("assign %d after overwriting the input: %+v", i, a)
		}
	}
}
