package objfile

import (
	"io"
	"os"

	"cla/internal/prim"
)

// Reader provides indexed, demand-loaded access to an object database.
// Symbol metadata and the section index are resident; blocks are decoded
// on each request so callers can discard and re-load them freely — the
// load-and-throw-away strategy of the CLA analyze phase.
type Reader struct {
	r    io.ReaderAt
	size int64
	f    *os.File // owned file when opened by path

	secOff  [numSections]int64
	secLen  [numSections]int64
	counts  [prim.NumKinds]int
	strings Strings // resident string pool; a record's string ids index it
	syms    []prim.Symbol
	// blockIdx holds (offset, count) per symbol.
	blockOff []int64
	blockCnt []int32
	funcs    []prim.FuncRecord
	calls    []prim.CallSite

	// load accumulates the demand-load accounting; loadedBlk marks the
	// distinct blocks that have been decoded at least once.
	load      LoadStats
	loadedBlk []bool
}

// Open opens the named object file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.f = f
	return r, nil
}

// ReadFile decodes the whole named object file.
func ReadFile(path string) (*prim.Program, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Program()
}

// Close releases the underlying file, if owned.
func (r *Reader) Close() error {
	if r.f != nil {
		return r.f.Close()
	}
	return nil
}

// NewReader parses the header, symbol table and indexes from ra.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{r: ra, size: size}
	hdrSize := int64(4 + 4 + 8*prim.NumKinds + numSections*16)
	if size < hdrSize {
		return nil, corrupt("file too small (%d bytes)", size)
	}
	hdr := make([]byte, hdrSize)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != Magic {
		return nil, corrupt("bad magic %q", hdr[:4])
	}
	if v := le.Uint32(hdr[4:]); v != Version {
		return nil, corrupt("unsupported version %d (want %d)", v, Version)
	}
	p := 8
	for i := 0; i < prim.NumKinds; i++ {
		r.counts[i] = int(le.Uint64(hdr[p:]))
		p += 8
	}
	for i := 0; i < numSections; i++ {
		r.secOff[i] = int64(le.Uint64(hdr[p:]))
		r.secLen[i] = int64(le.Uint64(hdr[p+8:]))
		p += 16
		if r.secOff[i] < hdrSize || r.secLen[i] < 0 || r.secLen[i] > size ||
			r.secOff[i]+r.secLen[i] > size {
			return nil, corrupt("section %d out of bounds", i)
		}
	}
	// Read the resident sections; statics and blocks stay on disk until
	// requested, and the target index, which no reader looks names up
	// in, is only checked for its framing.
	var sec [numSections][]byte
	for _, i := range []int{secStrings, secSymbols, secBlockIdx, secFuncs, secCalls} {
		b, err := r.section(i)
		if err != nil {
			return nil, err
		}
		sec[i] = b
	}
	var err error
	if r.strings, err = DecodeStrings(sec[secStrings]); err != nil {
		return nil, err
	}
	if r.syms, err = DecodeSymbols(sec[secSymbols], r.strings); err != nil {
		return nil, err
	}
	if err = r.loadBlockIndex(sec[secBlockIdx]); err != nil {
		return nil, err
	}
	if r.funcs, err = DecodeFuncs(sec[secFuncs], len(r.syms)); err != nil {
		return nil, err
	}
	if err = r.checkTargets(); err != nil {
		return nil, err
	}
	if r.calls, err = DecodeCalls(sec[secCalls], r.strings, len(r.syms)); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) section(i int) ([]byte, error) {
	b := make([]byte, r.secLen[i])
	if _, err := r.r.ReadAt(b, r.secOff[i]); err != nil {
		return nil, err
	}
	return b, nil
}

func (r *Reader) loadBlockIndex(b []byte) error {
	if len(b) < 4 {
		return corrupt("block index too small")
	}
	n := int(le.Uint32(b))
	if n != len(r.syms) {
		return corrupt("block index count %d != symbol count %d", n, len(r.syms))
	}
	if len(b) != 4+n*idxRecSize {
		return corrupt("block index size mismatch")
	}
	r.blockOff = make([]int64, n)
	r.blockCnt = make([]int32, n)
	r.loadedBlk = make([]bool, n)
	for i := 0; i < n; i++ {
		rec := b[4+i*idxRecSize:]
		r.blockOff[i] = int64(le.Uint64(rec))
		r.blockCnt[i] = int32(le.Uint32(rec[8:]))
		end := r.blockOff[i] + int64(r.blockCnt[i])*blockRecSize
		if r.blockOff[i] < 0 || r.blockCnt[i] < 0 || end > r.secLen[secBlocks] {
			return corrupt("block for symbol %d out of bounds", i)
		}
		if r.blockCnt[i] > 0 {
			r.load.TotalBlocks++
			r.load.TotalEntries += int64(r.blockCnt[i])
		}
	}
	r.load.TotalBytes = r.secLen[secBlocks]
	return nil
}

// checkTargets checks the target section's framing, a u32 count of
// 8-byte records, without reading the records.
func (r *Reader) checkTargets() error {
	n := r.secLen[secTargets]
	if n < 4 {
		return corrupt("target section too small")
	}
	var b [4]byte
	if _, err := r.r.ReadAt(b[:], r.secOff[secTargets]); err != nil {
		return err
	}
	if n != 4+8*int64(le.Uint32(b[:])) {
		return corrupt("target section size mismatch")
	}
	return nil
}

// NumSyms returns the number of symbols.
func (r *Reader) NumSyms() int { return len(r.syms) }

// Sym returns the symbol with the given id.
func (r *Reader) Sym(id prim.SymID) *prim.Symbol { return &r.syms[id] }

// Syms returns the resident symbol table.
func (r *Reader) Syms() []prim.Symbol { return r.syms }

// Counts returns the per-kind assignment counts from the header.
func (r *Reader) Counts() [prim.NumKinds]int { return r.counts }

// Funcs returns the function records.
func (r *Reader) Funcs() []prim.FuncRecord { return r.funcs }

// Calls returns the call-site records.
func (r *Reader) Calls() []prim.CallSite { return r.calls }

// Str returns the string id names. Every id a decoded record holds was
// checked against the pool.
func (r *Reader) Str(id prim.Str) string { return r.strings[id] }

// Strs returns the string table the records' ids name (prim.Program.Strs).
func (r *Reader) Strs() []string { return r.strings.Table() }

// Statics decodes the always-loaded address-of section.
func (r *Reader) Statics() ([]prim.Assign, error) {
	b, err := r.section(secStatic)
	if err != nil {
		return nil, err
	}
	if len(b) < 4 {
		return nil, corrupt("static section too small")
	}
	n := int(le.Uint32(b))
	if n < 0 || n > len(b) || len(b) != 4+n*staticRec {
		return nil, corrupt("static section size mismatch")
	}
	out := make([]prim.Assign, 0, n)
	for i := 0; i < n; i++ {
		rec := b[4+i*staticRec:]
		a := prim.Assign{
			Kind:     prim.Base,
			Dst:      DecodeSymID(le.Uint32(rec)),
			Src:      DecodeSymID(le.Uint32(rec[4:])),
			Op:       prim.Op(rec[20]),
			Strength: prim.Strength(rec[21]),
		}
		file, err := r.strings.ID(le.Uint32(rec[8:]))
		if err != nil {
			return nil, err
		}
		if a.Func, err = r.strings.ID(le.Uint32(rec[16:])); err != nil {
			return nil, err
		}
		a.Loc = prim.Loc{File: file, Line: int32(le.Uint32(rec[12:]))}
		if err := CheckSym(a.Dst, len(r.syms)); err != nil {
			return nil, err
		}
		if err := CheckSym(a.Src, len(r.syms)); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	r.load.StaticLoads++
	r.load.StaticEntries += int64(n)
	return out, nil
}

// BlockLen returns the number of assignments in sym's block without
// loading it.
func (r *Reader) BlockLen(sym prim.SymID) int {
	if int(sym) < 0 || int(sym) >= len(r.blockCnt) {
		return 0
	}
	return int(r.blockCnt[sym])
}

// Block demand-loads the primitive assignments whose source is sym. The
// returned slice is freshly decoded; callers may keep or discard it.
func (r *Reader) Block(sym prim.SymID) ([]BlockEntry, error) {
	if int(sym) < 0 || int(sym) >= len(r.blockOff) {
		return nil, corrupt("block request for bad symbol %d", sym)
	}
	n := int(r.blockCnt[sym])
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, n*blockRecSize)
	if _, err := r.r.ReadAt(b, r.secOff[secBlocks]+r.blockOff[sym]); err != nil {
		return nil, err
	}
	return r.decodeBlock(sym, b)
}

// decodeBlock decodes sym's block from b, its bytes, and counts the
// load.
func (r *Reader) decodeBlock(sym prim.SymID, b []byte) ([]BlockEntry, error) {
	n := len(b) / blockRecSize
	out := make([]BlockEntry, n)
	for i := 0; i < n; i++ {
		rec := b[i*blockRecSize:]
		kind := prim.Kind(rec[0])
		if !kind.Valid() || kind == prim.Base {
			return nil, corrupt("block entry %d of symbol %d has kind %d", i, sym, kind)
		}
		dst := DecodeSymID(le.Uint32(rec[4:]))
		if err := CheckSym(dst, len(r.syms)); err != nil {
			return nil, err
		}
		file, err := r.strings.ID(le.Uint32(rec[8:]))
		if err != nil {
			return nil, err
		}
		fn, err := r.strings.ID(le.Uint32(rec[16:]))
		if err != nil {
			return nil, err
		}
		out[i] = BlockEntry{
			Kind:     kind,
			Op:       prim.Op(rec[1]),
			Strength: prim.Strength(rec[2]),
			Dst:      dst,
			Loc:      prim.Loc{File: file, Line: int32(le.Uint32(rec[12:]))},
			Func:     fn,
		}
	}
	if !r.loadedBlk[sym] {
		r.loadedBlk[sym] = true
		r.load.BlocksLoaded++
	}
	r.load.BlockLoads++
	r.load.EntriesLoaded += int64(n)
	r.load.BytesLoaded += int64(len(b))
	return out, nil
}

// Stats summarizes the database.
func (r *Reader) Stats() Stats {
	st := Stats{Syms: len(r.syms), Assigns: r.counts, FileSize: r.size}
	for i := range r.counts {
		st.TotalAssigns += r.counts[i]
	}
	for i := range r.syms {
		switch r.syms[i].Kind {
		case prim.SymGlobal, prim.SymStatic, prim.SymLocal, prim.SymField:
			st.ProgramVars++
		}
	}
	return st
}

// Program decodes the entire database into memory, for tests and the
// whole-program (non-demand) analysis modes.
// It reads the blocks section once.
func (r *Reader) Program() (*prim.Program, error) {
	p := &prim.Program{Syms: append([]prim.Symbol(nil), r.syms...), Strs: r.Strs()}
	statics, err := r.Statics()
	if err != nil {
		return nil, err
	}
	p.Assigns = append(make([]prim.Assign, 0, len(statics)+int(r.load.TotalEntries)), statics...)
	blocks, err := r.section(secBlocks)
	if err != nil {
		return nil, err
	}
	for id := range r.syms {
		n := int64(r.blockCnt[id])
		if n == 0 {
			continue
		}
		off := r.blockOff[id]
		entries, err := r.decodeBlock(prim.SymID(id), blocks[off:off+n*blockRecSize])
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			p.Assigns = append(p.Assigns, e.Assign(prim.SymID(id)))
		}
	}
	p.Funcs = append(p.Funcs, r.funcs...)
	p.Calls = append(p.Calls, r.calls...)
	return p, nil
}
