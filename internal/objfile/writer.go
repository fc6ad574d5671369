package objfile

import (
	"bufio"
	"io"
	"os"
	"sort"

	"cla/internal/prim"
)

// Write serializes prog to w.
func Write(w io.Writer, prog *prim.Program) error {
	pool := NewStringPool(prog)
	var sections [numSections][]byte
	sections[secSymbols] = AppendSymbols(nil, pool, prog.Syms)

	// Static section (base assignments) and per-source blocks.
	blockOf := make([][]prim.Assign, len(prog.Syms))
	nStatic := 0
	for _, a := range prog.Assigns {
		if a.Kind == prim.Base {
			nStatic++
			continue
		}
		if int(a.Src) < 0 || int(a.Src) >= len(prog.Syms) {
			return corrupt("assignment source %d out of range", a.Src)
		}
		blockOf[a.Src] = append(blockOf[a.Src], a)
	}
	static := make([]byte, 0, 4+nStatic*staticRec)
	static = le.AppendUint32(static, uint32(nStatic))
	for _, a := range prog.Assigns {
		if a.Kind != prim.Base {
			continue
		}
		static = le.AppendUint32(static, EncodeSymID(a.Dst))
		static = le.AppendUint32(static, EncodeSymID(a.Src))
		static = le.AppendUint32(static, pool.Str(a.Loc.File))
		static = le.AppendUint32(static, uint32(a.Loc.Line))
		static = le.AppendUint32(static, pool.Str(a.Func))
		static = append(static, uint8(a.Op), uint8(a.Strength), 0, 0)
	}
	sections[secStatic] = static

	// Blocks + index.
	blocks := make([]byte, 0, (len(prog.Assigns)-nStatic)*blockRecSize)
	idx := make([]byte, 0, 4+len(prog.Syms)*idxRecSize)
	idx = le.AppendUint32(idx, uint32(len(prog.Syms)))
	for _, as := range blockOf {
		idx = le.AppendUint64(idx, uint64(len(blocks)))
		idx = le.AppendUint32(idx, uint32(len(as)))
		for _, a := range as {
			blocks = append(blocks, uint8(a.Kind), uint8(a.Op), uint8(a.Strength), 0)
			blocks = le.AppendUint32(blocks, EncodeSymID(a.Dst))
			blocks = le.AppendUint32(blocks, pool.Str(a.Loc.File))
			blocks = le.AppendUint32(blocks, uint32(a.Loc.Line))
			blocks = le.AppendUint32(blocks, pool.Str(a.Func))
		}
	}
	sections[secBlocks], sections[secBlockIdx] = blocks, idx

	sections[secFuncs] = AppendFuncs(nil, prog.Funcs)

	// Target index: sorted (name, sym) pairs over named program objects.
	type target struct {
		name string
		sym  prim.SymID
	}
	var targets []target
	for i := range prog.Syms {
		s := &prog.Syms[i]
		if s.Name == "" || s.Kind == prim.SymTemp {
			continue
		}
		targets = append(targets, target{s.Name, prim.SymID(i)})
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].name != targets[j].name {
			return targets[i].name < targets[j].name
		}
		return targets[i].sym < targets[j].sym
	})
	tsec := make([]byte, 0, 4+len(targets)*8)
	tsec = le.AppendUint32(tsec, uint32(len(targets)))
	for _, t := range targets {
		tsec = le.AppendUint32(tsec, pool.Add(t.name))
		tsec = le.AppendUint32(tsec, EncodeSymID(t.sym))
	}
	sections[secTargets] = tsec

	sections[secCalls] = AppendCalls(nil, pool, prog.Calls)
	sections[secStrings] = pool.Bytes()

	// Header: magic, version, counts, section table.
	hdrSize := 4 + 4 + 8*prim.NumKinds + numSections*16
	hdr := make([]byte, 0, hdrSize)
	hdr = append(hdr, Magic...)
	hdr = le.AppendUint32(hdr, Version)
	for _, c := range prog.CountByKind() {
		hdr = le.AppendUint64(hdr, uint64(c))
	}
	off := uint64(hdrSize)
	for _, sec := range sections {
		hdr = le.AppendUint64(hdr, off)
		hdr = le.AppendUint64(hdr, uint64(len(sec)))
		off += uint64(len(sec))
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for _, sec := range sections {
		if _, err := bw.Write(sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile serializes prog to the named file.
func WriteFile(path string, prog *prim.Program) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, prog); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
