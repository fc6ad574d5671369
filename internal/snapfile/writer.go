package snapfile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cla/internal/objfile"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/set"
	"cla/internal/srchash"
)

// Write serializes the solved snapshot to w. The output is a pure
// function of the Snapshot's contents: the solved relation is
// deterministic at any -j, so every section except meta is
// byte-identical at any worker count — the property the header's result
// digest certifies. (Meta carries pts.Metrics, whose execution-trace
// counters — waves, cache hits — legitimately vary with the schedule.)
func Write(w io.Writer, s *Snapshot) error {
	if s.Prog == nil || s.Res == nil {
		return fmt.Errorf("snapfile: nil program or result")
	}
	prog := s.Prog
	// Strings, symbols, funcs and calls are the object format's records,
	// written by its codec; the pool numbers strings in section order.
	pool := objfile.NewStringPool(prog)
	var sections [numSections][]byte
	sections[secSymbols] = objfile.AppendSymbols(nil, pool, prog.Syms)

	// Assignments in original order — the whole database, so a MemSource
	// rebuilt from the snapshot blocks identically to the live one.
	asg := make([]byte, 0, 4+len(prog.Assigns)*asgRecSize)
	asg = le.AppendUint32(asg, uint32(len(prog.Assigns)))
	for _, a := range prog.Assigns {
		asg = le.AppendUint32(asg, objfile.EncodeSymID(a.Dst))
		asg = le.AppendUint32(asg, objfile.EncodeSymID(a.Src))
		asg = le.AppendUint32(asg, pool.Str(a.Loc.File))
		asg = le.AppendUint32(asg, uint32(a.Loc.Line))
		asg = le.AppendUint32(asg, pool.Str(a.Func))
		asg = append(asg, uint8(a.Kind), uint8(a.Op), uint8(a.Strength), 0)
	}
	sections[secAssigns] = asg
	sections[secFuncs] = objfile.AppendFuncs(nil, prog.Funcs)
	sections[secCalls] = objfile.AppendCalls(nil, pool, prog.Calls)

	// Points-to sets, interned through the shared sealed-set layer so
	// each distinct payload is stored once and referenced by id.
	// Ascending symbol order makes id assignment (and the file)
	// deterministic; the result digest folds every symbol's elements.
	var (
		b       set.Builder
		table   = set.NewTable()
		setID   = map[*set.Set]uint32{}
		scratch []uint32
		nextID  uint32
		elems   []byte
		digest  = newResultDigest()
	)
	ptsIdx := make([]byte, 0, 4+len(prog.Syms)*4)
	ptsIdx = le.AppendUint32(ptsIdx, uint32(len(prog.Syms)))
	setIdx := make([]byte, 8) // set count (patched below) and pad
	for i := range prog.Syms {
		targets := s.Res.PointsTo(prim.SymID(i))
		if len(targets) == 0 {
			ptsIdx = le.AppendUint32(ptsIdx, noSet)
			continue
		}
		b.Reset()
		b.MergeSyms(targets)
		sealed := b.Seal(nil, table)
		id, ok := setID[sealed]
		if !ok {
			id = nextID
			nextID++
			setID[sealed] = id
			scratch = sealed.AppendU32(scratch[:0])
			setIdx = le.AppendUint64(setIdx, uint64(len(elems)/4))
			setIdx = le.AppendUint32(setIdx, uint32(len(scratch)))
			setIdx = le.AppendUint32(setIdx, 0)
			for _, x := range scratch {
				elems = le.AppendUint32(elems, x)
			}
		}
		// The digest covers the elements per symbol (not per distinct
		// set), so it certifies the full relation.
		digest.symbol(prim.SymID(i), targets)
		ptsIdx = le.AppendUint32(ptsIdx, id)
	}
	le.PutUint32(setIdx, nextID)
	sections[secPtsIdx], sections[secSetIdx], sections[secElems] = ptsIdx, setIdx, elems

	// Meta and report JSON sections. A saved generation keeps only the
	// metrics the program and its relation determine, so its bytes are
	// a function of the tree: the trace counters of a warm solve differ
	// from a scratch solve's of the same program.
	metrics := s.Res.Metrics()
	if s.Generation != 0 {
		metrics = pts.Metrics{PointerVars: metrics.PointerVars, Relations: metrics.Relations, InFile: metrics.InFile}
	}
	meta := Meta{
		Solver:   s.Solver,
		ExtModel: s.ExtModel,
		Syms:     len(prog.Syms),
		Assigns:  len(prog.Assigns),
		Sets:     int(nextID),
		Elems:    len(elems) / 4,
		Metrics:  metrics,
		Sources:  s.Sources,
	}
	repJSON, err := json.Marshal(reportBlob{Report: s.Report, Audit: s.Audit})
	if err != nil {
		return fmt.Errorf("snapfile: encode report: %w", err)
	}
	sections[secReport] = repJSON
	sections[secStrings] = pool.Bytes()
	if s.Generation != 0 {
		meta.Generation = srchash.Render(s.Generation)
		meta.Checksum, err = checksum(meta, &sections)
		if err != nil {
			return fmt.Errorf("snapfile: encode meta: %w", err)
		}
	}
	if sections[secMeta], err = json.Marshal(meta); err != nil {
		return fmt.Errorf("snapfile: encode meta: %w", err)
	}

	// Header + 8-byte-aligned section table.
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, Magic...)
	hdr = le.AppendUint32(hdr, Version)
	hdr = le.AppendUint64(hdr, digest.sum())
	hdr = le.AppendUint64(hdr, sourceDigest(s.Sources))
	off := uint64(align8(headerSize))
	var offs [numSections]uint64
	for i, sec := range sections {
		offs[i] = off
		off += uint64(align8(len(sec)))
	}
	hdr = le.AppendUint64(hdr, off) // total file size
	hdr = le.AppendUint32(hdr, numSections)
	hdr = le.AppendUint32(hdr, 0)
	for i, sec := range sections {
		hdr = le.AppendUint64(hdr, offs[i])
		hdr = le.AppendUint64(hdr, uint64(len(sec)))
	}

	bw := bufio.NewWriter(w)
	if err := writePadded(bw, hdr); err != nil {
		return err
	}
	for _, sec := range sections {
		if err := writePadded(bw, sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// writePadded writes b followed by zero padding to an 8-byte boundary.
func writePadded(w io.Writer, b []byte) error {
	if _, err := w.Write(b); err != nil {
		return err
	}
	if pad := align8(len(b)) - len(b); pad > 0 {
		var zeros [8]byte
		if _, err := w.Write(zeros[:pad]); err != nil {
			return err
		}
	}
	return nil
}

// Save serializes the snapshot to the named file. It writes a temporary
// file in the same directory and renames it over path, so a reader that
// has the previous file mapped keeps reading the old bytes: truncating a
// mapped file in place would kill that reader with SIGBUS. The file is
// not synced: a snapshot is a cache of a solve, rebuilt when lost.
func Save(path string, s *Snapshot) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = Write(f, s); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// HashFile records one input file's identity for staleness detection,
// using the toolkit-wide srchash scheme so the snapshot staleness check
// can never desynchronize from the driver cache or the incremental
// pipeline's unit store.
func HashFile(path string) (SourceFile, error) {
	hash, size, err := srchash.File(path)
	if err != nil {
		return SourceFile{}, err
	}
	return SourceFile{Path: path, Size: size, Hash: hash}, nil
}

// HashSources records every named input, in the given order.
func HashSources(paths []string) ([]SourceFile, error) {
	out := make([]SourceFile, 0, len(paths))
	for _, p := range paths {
		sf, err := HashFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, sf)
	}
	return out, nil
}

// sourceDigest folds the source records into one u64 for the header.
func sourceDigest(srcs []SourceFile) uint64 {
	h := srchash.Offset()
	for _, s := range srcs {
		h = srchash.FoldString(h, s.Path)
		h = srchash.Fold(h, []byte{0})
		h = srchash.FoldU64(h, uint64(s.Size))
		h = srchash.FoldString(h, s.Hash)
		h = srchash.Fold(h, []byte{'\n'})
	}
	return h
}
