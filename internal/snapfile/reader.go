package snapfile

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"unsafe"

	"cla/internal/checks"
	"cla/internal/objfile"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/srchash"
)

// Options configures Open.
type Options struct {
	// NoMmap forces the buffered read path even where mmap is available
	// (benchmarking, or callers that must not hold a mapping).
	NoMmap bool
}

// Reader is an opened solved snapshot. The program, meta, report and set
// index are decoded eagerly and validated end to end at Open (including
// the result digest, so bit-flips anywhere in the set data are caught up
// front); the set elements themselves are served as views into the
// mapping when the platform allows, so PointsTo is allocation-free.
//
// Lifetime: Result remains valid until Close. Close unmaps the file;
// after it, set slices previously returned by Result().PointsTo must
// not be touched. Program, Meta and Report are decoded into copies and
// outlive Close. A serving process that never tears sessions down
// never calls Close.
type Reader struct {
	data   []byte
	mapped bool

	meta         Meta
	resultDigest uint64
	srcDigest    uint64
	prog         *prim.Program
	res          *Result
	report       *checks.Report
	audit        *checks.Audit
	zeroCopy     bool
}

// Result is the snapshot-backed pts.Result: O(1), read-only and safe
// for concurrent use, like every post-fixpoint snapshot in the system.
type Result struct {
	ptsIdx  []uint32
	start   []uint32
	length  []uint32
	elems   []prim.SymID
	metrics pts.Metrics
}

// PointsTo implements pts.Result. The returned slice aliases the
// snapshot mapping (zero-copy) and must be treated as read-only.
func (r *Result) PointsTo(sym prim.SymID) []prim.SymID {
	if int(sym) < 0 || int(sym) >= len(r.ptsIdx) {
		return nil
	}
	id := r.ptsIdx[sym]
	if id == noSet {
		return nil
	}
	s, n := r.start[id], r.length[id]
	return r.elems[s : s+n : s+n]
}

// Metrics implements pts.Result, returning the solve-time metrics the
// snapshot recorded.
func (r *Result) Metrics() pts.Metrics { return r.metrics }

// Open opens and validates the named snapshot. It maps the file when the
// platform supports it and falls back to a buffered read otherwise (or
// when opts.NoMmap is set); Mapped reports which path was taken.
func Open(path string, opts Options) (*Reader, error) {
	if mmapSupported && !opts.NoMmap {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		data, merr := mmapFile(f, st.Size())
		f.Close() // the mapping survives the descriptor
		if merr == nil {
			r, err := decode(data, true)
			if err != nil {
				munmap(data)
				return nil, err
			}
			return r, nil
		}
		// Graceful fallback: mmap can fail on exotic filesystems.
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data, false)
}

// OpenBytes validates a snapshot held in memory (tests, fuzzing).
func OpenBytes(data []byte) (*Reader, error) { return decode(data, false) }

// Close releases the mapping (a no-op for buffered reads). See the
// lifetime rules in the Reader doc.
func (r *Reader) Close() error {
	if !r.mapped {
		return nil
	}
	r.mapped = false
	data := r.data
	r.data = nil
	return munmap(data)
}

// Meta returns the snapshot's meta header.
func (r *Reader) Meta() Meta { return r.meta }

// Program returns the decoded post-extmodel database.
func (r *Reader) Program() *prim.Program { return r.prog }

// Result returns the snapshot-backed points-to relation.
func (r *Reader) Result() pts.Result { return r.res }

// Report returns the stored checks report, nil when none was stored.
func (r *Reader) Report() *checks.Report { return r.report }

// Audit returns the extmodel soundness inventory, nil when none stored.
func (r *Reader) Audit() *checks.Audit { return r.audit }

// ResultDigest returns the header's jobs-independence digest.
func (r *Reader) ResultDigest() uint64 { return r.resultDigest }

// Mapped reports whether the snapshot is mmap-backed.
func (r *Reader) Mapped() bool { return r.mapped }

// ZeroCopy reports whether set elements are served directly from the
// file bytes (little-endian host, aligned data) or were decode-copied.
func (r *Reader) ZeroCopy() bool { return r.zeroCopy }

// VerifySources re-hashes the inputs recorded at write time and fails
// with an error wrapping claerr.ErrStale when any is missing or
// changed. A snapshot with no recorded sources always verifies.
func (r *Reader) VerifySources() error {
	for _, want := range r.meta.Sources {
		got, err := HashFile(want.Path)
		if err != nil {
			return stale("source %s unreadable (%v)", want.Path, err)
		}
		if got.Size != want.Size || got.Hash != want.Hash {
			return stale("source %s changed since the snapshot was written", want.Path)
		}
	}
	return nil
}

// CheckGeneration fails with an error wrapping claerr.ErrStale unless
// the snapshot saves the pipeline generation with solve digest gen,
// solved by solver under extModel (driver.Solver and extmodel.Model
// display strings).
func (r *Reader) CheckGeneration(gen uint64, solver, extModel string) error {
	m := &r.meta
	if m.Generation != srchash.Render(gen) {
		return stale("snapshot saves generation %q, want %016x", m.Generation, gen)
	}
	if m.Solver != solver || m.ExtModel != extModel {
		return stale("snapshot solved by %s under %s, want %s under %s", m.Solver, m.ExtModel, solver, extModel)
	}
	return nil
}

// Prefault touches every page of the snapshot so a -preload'ed session
// pays its page-ins before READY rather than on the first query.
// Returns the number of bytes touched.
func (r *Reader) Prefault() int {
	var sink byte
	for i := 0; i < len(r.data); i += 4096 {
		sink ^= r.data[i]
	}
	_ = sink
	return len(r.data)
}

// hostLittleEndian gates the zero-copy view: the format is little-endian
// on disk, so only little-endian hosts may alias file bytes as integers.
var hostLittleEndian = binary.NativeEndian.Uint32([]byte{1, 0, 0, 0}) == 1

// u32View reinterprets b as a []uint32 without copying when safe
// (little-endian host, 4-byte alignment); ok=false means the caller
// must decode-copy.
func u32View(b []byte) (view []uint32, ok bool) {
	if len(b) == 0 {
		return nil, true
	}
	if !hostLittleEndian || uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4), true
}

// u32Decode copies b into a fresh []uint32 (the alignment/endianness
// fallback).
func u32Decode(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = le.Uint32(b[i*4:])
	}
	return out
}

// decode parses and validates an entire snapshot image. Every index is
// bounds-checked before use and every count is checked against its
// section's size before allocation, so hostile inputs error without
// panicking or over-allocating.
func decode(data []byte, mapped bool) (*Reader, error) {
	r := &Reader{data: data, mapped: mapped}
	if len(data) < headerSize {
		return nil, corrupt("file too small (%d bytes)", len(data))
	}
	if string(data[:4]) != Magic {
		return nil, corrupt("bad magic %q", data[:4])
	}
	if v := le.Uint32(data[4:]); v != Version {
		return nil, corrupt("unsupported version %d (want %d)", v, Version)
	}
	r.resultDigest = le.Uint64(data[8:])
	r.srcDigest = le.Uint64(data[16:])
	if sz := le.Uint64(data[24:]); sz != uint64(len(data)) {
		return nil, corrupt("header size %d != file size %d", sz, len(data))
	}
	if n := le.Uint32(data[32:]); n != numSections {
		return nil, corrupt("section count %d (want %d)", n, numSections)
	}
	var secs [numSections][]byte
	p := 40
	for i := 0; i < numSections; i++ {
		off := le.Uint64(data[p:])
		length := le.Uint64(data[p+8:])
		p += 16
		if off%8 != 0 || off < headerSize || off > uint64(len(data)) ||
			length > uint64(len(data))-off {
			return nil, corrupt("section %d out of bounds", i)
		}
		secs[i] = data[off : off+length]
	}

	if err := json.Unmarshal(secs[secMeta], &r.meta); err != nil {
		return nil, corrupt("meta section: %v", err)
	}
	switch {
	case r.meta.Checksum != "":
		sum, err := checksum(r.meta, &secs)
		if err != nil || sum != r.meta.Checksum {
			return nil, corrupt("checksum mismatch")
		}
	case r.meta.Generation != "":
		return nil, corrupt("generation %s without a checksum", r.meta.Generation)
	}
	var blob reportBlob
	if err := json.Unmarshal(secs[secReport], &blob); err != nil {
		return nil, corrupt("report section: %v", err)
	}
	r.report, r.audit = blob.Report, blob.Audit

	prog, err := decodeProgram(&secs)
	if err != nil {
		var ce *objfile.CorruptError
		if errors.As(err, &ce) {
			err = corrupt("%s", ce.Detail)
		}
		return nil, err
	}
	r.prog = prog

	res, zero, err := decodeResult(secs[secPtsIdx], secs[secSetIdx], secs[secElems],
		len(prog.Syms), r.resultDigest)
	if err != nil {
		return nil, err
	}
	res.metrics = r.meta.Metrics
	r.res = res
	r.zeroCopy = zero
	return r, nil
}

// decodeResult builds the Result and re-derives the result digest from
// the decoded relation, rejecting the file when it does not match the
// header — the set data's end-to-end integrity check. The layout checks
// leave nothing the digest does not cover: setidx pads are zero, the
// sets tile elems exactly in id order, and symbols first reference the
// sets in id order, so every element belongs to a set some symbol
// folds.
func decodeResult(idxSec, setSec, elemSec []byte, numSyms int, wantDigest uint64) (*Result, bool, error) {
	// ptsidx: count + one set id per symbol.
	if len(idxSec) < 4 {
		return nil, false, corrupt("ptsidx section too small")
	}
	if n := int(le.Uint32(idxSec)); n != numSyms || len(idxSec) != 4+n*4 {
		return nil, false, corrupt("ptsidx count %d (want %d symbols)", n, numSyms)
	}
	ptsIdx, _ := u32View(idxSec[4:])
	if ptsIdx == nil && numSyms > 0 {
		ptsIdx = u32Decode(idxSec[4:])
	}

	// setidx: count, pad, then {start u64, length u32, pad u32} records.
	if len(setSec) < 8 {
		return nil, false, corrupt("setidx section too small")
	}
	nSets := int(le.Uint32(setSec))
	if nSets < 0 || len(setSec) != 8+nSets*setIdxRec || le.Uint32(setSec[4:]) != 0 {
		return nil, false, corrupt("setidx size mismatch (%d sets, %d bytes)", nSets, len(setSec))
	}

	// elems: raw u32 array, zero-copy when alignment and endianness allow.
	if len(elemSec)%4 != 0 {
		return nil, false, corrupt("elems section has a ragged tail (%d bytes)", len(elemSec))
	}
	nElems := len(elemSec) / 4
	var elems []prim.SymID
	zero := false
	if view, ok := u32View(elemSec); ok {
		elems = unsafe.Slice((*prim.SymID)(unsafe.Pointer(unsafe.SliceData(view))), len(view))
		zero = nElems > 0
	} else {
		dec := u32Decode(elemSec)
		elems = make([]prim.SymID, len(dec))
		for i, x := range dec {
			elems[i] = prim.SymID(x)
		}
	}

	res := &Result{
		ptsIdx: ptsIdx,
		start:  make([]uint32, nSets),
		length: make([]uint32, nSets),
		elems:  elems,
	}
	next := uint64(0) // where the next set must start
	for i := 0; i < nSets; i++ {
		rec := setSec[8+i*setIdxRec:]
		start := le.Uint64(rec)
		length := le.Uint32(rec[8:])
		if start != next || le.Uint32(rec[12:]) != 0 {
			return nil, false, corrupt("set %d does not start where set %d ends", i, i-1)
		}
		if uint64(length) > uint64(nElems)-start {
			return nil, false, corrupt("set %d out of bounds", i)
		}
		if length == 0 {
			return nil, false, corrupt("set %d is empty (empty sets are implicit)", i)
		}
		// Elements must be strictly ascending symbol ids: the invariant
		// every consumer of pts.Result relies on.
		prev := prim.SymID(-1)
		for _, e := range elems[start : start+uint64(length)] {
			if e <= prev || int(e) >= numSyms {
				return nil, false, corrupt("set %d has bad element %d", i, e)
			}
			prev = e
		}
		res.start[i] = uint32(start)
		res.length[i] = length
		next = start + uint64(length)
	}
	if next != uint64(nElems) {
		return nil, false, corrupt("sets cover %d of %d elements", next, nElems)
	}

	digest := newResultDigest()
	fresh := uint32(0) // the set id the next new reference must name
	for i, id := range ptsIdx {
		if id == noSet {
			continue
		}
		if int(id) >= nSets {
			return nil, false, corrupt("symbol %d references set %d of %d", i, id, nSets)
		}
		if id > fresh {
			return nil, false, corrupt("symbol %d references set %d before set %d", i, id, fresh)
		}
		if id == fresh {
			fresh++
		}
		digest.symbol(prim.SymID(i), res.elems[res.start[id]:res.start[id]+res.length[id]])
	}
	if int(fresh) != nSets {
		return nil, false, corrupt("set %d of %d is unreferenced", fresh, nSets)
	}
	if digest.sum() != wantDigest {
		return nil, false, corrupt("result digest mismatch (corrupted set data)")
	}
	return res, zero, nil
}

// decodeProgram decodes the program sections: the object format's
// string pool and symbol, function and call records, and the snapshot's
// own program-order assignments. objfile's decoders fail with an
// *objfile.CorruptError, which decode re-reports as a corrupt snapshot.
func decodeProgram(secs *[numSections][]byte) (*prim.Program, error) {
	strs, err := objfile.DecodeStrings(secs[secStrings])
	if err != nil {
		return nil, err
	}
	syms, err := objfile.DecodeSymbols(secs[secSymbols], strs)
	if err != nil {
		return nil, err
	}
	p := &prim.Program{Syms: syms, Strs: strs.Table()}
	if p.Assigns, err = decodeAssigns(secs[secAssigns], uint32(len(strs)), len(syms)); err != nil {
		return nil, err
	}
	if p.Funcs, err = objfile.DecodeFuncs(secs[secFuncs], len(syms)); err != nil {
		return nil, err
	}
	if p.Calls, err = objfile.DecodeCalls(secs[secCalls], strs, len(syms)); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeAssigns decodes the assigns section, checking every kind,
// symbol id and string index (against a pool of numStrs strings). A
// record's string indexes are its prim.Str ids, and an Assign holds no
// pointers, so each record is one plain store.
func decodeAssigns(b []byte, numStrs uint32, numSyms int) ([]prim.Assign, error) {
	if len(b) < 4 {
		return nil, corrupt("assign section too small")
	}
	n := int(le.Uint32(b))
	if n < 0 || n > len(b) || len(b) != 4+n*asgRecSize {
		return nil, corrupt("assign section size mismatch (%d assigns, %d bytes)", n, len(b))
	}
	out := make([]prim.Assign, n)
	for i := range out {
		rec := b[4+i*asgRecSize : 4+(i+1)*asgRecSize]
		a := prim.Assign{
			Dst:      objfile.DecodeSymID(le.Uint32(rec)),
			Src:      objfile.DecodeSymID(le.Uint32(rec[4:])),
			Loc:      prim.Loc{File: prim.Str(le.Uint32(rec[8:])), Line: int32(le.Uint32(rec[12:]))},
			Func:     prim.Str(le.Uint32(rec[16:])),
			Kind:     prim.Kind(rec[20]),
			Op:       prim.Op(rec[21]),
			Strength: prim.Strength(rec[22]),
		}
		if !a.Kind.Valid() {
			return nil, corrupt("assign %d has bad kind %d", i, a.Kind)
		}
		if err := objfile.CheckSym(a.Dst, numSyms); err != nil {
			return nil, err
		}
		if err := objfile.CheckSym(a.Src, numSyms); err != nil {
			return nil, err
		}
		if uint32(a.Loc.File) >= numStrs || uint32(a.Func) >= numStrs {
			return nil, corrupt("assign %d has string index out of range (%d strings)", i, numStrs)
		}
		out[i] = a
	}
	return out, nil
}
