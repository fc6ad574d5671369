// Package snapfile implements the CLA solved-snapshot format (v2 of the
// on-disk story): an indexed-block binary serialization of a *solved*
// analysis — the post-extmodel program and the interned points-to sets —
// so a query server can cold-start by paging the file in instead of
// re-parsing and re-solving. The layout follows the object format's
// idiom (magic + version + section table + string pool) and adds what
// serving needs: 8-byte-aligned sections so points-to set payloads can
// be used in place from an mmap without decoding, a jobs-independence
// digest over the result, and content hashes of the inputs for
// staleness detection.
//
// The strings, symbols, funcs and calls sections are the object format's
// records, encoded and decoded by internal/objfile's record codec; this
// package owns the header and alignment, the assigns section, the
// points-to sections, the meta and report JSON, and the mmap reader.
//
// Layout (all integers little-endian):
//
//	header:   magic "CLAS", version u32, result digest u64 (a
//	          four-lane word-wise FNV-1a fold over every non-empty
//	          symbol's {id, set length, elements}, in ascending symbol
//	          order — identical at any -j; see resultDigest), source
//	          digest u64 (srchash FNV-1a over the source records),
//	          file size u64, section count u32, pad u32,
//	          section table: numSections × {offset u64, length u64};
//	          every section offset is 8-byte aligned
//	meta:     JSON: solver, extmodel, counts, pts.Metrics, source records
//	          {path, size, content hash}; a saved pipeline generation
//	          adds its solve digest and a CRC-32C checksum over meta
//	          and every other section
//	strings:  the object format's string pool: u32 count, then u32
//	          length + bytes per string, referenced by index (index 0 =
//	          ""), numbered in the order the sections first use them
//	symbols:  the object format's symbol section: u32 count, then 24-byte
//	          records {name u32, type u32, file u32, funcName u32,
//	          line i32, kind u8, flags u8, pad u16}
//	assigns:  u32 count, then fixed 24-byte records in original program
//	          order {dst u32, src u32, file u32, line i32, func u32,
//	           kind u8, op u8, strength u8, pad u8} — the full database,
//	          Base assignments included, so a MemSource rebuilt from the
//	          snapshot is identical to the live-solve one
//	funcs:    the object format's function records: u32 count, then
//	          {func u32, ret u32, variadic u8, pad×3, nparams u32,
//	           params u32...}
//	calls:    the object format's call sites: u32 count, then 24-byte
//	          records {callee u32, file u32, line i32, caller u32,
//	          args u32, indirect u8, pad×3}
//	ptsidx:   u32 count (= symbol count), then count × u32 set id;
//	          0xffffffff marks the empty set. Interning makes this double
//	          as the representative table: symbols the solver unified
//	          share one set id.
//	setidx:   u32 count, pad u32, then count × {start u64 (element index
//	          into elems), length u32, pad u32}; pads are zero, and the
//	          sets tile elems in id order, set ids numbered in the order
//	          ascending symbols first reference them
//	elems:    raw u32 array: every distinct set's elements, ascending,
//	          stored once (the sealed-set external encoding). The section
//	          is 8-byte aligned, so on little-endian hosts PointsTo
//	          returns subslices of the mapping itself — zero copies.
//	report:   JSON: a four-check report and the extmodel audit; null in
//	          every public writer's files, since decoding the JSON costs
//	          what recomputing the report on first use does
//
// Open recomputes the result digest over every element of every symbol
// and compares it with the header's, and requires the layout above
// exactly, so a flip anywhere in ptsidx, setidx or elems is refused.
//
// Version policy: readers accept exactly one version; any incompatible
// layout change bumps Version and old snapshots are rebuilt, never
// migrated (a snapshot is a cache of a solve, not a database of record).
package snapfile

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"cla/internal/checks"
	"cla/internal/claerr"
	"cla/internal/prim"
	"cla/internal/pts"
)

// Magic identifies CLA solved-snapshot files.
const Magic = "CLAS"

// Version is the current snapshot format version. Version 2 redefined
// the header's result digest as the four-lane fold of resultDigest;
// version 3 references strings by index into the object format's
// counted, first-use-ordered pool.
const Version = 3

// section ids, in file order.
const (
	secMeta = iota
	secStrings
	secSymbols
	secAssigns
	secFuncs
	secCalls
	secPtsIdx
	secSetIdx
	secElems
	secReport
	numSections
)

const (
	headerSize = 4 + 4 + 8 + 8 + 8 + 4 + 4 + numSections*16
	asgRecSize = 24
	setIdxRec  = 16
	noSet      = 0xffffffff
)

// Snapshot is the in-memory payload a snapshot file serializes: one
// solved analysis plus the serving-layer caches derived from it.
type Snapshot struct {
	// Prog is the full post-extmodel database the solve ran on.
	Prog *prim.Program
	// Res is the solved points-to relation.
	Res pts.Result
	// Solver and ExtModel label the configuration that produced Res
	// (driver.Solver and extmodel.Model display strings).
	Solver   string
	ExtModel string
	// Report is a four-check report the serving layer would otherwise
	// compute on first use (nil stores none, as every public writer
	// does).
	Report *checks.Report
	// Audit is the extmodel soundness inventory (nil skips it).
	Audit *checks.Audit
	// Sources are the input files the snapshot was built from, recorded
	// for staleness detection.
	Sources []SourceFile
	// Generation, when nonzero, names the solved generation the snapshot
	// saves (the incremental pipeline's solve digest); the meta section
	// then records it and a checksum of the file.
	Generation uint64
}

// SourceFile records one input's identity for staleness checks.
type SourceFile struct {
	Path string `json:"path"`
	Size int64  `json:"size"`
	// Hash is the FNV-1a 64-bit content hash, 16 hex digits (a string
	// because JSON numbers cannot carry 64 bits exactly).
	Hash string `json:"hash"`
}

// Meta is the snapshot's JSON meta section.
type Meta struct {
	Solver   string       `json:"solver"`
	ExtModel string       `json:"extmodel"`
	Syms     int          `json:"syms"`
	Assigns  int          `json:"assigns"`
	Sets     int          `json:"sets"`
	Elems    int          `json:"elems"`
	Metrics  pts.Metrics  `json:"metrics"`
	Sources  []SourceFile `json:"sources,omitempty"`
	// Generation is the incremental pipeline's solve digest of the
	// saved generation (Snapshot.Generation), 16 hex digits; empty for
	// snapshots that name none.
	Generation string `json:"generation,omitempty"`
	// Checksum is the CRC-32C of every section but meta, preceded by
	// this meta section as encoded with Checksum empty, 8 hex digits.
	// Snapshots that name a generation carry one, because they are
	// served in place of a solve with no source check. Open verifies it
	// when present and refuses a Generation without one.
	Checksum string `json:"checksum,omitempty"`
}

// reportBlob is the report section's JSON shape.
type reportBlob struct {
	Report *checks.Report `json:"report"`
	Audit  *checks.Audit  `json:"audit,omitempty"`
}

var le = binary.LittleEndian

// CorruptError reports a malformed snapshot: truncated, bit-flipped or
// otherwise not what Write produces.
type CorruptError struct{ Detail string }

func (e *CorruptError) Error() string { return "snapfile: corrupt snapshot: " + e.Detail }

// corrupt builds a *CorruptError.
func corrupt(format string, args ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, args...)}
}

// FNV-1a 64-bit constants for the result digest's lanes, kept here
// rather than taken from srchash: the digest is part of the file
// format, which must not move when the source hashing scheme does.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// resultDigest is the header's result digest. It reads the relation as
// one stream of u32 words: for every symbol with a non-empty set, in
// ascending symbol order, its id, its set's length and its elements.
// Word k, w, folds into lane k mod 4 as h = (h ^ w) * fnvPrime, so four
// independent multiplies are in flight per four words; sum folds the
// four lanes, in lane order, into one more FNV-1a state. The stream is
// the relation itself, so the digest is the same at any -j and under
// any set numbering.
type resultDigest struct {
	h [4]uint64 // h[i] is lane (n+i) mod 4: h[0] takes the next word
	n int       // words folded
}

// newResultDigest returns the digest state of an empty stream.
func newResultDigest() resultDigest {
	return resultDigest{h: [4]uint64{fnvOffset, fnvOffset, fnvOffset, fnvOffset}}
}

// symbol folds one symbol's id, set length and set elements.
func (d *resultDigest) symbol(id prim.SymID, set []prim.SymID) {
	a, b, c, e := d.h[0], d.h[1], d.h[2], d.h[3]
	a, b, c, e = b, c, e, (a^uint64(uint32(id)))*fnvPrime
	a, b, c, e = b, c, e, (a^uint64(len(set)))*fnvPrime
	for w := set; len(w) >= 4; w = w[4:] {
		a = (a ^ uint64(uint32(w[0]))) * fnvPrime
		b = (b ^ uint64(uint32(w[1]))) * fnvPrime
		c = (c ^ uint64(uint32(w[2]))) * fnvPrime
		e = (e ^ uint64(uint32(w[3]))) * fnvPrime
	}
	for _, x := range set[len(set)&^3:] {
		a, b, c, e = b, c, e, (a^uint64(uint32(x)))*fnvPrime
	}
	d.h = [4]uint64{a, b, c, e}
	d.n += 2 + len(set)
}

// sum returns the digest of the words folded so far.
func (d *resultDigest) sum() uint64 {
	h := uint64(fnvOffset)
	for lane := 0; lane < 4; lane++ {
		h = (h ^ d.h[(lane-d.n%4+4)%4]) * fnvPrime
	}
	return h
}

// castagnoli is the CRC-32C table behind Meta.Checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum computes Meta.Checksum: meta encoded with an empty Checksum,
// then every other section in file order.
func checksum(meta Meta, secs *[numSections][]byte) (string, error) {
	meta.Checksum = ""
	b, err := json.Marshal(meta)
	if err != nil {
		return "", err
	}
	c := crc32.Checksum(b, castagnoli)
	for i, sec := range secs {
		if i != secMeta {
			c = crc32.Update(c, castagnoli, sec)
		}
	}
	return fmt.Sprintf("%08x", c), nil
}

// stale builds a staleness error wrapping claerr.ErrStale, so callers
// (and the serving layer's status mapping) can test with errors.Is.
func stale(format string, args ...any) error {
	return fmt.Errorf("snapfile: %s: %w", fmt.Sprintf(format, args...), claerr.ErrStale)
}
