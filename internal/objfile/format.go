// Package objfile implements the CLA object-file format: an indexed,
// database-like binary representation of a translation unit's primitive
// assignments, designed so an analysis can dynamically load just the
// components it needs and re-load them after discarding.
//
// Layout (all integers little-endian):
//
//	header:   magic "CLAO", version u32, assignment counts by kind (5×u64),
//	          section table: numSections × {offset u64, size u64}
//	strings:  string pool: u32 count, then per string u32 length +
//	          bytes; referenced by index, index 0 = "", numbered in the
//	          order the sections below first use them
//	symbols:  u32 count, then fixed 24-byte records
//	          {name u32, type u32, file u32, funcName u32, line i32,
//	           kind u8, flags u8, pad u16}
//	static:   address-of assignments (x = &y), always loaded by the
//	          points-to analysis: u32 count, then 24-byte records
//	          {dst u32, src u32, file u32, line i32, func u32,
//	           op u8, strength u8, pad u16}
//	blocks:   the dynamic section: one block per object, holding the
//	          primitive assignments whose *source* is that object; each
//	          entry is 20 bytes {kind u8, op u8, strength u8, pad u8,
//	          dst u32, file u32, line i32, func u32}
//	blockidx: per-symbol index into blocks: numSyms × {offset u64,
//	          count u32} — supports one-lookup demand loading
//	funcs:    function records for call linking: u32 count, then
//	          {func u32, ret u32 (NoSym=0xffffffff), variadic u8, pad×3,
//	           nparams u32, params u32...}
//	targets:  sorted (name, sym) pairs for target lookup by name:
//	          u32 count, then {name u32, sym u32}, ordered by string
//	calls:    call-site records for analysis clients: u32 count, then
//	          24-byte records {callee u32, file u32, line i32, caller u32,
//	          args u32, indirect u8, pad×3}
//
// Block entries do not repeat the file name of their location: the file is
// taken from the source symbol's declaration site when distinct files are
// not needed, and the full location is recoverable from the line plus the
// symbol's file, which is exact for the single-file translation units the
// compile phase emits per unit. The linker preserves per-assignment files
// by re-writing symbols' file offsets.
//
// The string pool and the symbol, function-record and call-site
// sections are also the solved-snapshot format's (internal/snapfile);
// records.go holds their one encoder and decoder.
package objfile

import (
	"encoding/binary"
	"fmt"

	"cla/internal/prim"
)

// Magic identifies CLA object files.
const Magic = "CLAO"

// Version is the current format version. Version 4 added the call-site
// section and the enclosing-function reference on static and block records;
// version 5 added the defined flag on symbol records. Version 6 changed no
// layout: a unit's program carries only the header entries it uses, so
// a store holding units compiled before that misses and is refilled.
// Version 7 references strings by index into a counted pool, numbered in
// first-use order, so a decoded record's string index is its prim.Str.
const Version = 7

// section ids.
const (
	secStrings = iota
	secSymbols
	secStatic
	secBlocks
	secBlockIdx
	secFuncs
	secTargets
	secCalls
	numSections
)

const (
	staticRec    = 24 // dst u32, src u32, file u32, line i32, func u32, op u8, strength u8, pad u16
	blockRecSize = 20 // kind u8, op u8, strength u8, pad u8, dst u32, file u32, line i32, func u32
	idxRecSize   = 12
)

// BlockEntry is one demand-loaded primitive assignment from an object's
// block. The entry's source is implicit (the block's object); Kind says
// how Dst relates to it.
type BlockEntry struct {
	Kind     prim.Kind
	Dst      prim.SymID
	Op       prim.Op
	Strength prim.Strength
	Loc      prim.Loc
	Func     prim.Str
}

// Assign reconstructs the full primitive assignment given the block's
// source symbol.
func (e BlockEntry) Assign(src prim.SymID) prim.Assign {
	return prim.Assign{
		Kind: e.Kind, Dst: e.Dst, Src: src,
		Op: e.Op, Strength: e.Strength, Loc: e.Loc, Func: e.Func,
	}
}

// Stats summarizes a database, matching the columns of Table 2.
type Stats struct {
	Syms         int
	Assigns      [prim.NumKinds]int
	FileSize     int64
	ProgramVars  int // named program variables (not temps/heap/params)
	TotalAssigns int
}

func (s Stats) String() string {
	return fmt.Sprintf("syms=%d vars=%d assigns=%v", s.Syms, s.ProgramVars, s.Assigns)
}

var le = binary.LittleEndian

// CorruptError reports a malformed database. Detail carries no package
// prefix, so the snapshot format, which decodes its string pool and its
// symbol, function and call records with this package's codec, can
// report the same failure as a corrupt snapshot.
type CorruptError struct{ Detail string }

func (e *CorruptError) Error() string { return "objfile: corrupt database: " + e.Detail }

// corrupt builds a corruption error.
func corrupt(format string, args ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, args...)}
}
