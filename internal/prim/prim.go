// Package prim defines the primitive-assignment intermediate representation
// shared by the compile, link and analyze phases of CLA.
//
// The compile phase breaks every C assignment, initializer, function call,
// argument binding and return down into primitive assignments involving at
// most one pointer operation. Exactly five kinds exist, matching the paper's
// intermediate language:
//
//	x = y      (Simple)
//	x = &y     (Base)
//	*x = y     (StoreInd)
//	x = *y     (LoadInd)
//	*x = *y    (CopyInd)
//
// Each primitive assignment additionally records the strength of the C
// operation it came from (Table 1 of the paper) and its source location, so
// that the dependence analysis can rank and print chains.
package prim

import (
	"fmt"
	"slices"
)

// Kind identifies one of the five primitive assignment forms.
type Kind uint8

// The five primitive assignment kinds.
const (
	Simple   Kind = iota // x = y
	Base                 // x = &y
	StoreInd             // *x = y
	LoadInd              // x = *y
	CopyInd              // *x = *y
	numKinds
)

// NumKinds is the number of distinct primitive assignment kinds.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	switch k {
	case Simple:
		return "x = y"
	case Base:
		return "x = &y"
	case StoreInd:
		return "*x = y"
	case LoadInd:
		return "x = *y"
	case CopyInd:
		return "*x = *y"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is one of the five defined kinds.
func (k Kind) Valid() bool { return k < numKinds }

// Strength classifies how strongly an operation propagates the shape and
// size of its input data (Table 1). Dependencies through Strong operations
// matter most for consistent type changes; None operations sever the
// dependence entirely.
type Strength uint8

const (
	// None: the operation's result range does not depend on the argument
	// (e.g. !, &&, ||, or the shift amount of >>).
	None Strength = iota
	// Weak: the result range depends loosely on the argument
	// (e.g. *, %, and the shifted operand of >> and <<).
	Weak
	// Strong: the result is shape/size preserving (e.g. +, -, |, &, ^,
	// unary +/- and plain copies).
	Strong
)

func (s Strength) String() string {
	switch s {
	case None:
		return "none"
	case Weak:
		return "weak"
	case Strong:
		return "strong"
	}
	return fmt.Sprintf("Strength(%d)", uint8(s))
}

// Op identifies the C operation an assignment flowed through, for printing
// dependence chains ("x = y+1" is more important than "x = y<<3").
type Op uint8

// Operations recorded on primitive assignments. OpCopy is a plain
// assignment with no intervening operation.
const (
	OpCopy Op = iota
	OpAdd     // +
	OpSub     // -
	OpOr      // |
	OpAnd     // &
	OpXor     // ^
	OpMul     // *
	OpDiv     // /
	OpMod     // %
	OpShr     // >>
	OpShl     // <<
	OpNeg     // unary -
	OpPos     // unary +
	OpNot     // !
	OpLAnd    // &&
	OpLOr     // ||
	OpCmpl    // ~
	OpCmp     // relational/equality operators
	OpCast    // type cast
	OpCond    // ?: merge
	numOps
)

var opNames = [...]string{
	OpCopy: "copy", OpAdd: "+", OpSub: "-", OpOr: "|", OpAnd: "&",
	OpXor: "^", OpMul: "*", OpDiv: "/", OpMod: "%", OpShr: ">>",
	OpShl: "<<", OpNeg: "u-", OpPos: "u+", OpNot: "!", OpLAnd: "&&",
	OpLOr: "||", OpCmpl: "~", OpCmp: "cmp", OpCast: "cast", OpCond: "?:",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// StrengthOf returns the Table 1 classification for operand position arg
// (0-based) of operation op. Positions beyond the table default to None.
//
//	+, -, |, &, ^      Strong / Strong
//	*                  Weak / Weak
//	%, >>, <<          Weak / None
//	unary +, -         Strong
//	&&, ||             None / None
//	!                  None
func StrengthOf(op Op, arg int) Strength {
	switch op {
	case OpCopy, OpCast, OpCond:
		// ?: has two value arms; copies and casts have one operand.
		if arg <= 1 {
			return Strong
		}
	case OpAdd, OpSub, OpOr, OpAnd, OpXor:
		if arg <= 1 {
			return Strong
		}
	case OpMul:
		if arg <= 1 {
			return Weak
		}
	case OpDiv:
		// Division behaves like % for its left operand: the result range
		// depends loosely on the dividend, not at all on the divisor.
		if arg == 0 {
			return Weak
		}
	case OpMod, OpShr, OpShl:
		if arg == 0 {
			return Weak
		}
	case OpNeg, OpPos, OpCmpl:
		if arg == 0 {
			return Strong
		}
	case OpNot, OpLAnd, OpLOr, OpCmp:
		return None
	}
	return None
}

// Str names a string in a Program's table (Program.Strs): file and
// function names, which repeat across thousands of records, are held
// once there, so Loc, Assign and CallSite carry no pointers. 0 is "".
type Str uint32

// StrTable resolves string ids: a Program, or a database source that
// holds one (pts.Source).
type StrTable interface{ Str(Str) string }

// Loc is a source location. File names a string in the enclosing
// program's table.
type Loc struct {
	File Str
	Line int32
}

// Pos renders l as "file:line" with its file resolved through t, or
// "<unknown>" when l has no file.
func (l Loc) Pos(t StrTable) string {
	if l.File == 0 {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d", t.Str(l.File), l.Line)
}

// IsZero reports whether the location is unset.
func (l Loc) IsZero() bool { return l.File == 0 && l.Line == 0 }

// SymID identifies a symbol within one object database. IDs are dense
// indexes assigned by the compile phase and remapped by the linker.
type SymID int32

// NoSym is the zero SymID sentinel for "no symbol".
const NoSym SymID = -1

// SymKind classifies database symbols.
type SymKind uint8

// Symbol kinds. Linkage is determined by kind: Global, Field, Func and the
// standardized Param/Ret symbols link across translation units by name;
// Static, Local, Temp and Heap symbols are private to their unit.
const (
	SymGlobal SymKind = iota // file-scope object with external linkage
	SymStatic                // file-scope object with internal linkage
	SymLocal                 // function-scope object
	SymField                 // struct/union field variable "S::f" (field-based mode)
	SymTemp                  // compiler-introduced temporary
	SymHeap                  // a static occurrence of malloc/calloc/...
	SymFunc                  // a function
	SymParam                 // standardized parameter "f$N"
	SymRet                   // standardized return "f$ret"
	SymString                // a string literal object (when modeled)
	SymExtern                // the abstract external-world object (extmodel)
	numSymKinds
)

// NumSymKinds is the number of distinct symbol kinds.
const NumSymKinds = int(numSymKinds)

var symKindNames = [...]string{
	SymGlobal: "global", SymStatic: "static", SymLocal: "local",
	SymField: "field", SymTemp: "temp", SymHeap: "heap",
	SymFunc: "func", SymParam: "param", SymRet: "ret", SymString: "string",
	SymExtern: "extern",
}

func (k SymKind) String() string {
	if int(k) < len(symKindNames) {
		return symKindNames[k]
	}
	return fmt.Sprintf("SymKind(%d)", uint8(k))
}

// Linked reports whether symbols of this kind are merged across translation
// units by name during the link phase.
func (k SymKind) Linked() bool {
	switch k {
	case SymGlobal, SymField, SymFunc, SymParam, SymRet:
		return true
	}
	return false
}

// Symbol is an object-database symbol: a program object the analysis can
// compute facts about.
type Symbol struct {
	Name     string // source name, or synthesized (S::f, f$1, heap@file:line)
	Kind     SymKind
	Type     string // printable C type, for chain output
	Loc      Loc    // declaration site
	FuncName string // enclosing function for locals/temps/params
	// FuncPtr marks symbols that are stored through as function pointers;
	// the analyzer links argument/return variables when functions reach
	// their points-to sets.
	FuncPtr bool
	// Internal forces internal linkage regardless of kind (e.g. static
	// functions and their standardized parameter/return symbols).
	Internal bool
	// Defined records whether this translation unit (or, after linking, any
	// linked unit) contains a defining occurrence of the symbol: a function
	// body, or an object declaration that reserves storage. Meaningful for
	// SymGlobal and SymFunc only; a linked symbol with Defined false is a
	// referenced-but-undefined external (see internal/extmodel).
	Defined bool
}

// LinksByName reports whether the linker merges this symbol with
// same-named symbols from other translation units.
func (s *Symbol) LinksByName() bool { return s.Kind.Linked() && !s.Internal }

// Describe renders s as "name/type <file:line>", its declaration site
// resolved through t: the form dependence chains print.
func (s *Symbol) Describe(t StrTable) string {
	return fmt.Sprintf("%s/%s <%s>", s.Name, s.Type, s.Loc.Pos(t))
}

// Assign is one primitive assignment. Dst and Src identify the symbols on
// each side; Kind says how they are related. For Base assignments Src is
// the object whose address is taken. An Assign is 24 bytes and holds no
// pointers, so copying an array of them needs no write barriers and the
// collector never scans one.
type Assign struct {
	Dst SymID
	Src SymID
	Loc Loc
	// Func names the enclosing function in the program's table, or is 0
	// ("") for assignments lowered at file scope (global initializers).
	// Analysis clients use it to attribute indirect stores and loads to
	// the frame they execute in.
	Func     Str
	Kind     Kind
	Op       Op
	Strength Strength
}

func (a Assign) String() string {
	switch a.Kind {
	case Simple:
		return fmt.Sprintf("#%d = #%d", a.Dst, a.Src)
	case Base:
		return fmt.Sprintf("#%d = &#%d", a.Dst, a.Src)
	case StoreInd:
		return fmt.Sprintf("*#%d = #%d", a.Dst, a.Src)
	case LoadInd:
		return fmt.Sprintf("#%d = *#%d", a.Dst, a.Src)
	case CopyInd:
		return fmt.Sprintf("*#%d = *#%d", a.Dst, a.Src)
	}
	return fmt.Sprintf("invalid assign kind %d", a.Kind)
}

// CallSite records one function-call expression in the source: the symbol
// the call goes through (a SymFunc for direct calls, a pointer variable or
// temporary for indirect calls), the enclosing caller and the source
// location. The analyze phase does not need call sites — argument/return
// flow is captured by assignments into standardized parameter symbols —
// but analysis clients (call-graph construction, MOD/REF propagation) do.
type CallSite struct {
	// Callee is the called function symbol (direct calls) or the
	// function-pointer symbol the call dereferences (indirect calls).
	Callee SymID
	// Caller names the enclosing function in the program's table, or is
	// 0 ("") at file scope.
	Caller Str
	Loc    Loc
	// Indirect marks calls through a function pointer; the callee set is
	// then the points-to set of Callee restricted to functions.
	Indirect bool
	// Args is the number of actual arguments at this site.
	Args int
}

// FuncRecord describes a function's standardized parameter and return
// symbols; the analyzer uses it to link indirect calls.
type FuncRecord struct {
	Func     SymID   // the SymFunc symbol
	Params   []SymID // f$1, f$2, ... in order
	Ret      SymID   // f$ret (NoSym for void functions)
	Variadic bool
}

// Program is the fully in-memory form of an object database, used as the
// interchange value between the frontend, the object-file writer and tests.
// The analyzer normally works from an objfile.Reader instead so that it can
// demand-load blocks.
type Program struct {
	Syms    []Symbol
	Assigns []Assign
	Funcs   []FuncRecord
	Calls   []CallSite
	// Strs is the string table the records' Str ids name: Strs[i-1] is
	// string i, and id 0 is "". A string may be in the table without a
	// record naming it, and its order is not part of the database: two
	// programs whose records resolve to the same strings are the same
	// database (Digest, and the file writers, resolve every id).
	Strs []string
}

// Str returns the string id names. Validate checks every id a record
// holds against the table.
func (p *Program) Str(id Str) string {
	if id == 0 {
		return ""
	}
	return p.Strs[id-1]
}

// Intern returns the id of s in p's table, adding s if absent. It scans
// the table and copies it to add, so a program that shares its table
// with another (a clone) never writes the other's: it suits producers
// that add a handful of strings. Bulk producers use an Interner.
func (p *Program) Intern(s string) Str {
	if s == "" {
		return 0
	}
	for i, t := range p.Strs {
		if t == s {
			return Str(i + 1)
		}
	}
	p.Strs = append(p.Strs[:len(p.Strs):len(p.Strs)], s)
	return Str(len(p.Strs))
}

// Canonical returns a copy of p whose table holds only the strings its
// records name, numbered in the order the symbols, then the assignments,
// then the call sites first name them. Two programs whose records
// resolve to the same strings have deep-equal canonical forms, whatever
// their tables' order: for comparing programs (tests, oracles). Function
// records are shared with p.
func (p *Program) Canonical() *Program {
	q := &Program{Syms: slices.Clone(p.Syms), Assigns: slices.Clone(p.Assigns),
		Calls: slices.Clone(p.Calls), Funcs: p.Funcs}
	in := NewInterner(q)
	for i := range q.Syms {
		q.Syms[i].Loc.File = in.Intern(p.Str(q.Syms[i].Loc.File))
	}
	for i := range q.Assigns {
		a := &q.Assigns[i]
		a.Loc.File, a.Func = in.Intern(p.Str(a.Loc.File)), in.Intern(p.Str(a.Func))
	}
	for i := range q.Calls {
		c := &q.Calls[i]
		c.Loc.File, c.Caller = in.Intern(p.Str(c.Loc.File)), in.Intern(p.Str(c.Caller))
	}
	return q
}

// Interner adds strings to a program's table, each once. Producers
// intern a name once per function or file and stamp its id on every
// record, not once per record.
type Interner struct {
	p   *Program
	ids map[string]Str
}

// NewInterner returns an interner over p's table, which may already
// hold strings; it appends to p.Strs.
func NewInterner(p *Program) *Interner {
	in := &Interner{p: p, ids: make(map[string]Str, len(p.Strs))}
	for i, s := range p.Strs {
		if _, dup := in.ids[s]; !dup {
			in.ids[s] = Str(i + 1)
		}
	}
	return in
}

// Intern returns the id of s, adding it to the table if absent.
func (in *Interner) Intern(s string) Str {
	if s == "" {
		return 0
	}
	if id, ok := in.ids[s]; ok {
		return id
	}
	in.p.Strs = append(in.p.Strs, s)
	id := Str(len(in.p.Strs))
	in.ids[s] = id
	return id
}

// AddSym appends a symbol and returns its id.
func (p *Program) AddSym(s Symbol) SymID {
	p.Syms = append(p.Syms, s)
	return SymID(len(p.Syms) - 1)
}

// AddAssign appends a primitive assignment.
func (p *Program) AddAssign(a Assign) { p.Assigns = append(p.Assigns, a) }

// AddCall appends a call-site record.
func (p *Program) AddCall(c CallSite) { p.Calls = append(p.Calls, c) }

// Sym returns the symbol for id. It panics on out-of-range ids, which
// indicate database corruption caught earlier by the objfile reader.
func (p *Program) Sym(id SymID) *Symbol { return &p.Syms[id] }

// CountByKind tallies assignments per kind, the statistic reported in
// Table 2 of the paper.
func (p *Program) CountByKind() [NumKinds]int {
	var n [NumKinds]int
	for _, a := range p.Assigns {
		n[a.Kind]++
	}
	return n
}

// SymIDByName returns the first symbol with the given name, or NoSym.
// Intended for tests and small tools; the objfile target section provides
// the indexed lookup used by the real analyzer.
func (p *Program) SymIDByName(name string) SymID {
	for i := range p.Syms {
		if p.Syms[i].Name == name {
			return SymID(i)
		}
	}
	return NoSym
}

// Validate checks the program's internal consistency: every assignment and
// function record references in-range symbols, kinds are well-formed, and
// function records reference function or function-pointer symbols. The
// linker and the transformers run it in tests to catch id-remapping bugs.
func (p *Program) Validate() error {
	n := SymID(len(p.Syms))
	checkID := func(what string, id SymID) error {
		if id < 0 || id >= n {
			return fmt.Errorf("prim: %s references symbol %d of %d", what, id, n)
		}
		return nil
	}
	checkStr := func(what string, i int, ids ...Str) error {
		for _, id := range ids {
			if int(id) > len(p.Strs) {
				return fmt.Errorf("prim: %s %d references string %d of %d", what, i, id, len(p.Strs))
			}
		}
		return nil
	}
	for i := range p.Syms {
		if int(p.Syms[i].Kind) >= NumSymKinds {
			return fmt.Errorf("prim: symbol %d has kind %d", i, p.Syms[i].Kind)
		}
		if err := checkStr("symbol", i, p.Syms[i].Loc.File); err != nil {
			return err
		}
	}
	for i, a := range p.Assigns {
		if !a.Kind.Valid() {
			return fmt.Errorf("prim: assignment %d has kind %d", i, a.Kind)
		}
		if err := checkID(fmt.Sprintf("assignment %d dst", i), a.Dst); err != nil {
			return err
		}
		if err := checkID(fmt.Sprintf("assignment %d src", i), a.Src); err != nil {
			return err
		}
		if err := checkStr("assignment", i, a.Loc.File, a.Func); err != nil {
			return err
		}
	}
	for i, c := range p.Calls {
		if err := checkID(fmt.Sprintf("call site %d", i), c.Callee); err != nil {
			return err
		}
		if c.Args < 0 {
			return fmt.Errorf("prim: call site %d has %d args", i, c.Args)
		}
		if err := checkStr("call site", i, c.Loc.File, c.Caller); err != nil {
			return err
		}
	}
	for i, f := range p.Funcs {
		if err := checkID(fmt.Sprintf("func record %d", i), f.Func); err != nil {
			return err
		}
		for j, prm := range f.Params {
			if err := checkID(fmt.Sprintf("func record %d param %d", i, j), prm); err != nil {
				return err
			}
		}
		if f.Ret != NoSym {
			if err := checkID(fmt.Sprintf("func record %d ret", i), f.Ret); err != nil {
				return err
			}
		}
	}
	return nil
}
