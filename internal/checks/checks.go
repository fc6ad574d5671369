// Package checks implements points-to-powered static-analysis clients: a
// suite of whole-program checks that consume a completed points-to
// analysis (any solver) together with the linked primitive-assignment
// database, and emit source-located diagnostics.
//
// The paper's thesis is that once aliasing analysis is this cheap it
// becomes a platform; these are the first downstream clients built on it:
//
//   - callgraph: resolve every indirect call site's callee set from the
//     points-to set of its function-pointer expression, report sites that
//     resolve to no function, and export the full call graph (DOT/JSON).
//   - modref: per-function MOD/REF summaries — the abstract objects each
//     function may write or read through pointers, directly or via calls.
//   - escape: stack-address escape — a local whose address flows into a
//     global, static, struct field, heap object or a function's return
//     value outlives its frame.
//   - deref: dereference sites whose pointer has an empty points-to set,
//     i.e. null/uninitialized-pointer dereference candidates.
//   - externs (opt-in): the incomplete-program soundness audit — the
//     referenced-but-undefined symbol inventory plus "verdict downgraded
//     by incompleteness" annotations on sites whose only evidence is the
//     external model of internal/extmodel.
//
// Determinism contract: Run produces identical output at every Jobs
// setting. Work is fanned out with internal/parallel over index-addressed
// slots (per call site, per sink symbol, per function scope), results are
// concatenated in slot order, and the final diagnostic list is sorted by
// (file, line, check, message). No check communicates through shared
// mutable state.
package checks

import (
	"fmt"
	"io"
	"sort"

	"cla/internal/extmodel"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
)

// Check names one analysis client.
type Check string

// The available checks.
const (
	CallGraph Check = "callgraph"
	ModRef    Check = "modref"
	Escape    Check = "escape"
	Deref     Check = "deref"
	// Externs is the incomplete-program soundness audit: the undefined-
	// external inventory plus "verdict downgraded by incompleteness"
	// annotations. It is not part of AllChecks — callers opt in (clalint
	// enables it automatically when an -extmodel is selected).
	Externs Check = "externs"
)

// AllChecks lists every default check in canonical order.
func AllChecks() []Check { return []Check{CallGraph, ModRef, Escape, Deref} }

// AllChecksAudited is AllChecks plus the externs soundness audit.
func AllChecksAudited() []Check { return append(AllChecks(), Externs) }

// ParseChecks validates a list of check names (e.g. from a CLI flag).
func ParseChecks(names []string) ([]Check, error) {
	var out []Check
	for _, n := range names {
		c := Check(n)
		switch c {
		case CallGraph, ModRef, Escape, Deref, Externs:
			out = append(out, c)
		default:
			return nil, fmt.Errorf("checks: unknown check %q", n)
		}
	}
	return out, nil
}

// Options configures a Run.
type Options struct {
	// Checks selects which checks run; nil means all of them.
	Checks []Check
	// Jobs bounds the workers used inside each check (0 = all cores,
	// 1 = sequential). Output is identical at every setting.
	Jobs int
	// ExtModel is the display label of the extern model the analysis ran
	// under ("unsound", "blanket", "escape"); the externs audit records it.
	// Empty means the label is inferred from the database.
	ExtModel string
	// Obs, when non-nil, records one span per check plus checks.*
	// diagnostic counters.
	Obs *obs.Observer
}

// Loc is a source location with its file resolved, so a finding reads
// and encodes without the program it came from.
type Loc struct {
	File string
	Line int32
}

func (l Loc) String() string {
	if l.File == "" {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d", l.File, l.Line)
}

// Diagnostic is one finding, attached to a source location.
type Diagnostic struct {
	Check   Check  `json:"check"`
	Loc     Loc    `json:"loc"`
	Func    string `json:"func,omitempty"` // enclosing function, "" at file scope
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	if d.Func != "" {
		return fmt.Sprintf("%s: [%s] %s (in %s)", d.Loc, d.Check, d.Message, d.Func)
	}
	return fmt.Sprintf("%s: [%s] %s", d.Loc, d.Check, d.Message)
}

// Report is the outcome of a Run.
type Report struct {
	// Diags holds every finding, sorted by (file, line, check, message).
	Diags []Diagnostic
	// Graph is the program call graph (nil unless callgraph ran).
	Graph *Graph
	// ModRef holds per-function summaries sorted by function name (nil
	// unless modref ran).
	ModRef []Summary
	// Audit is the incomplete-program soundness audit (nil unless the
	// externs check ran).
	Audit *Audit
}

// Format renders the diagnostics one per line.
func (r *Report) Format(w io.Writer) {
	for _, d := range r.Diags {
		fmt.Fprintln(w, d.String())
	}
}

// CountByCheck tallies diagnostics per check.
func (r *Report) CountByCheck() map[Check]int {
	out := map[Check]int{}
	for _, d := range r.Diags {
		out[d.Check]++
	}
	return out
}

// Run executes the selected checks over a completed analysis. The prog
// must be the database the analysis ran on (or one with identical symbol
// numbering), so that diagnostics can quote pts sets by symbol id.
func Run(prog *prim.Program, res pts.Result, opts Options) (*Report, error) {
	enabled := opts.Checks
	if enabled == nil {
		enabled = AllChecks()
	}
	sp := opts.Obs.Start("checks")
	defer sp.End()
	ix := buildIndex(prog, res)
	rep := &Report{}

	has := func(c Check) bool {
		for _, e := range enabled {
			if e == c {
				return true
			}
		}
		return false
	}

	// The call graph is also an input to MOD/REF propagation, so build it
	// whenever either check is enabled.
	if has(CallGraph) || has(ModRef) {
		csp := sp.Child("check:callgraph")
		g, diags, err := buildCallGraph(ix, opts.Jobs)
		csp.End()
		if err != nil {
			return nil, err
		}
		if has(CallGraph) {
			rep.Graph = g
			rep.Diags = append(rep.Diags, diags...)
		}
		if has(ModRef) {
			msp := sp.Child("check:modref")
			sums, err := modrefSummaries(ix, g, opts.Jobs)
			msp.End()
			if err != nil {
				return nil, err
			}
			rep.ModRef = sums
		}
	}
	if has(Escape) {
		esp := sp.Child("check:escape")
		diags, err := escapeCheck(ix, opts.Jobs)
		esp.End()
		if err != nil {
			return nil, err
		}
		rep.Diags = append(rep.Diags, diags...)
	}
	if has(Deref) {
		dsp := sp.Child("check:deref")
		diags, err := derefCheck(ix, opts.Jobs)
		dsp.End()
		if err != nil {
			return nil, err
		}
		rep.Diags = append(rep.Diags, diags...)
	}
	if has(Externs) {
		xsp := sp.Child("check:externs")
		diags, audit, err := externsCheck(ix, opts.Jobs, opts.ExtModel)
		xsp.End()
		if err != nil {
			return nil, err
		}
		rep.Diags = append(rep.Diags, diags...)
		rep.Audit = audit
		for i := range rep.ModRef {
			if rep.ModRef[i].Incomplete {
				audit.ModRefIncomplete++
			}
		}
	}
	sortDiags(rep.Diags)
	if opts.Obs.Enabled() {
		opts.Obs.SetCounter("checks.diags", int64(len(rep.Diags)))
		for c, n := range rep.CountByCheck() {
			opts.Obs.SetCounter("checks.diags."+string(c), int64(n))
		}
	}
	return rep, nil
}

// sortDiags orders diagnostics by (file, line, check, message, func) and
// removes exact duplicates.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Loc.File != b.Loc.File {
			return a.Loc.File < b.Loc.File
		}
		if a.Loc.Line != b.Loc.Line {
			return a.Loc.Line < b.Loc.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return a.Func < b.Func
	})
}

// index holds the shared, read-only lookup structures every check uses.
type index struct {
	prog *prim.Program
	res  pts.Result

	// scopes are the distinct enclosing-function names of assignments and
	// call sites, sorted ("" for file scope sorts first).
	scopes []string
	// assignsByScope maps a scope to the indexes of its assignments in
	// prog.Assigns, in emission order.
	assignsByScope map[string][]int
	// funcSyms are the ids of all SymFunc symbols, in id order.
	funcSyms []prim.SymID
	// retOwner maps a function's standardized return symbol to the
	// function symbol it belongs to, for real functions only.
	retOwner map[prim.SymID]prim.SymID
	// ext is the external-world object synthesized by internal/extmodel,
	// or NoSym when the analysis ran without an extern model.
	ext prim.SymID
	// extFn is the external stand-in function, or NoSym.
	extFn prim.SymID
}

func buildIndex(prog *prim.Program, res pts.Result) *index {
	ix := &index{
		prog:           prog,
		res:            res,
		assignsByScope: map[string][]int{},
		retOwner:       map[prim.SymID]prim.SymID{},
		ext:            prim.NoSym,
		extFn:          prim.NoSym,
	}
	seen := map[string]bool{}
	for i := range prog.Assigns {
		f := prog.Str(prog.Assigns[i].Func)
		ix.assignsByScope[f] = append(ix.assignsByScope[f], i)
		if !seen[f] {
			seen[f] = true
			ix.scopes = append(ix.scopes, f)
		}
	}
	for _, c := range prog.Calls {
		if f := prog.Str(c.Caller); !seen[f] {
			seen[f] = true
			ix.scopes = append(ix.scopes, f)
		}
	}
	sort.Strings(ix.scopes)
	for i := range prog.Syms {
		switch {
		case prog.Syms[i].Kind == prim.SymFunc:
			ix.funcSyms = append(ix.funcSyms, prim.SymID(i))
			if ix.extFn == prim.NoSym && prog.Syms[i].Name == extmodel.ExtFnName {
				ix.extFn = prim.SymID(i)
			}
		case prog.Syms[i].Kind == prim.SymExtern:
			if ix.ext == prim.NoSym {
				ix.ext = prim.SymID(i)
			}
		}
	}
	for _, f := range prog.Funcs {
		if f.Ret == prim.NoSym {
			continue
		}
		if int(f.Func) < len(prog.Syms) && prog.Syms[f.Func].Kind == prim.SymFunc {
			ix.retOwner[f.Ret] = f.Func
		}
	}
	return ix
}

// sym returns the symbol for id.
func (ix *index) sym(id prim.SymID) *prim.Symbol { return &ix.prog.Syms[id] }

// loc resolves l's file.
func (ix *index) loc(l prim.Loc) Loc { return Loc{File: ix.prog.Str(l.File), Line: l.Line} }

// name returns a printable name for id.
func (ix *index) name(id prim.SymID) string { return ix.prog.Syms[id].Name }

// forEachSlot runs fn over n indexes on jobs workers and concatenates the
// per-index diagnostic slices in index order — the parallel-but-
// deterministic skeleton shared by the checks.
func forEachSlot(jobs, n int, fn func(i int) []Diagnostic) ([]Diagnostic, error) {
	slots := make([][]Diagnostic, n)
	err := parallel.ForEach(jobs, n, func(i int) error {
		slots[i] = fn(i)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, s := range slots {
		out = append(out, s...)
	}
	return out, nil
}
