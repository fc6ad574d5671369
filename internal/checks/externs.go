package checks

import (
	"fmt"

	"cla/internal/extmodel"
	"cla/internal/prim"
)

// Audit is the incomplete-program soundness report: what the database
// references but does not define, and which verdicts of the other checks
// were downgraded because of it.
type Audit struct {
	// Model is the extern-model label the analysis ran under.
	Model string `json:"model"`
	// Modeled reports whether the external-world object is present, i.e.
	// the database was closed under -extmodel blanket or escape.
	Modeled bool `json:"modeled"`
	// UndefFuncs and UndefGlobals inventory the undefined externals.
	UndefFuncs   []UndefSym `json:"undef_funcs,omitempty"`
	UndefGlobals []UndefSym `json:"undef_globals,omitempty"`
	// DerefDowngraded counts dereference sites whose verdict rests on the
	// external model: the pointer is an undefined extern (its targets all
	// come from the model) or every target is an external-world object.
	// Under -extmodel unsound these would be empty-points-to reports.
	DerefDowngraded int `json:"deref_downgraded"`
	// CallsDowngraded counts indirect call sites whose callee set includes
	// the external stand-in function: their callee lists are open-ended.
	CallsDowngraded int `json:"calls_downgraded"`
	// ModRefIncomplete counts function scopes whose MOD/REF summary
	// touches the external world (filled only when modref also ran).
	ModRefIncomplete int `json:"modref_incomplete"`
}

// UndefSym is one undefined external in the audit inventory.
type UndefSym struct {
	Name string `json:"name"`
	Loc  string `json:"loc"`
	// Calls is the number of direct call sites (functions only).
	Calls int `json:"calls,omitempty"`
}

// externsCheck builds the soundness audit: the undefined-symbol inventory
// (one diagnostic each) plus downgraded-verdict annotations on dereference
// and indirect-call sites whose only evidence is the external model.
func externsCheck(ix *index, jobs int, modelLabel string) ([]Diagnostic, *Audit, error) {
	audit := &Audit{Model: modelLabel, Modeled: ix.ext != prim.NoSym}
	if audit.Model == "" {
		if audit.Modeled {
			audit.Model = "modeled"
		} else {
			audit.Model = extmodel.Unsound.String()
		}
	}

	// Direct call-site counts per callee symbol.
	callCount := map[prim.SymID]int{}
	for _, c := range ix.prog.Calls {
		if !c.Indirect {
			callCount[c.Callee]++
		}
	}

	var diags []Diagnostic
	for _, u := range extmodel.Undefined(ix.prog) {
		entry := UndefSym{Name: u.Name, Loc: ix.loc(u.Loc).String(), Calls: callCount[u.Sym]}
		var msg string
		switch {
		case u.Kind == prim.SymFunc && audit.Modeled:
			msg = fmt.Sprintf(
				"undefined function '%s' (%d call sites) modeled as external code: arguments escape, results are external",
				u.Name, entry.Calls)
			audit.UndefFuncs = append(audit.UndefFuncs, entry)
		case u.Kind == prim.SymFunc:
			msg = fmt.Sprintf(
				"undefined function '%s' (%d call sites) not modeled: its results point nowhere; rerun with -extmodel blanket or escape",
				u.Name, entry.Calls)
			audit.UndefFuncs = append(audit.UndefFuncs, entry)
		case audit.Modeled:
			msg = fmt.Sprintf(
				"undefined extern global '%s' modeled as external memory", u.Name)
			audit.UndefGlobals = append(audit.UndefGlobals, entry)
		default:
			msg = fmt.Sprintf(
				"undefined extern global '%s' not modeled: reads from it point nowhere; rerun with -extmodel blanket or escape",
				u.Name)
			audit.UndefGlobals = append(audit.UndefGlobals, entry)
		}
		diags = append(diags, Diagnostic{Check: Externs, Loc: ix.loc(u.Loc), Message: msg})
	}
	if !audit.Modeled {
		return diags, audit, nil
	}

	// Dereference sites kept alive only by external-world targets: under
	// -extmodel unsound they would be empty-points-to reports.
	onlyExternal := func(set []prim.SymID) bool {
		if len(set) == 0 {
			return false
		}
		for _, z := range set {
			if z != ix.ext && z != ix.extFn {
				return false
			}
		}
		return true
	}
	scopes := ix.scopes
	derefDiags, err := forEachSlot(jobs, len(scopes), func(i int) []Diagnostic {
		if scopes[i] == extmodel.ExtName {
			return nil // the model's own constraints are not program sites
		}
		type key struct {
			sym prim.SymID
			loc prim.Loc
		}
		seen := map[key]bool{}
		var out []Diagnostic
		report := func(p prim.SymID, a *prim.Assign) {
			s := ix.sym(p)
			undefExtern := s.Kind == prim.SymGlobal && !s.Defined
			if !undefExtern && !onlyExternal(ix.res.PointsTo(p)) {
				return
			}
			k := key{p, a.Loc}
			if seen[k] {
				return
			}
			seen[k] = true
			out = append(out, Diagnostic{
				Check: Externs,
				Loc:   ix.loc(a.Loc),
				Func:  ix.prog.Str(a.Func),
				Message: fmt.Sprintf(
					"dereference of '%s' has only external-world targets (verdict downgraded by incompleteness)",
					ix.name(p)),
			})
		}
		for _, ai := range ix.assignsByScope[scopes[i]] {
			a := &ix.prog.Assigns[ai]
			switch a.Kind {
			case prim.StoreInd:
				report(a.Dst, a)
			case prim.LoadInd:
				report(a.Src, a)
			case prim.CopyInd:
				report(a.Dst, a)
				report(a.Src, a)
			}
		}
		return out
	})
	if err != nil {
		return nil, nil, err
	}
	audit.DerefDowngraded = len(derefDiags)
	diags = append(diags, derefDiags...)

	// Indirect call sites that may target external code: the resolved
	// callee list is open-ended.
	calls := ix.prog.Calls
	callDiags, err := forEachSlot(jobs, len(calls), func(i int) []Diagnostic {
		c := calls[i]
		if !c.Indirect {
			return nil
		}
		hit := false
		for _, z := range ix.res.PointsTo(c.Callee) {
			if z == ix.extFn {
				hit = true
				break
			}
		}
		if !hit {
			return nil
		}
		return []Diagnostic{{
			Check: Externs,
			Loc:   ix.loc(c.Loc),
			Func:  ix.prog.Str(c.Caller),
			Message: fmt.Sprintf(
				"indirect call through '%s' may target external code (verdict downgraded by incompleteness)",
				ix.name(c.Callee)),
		}}
	})
	if err != nil {
		return nil, nil, err
	}
	audit.CallsDowngraded = len(callDiags)
	diags = append(diags, callDiags...)
	return diags, audit, nil
}
