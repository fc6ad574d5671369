package checks

import (
	"fmt"

	"cla/internal/prim"
)

// derefCheck reports dereference sites whose pointer expression has an
// empty points-to set: nothing the analysis saw ever gave the pointer a
// target, so the dereference is a null/uninitialized-pointer candidate.
// The dereferencing primitives are *x = y (writes through x), x = *y
// (reads through y) and *x = *y (both). Function scopes are checked in
// parallel; each scope's findings keep emission order and the engine's
// final sort makes the whole report deterministic.
func derefCheck(ix *index, jobs int) ([]Diagnostic, error) {
	scopes := ix.scopes
	return forEachSlot(jobs, len(scopes), func(i int) []Diagnostic {
		type key struct {
			sym prim.SymID
			loc prim.Loc
		}
		seen := map[key]bool{}
		var out []Diagnostic
		report := func(p prim.SymID, a *prim.Assign) {
			if len(ix.res.PointsTo(p)) > 0 {
				return
			}
			k := key{p, a.Loc}
			if seen[k] {
				return
			}
			seen[k] = true
			out = append(out, Diagnostic{
				Check: Deref,
				Loc:   ix.loc(a.Loc),
				Func:  ix.prog.Str(a.Func),
				Message: fmt.Sprintf(
					"dereference of '%s' whose points-to set is empty (null or uninitialized pointer?)",
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
}
