package checks

import (
	"fmt"

	"cla/internal/prim"
)

// escapeCheck reports stack-address escapes: a local (or parameter) whose
// address may be stored in a location that outlives its frame — a global,
// a static, a struct field, a heap object — or returned by a function.
// Both facts are read directly off the final points-to sets: the local
// appears in the points-to set of the longer-lived location.
func escapeCheck(ix *index, jobs int) ([]Diagnostic, error) {
	// Sinks, in symbol-id order: frame-outliving locations first, then
	// standardized return symbols of real functions.
	type sink struct {
		id  prim.SymID
		ret prim.SymID // owning function symbol for return sinks, else NoSym
	}
	var sinks []sink
	for i := range ix.prog.Syms {
		id := prim.SymID(i)
		switch ix.prog.Syms[i].Kind {
		case prim.SymGlobal, prim.SymStatic, prim.SymField, prim.SymHeap,
			prim.SymExtern:
			sinks = append(sinks, sink{id: id, ret: prim.NoSym})
		case prim.SymRet:
			if owner, ok := ix.retOwner[id]; ok {
				sinks = append(sinks, sink{id: id, ret: owner})
			}
		}
	}

	return forEachSlot(jobs, len(sinks), func(i int) []Diagnostic {
		s := sinks[i]
		var out []Diagnostic
		for _, z := range ix.res.PointsTo(s.id) {
			local := ix.sym(z)
			if local.Kind != prim.SymLocal {
				continue
			}
			var msg string
			switch {
			case s.ret != prim.NoSym:
				msg = fmt.Sprintf(
					"address of local '%s' may be returned by '%s', outliving its frame",
					local.Name, ix.name(s.ret))
			case ix.sym(s.id).Kind == prim.SymExtern:
				msg = fmt.Sprintf(
					"address of local '%s' may escape to the external world, outliving its frame",
					local.Name)
			default:
				msg = fmt.Sprintf(
					"address of local '%s' may be stored in %s '%s', outliving its frame",
					local.Name, ix.sym(s.id).Kind, ix.name(s.id))
			}
			out = append(out, Diagnostic{
				Check:   Escape,
				Loc:     ix.loc(local.Loc),
				Func:    local.FuncName,
				Message: msg,
			})
		}
		return out
	})
}
