package xform

import (
	"sort"

	"cla/internal/prim"
)

// OfflineVarSub implements offline variable substitution in the style of
// Rountev & Chandra (PLDI 2000), the scaling technique the paper cites as
// reference [21]: before any points-to analysis runs, find variables that
// provably have identical points-to sets and collapse them, shrinking the
// constraint graph.
//
// Two offline facts are used, both restricted to variables whose address
// is never taken (so no analysis-time store can write to them) and that
// are not standardized parameters/returns (which receive analysis-time
// edges from indirect-call linking):
//
//   - Copy cycles: variables forming a cycle of simple assignments have
//     mutually included, hence equal, points-to sets.
//   - Copy chains: a variable whose only value inflow is one simple
//     assignment x = y has exactly pts(y).
//
// The returned substitution maps every symbol to its representative
// (identity for unaffected symbols); query the analysis through it.
// Address-of occurrences (x as an lval) are never rewritten — only value
// positions — so object identity in points-to sets is preserved.
func OfflineVarSub(prog *prim.Program) (*prim.Program, []prim.SymID) {
	n := len(prog.Syms)
	subst := make([]prim.SymID, n)
	for i := range subst {
		subst[i] = prim.SymID(i)
	}

	eligible := make([]bool, n)
	for i := range prog.Syms {
		switch prog.Syms[i].Kind {
		case prim.SymGlobal, prim.SymStatic, prim.SymLocal, prim.SymTemp, prim.SymField:
			eligible[i] = true
		}
	}
	// Address-taken variables and indirect-call-reachable functions are
	// excluded.
	inflow := make([]int, n)     // count of value inflows
	soleCopy := make([]int32, n) // the single simple source, if inflow==1
	copyEdges := map[int32][]int32{}
	for _, a := range prog.Assigns {
		switch a.Kind {
		case prim.Base:
			eligible[a.Src] = false // address taken
			inflow[a.Dst]++
			soleCopy[a.Dst] = -1
		case prim.Simple:
			inflow[a.Dst]++
			if inflow[a.Dst] == 1 {
				soleCopy[a.Dst] = int32(a.Src)
			} else {
				soleCopy[a.Dst] = -1
			}
			copyEdges[int32(a.Src)] = append(copyEdges[int32(a.Src)], int32(a.Dst))
		case prim.LoadInd:
			inflow[a.Dst]++
			soleCopy[a.Dst] = -1
		}
	}

	// 1. Collapse copy cycles among eligible variables with iterative
	// Tarjan over the simple-assignment graph.
	reps := tarjanCopySCCs(n, copyEdges, eligible)
	for i, r := range reps {
		if r >= 0 {
			subst[i] = prim.SymID(r)
		}
	}
	find := func(x prim.SymID) prim.SymID {
		for subst[x] != x {
			subst[x] = subst[subst[x]]
			x = subst[x]
		}
		return x
	}

	// 2. Chain substitution: follow unique-copy chains to their source.
	// Resolution is memoized through subst itself; cycles were already
	// collapsed so chains terminate.
	var resolve func(x int32, depth int) prim.SymID
	resolve = func(x int32, depth int) prim.SymID {
		r := find(prim.SymID(x))
		if depth > n {
			return r
		}
		if !eligible[r] || inflow[r] != 1 || soleCopy[r] < 0 {
			return r
		}
		src := soleCopy[r]
		if find(prim.SymID(src)) == r {
			return r // self-copy after collapsing
		}
		target := resolve(src, depth+1)
		if target != r {
			subst[r] = target
		}
		return target
	}
	for i := 0; i < n; i++ {
		if eligible[i] {
			resolve(int32(i), 0)
		}
	}

	// 3. Rewrite the program through the substitution. Value positions
	// map; Base sources (lvals) keep their identity. Self-copies drop.
	// Function-pointer records follow their substituted variable, and the
	// FuncPtr mark migrates to the representative so analysis-time call
	// linking still fires.
	out := &prim.Program{
		Syms:  append([]prim.Symbol(nil), prog.Syms...),
		Funcs: append([]prim.FuncRecord(nil), prog.Funcs...),
		Strs:  prog.Strs,
	}
	for i := range prog.Syms {
		if prog.Syms[i].FuncPtr {
			out.Syms[find(prim.SymID(i))].FuncPtr = true
		}
	}
	for i := range out.Funcs {
		out.Funcs[i].Func = find(out.Funcs[i].Func)
	}
	for _, a := range prog.Assigns {
		if a.Kind != prim.Base {
			a.Src = find(a.Src)
		}
		a.Dst = find(a.Dst)
		if a.Kind == prim.Simple && a.Dst == a.Src {
			continue
		}
		out.AddAssign(a)
	}
	final := make([]prim.SymID, n)
	for i := range final {
		final[i] = find(prim.SymID(i))
	}
	return out, final
}

// tarjanCopySCCs returns, for each node in a non-trivial SCC of the copy
// graph whose members are all eligible, the SCC's representative (lowest
// member id); -1 otherwise. Iterative to handle long chains.
func tarjanCopySCCs(n int, edges map[int32][]int32, eligible []bool) []int32 {
	reps := make([]int32, n)
	for i := range reps {
		reps[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	var order int32 = 1

	type frame struct {
		v  int32
		ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != 0 || !eligible[root] {
			continue
		}
		frames := []frame{{v: int32(root)}}
		index[root] = order
		low[root] = order
		order++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			outs := edges[v]
			for f.ei < len(outs) {
				w := outs[f.ei]
				f.ei++
				if !eligible[w] {
					continue
				}
				if index[w] == 0 {
					index[w] = order
					low[w] = order
					order++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			var members []int32
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				members = append(members, m)
				if m == v {
					break
				}
			}
			if len(members) > 1 {
				sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
				for _, m := range members {
					reps[m] = members[0]
				}
			}
		}
	}
	return reps
}
