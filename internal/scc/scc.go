// Package scc is the strongly-connected-component machinery shared by
// the solvers' condensation phases: an iterative Tarjan condensation
// over an adjacency slice, and the topological leveling that turns the
// condensation DAG into barrier-synchronized waves of independent work.
//
// Both the snapshot freeze in internal/core and its phase-parallel wave
// solver condense the same way, so the numbering contract lives here:
// roots are tried in ascending node order and components are numbered in
// pop order, which is reverse topological order — every edge out of a
// component leads to a strictly smaller component id. That invariant is
// what lets Level resolve heights in a single ascending pass, and what
// keeps every consumer's output independent of worker count.
package scc

// tframe is one explicit DFS frame of the iterative Tarjan traversal.
type tframe struct {
	v  int32
	ei int
}

// Condense runs iterative Tarjan over the subgraph of live nodes and
// returns the condensation: comp maps every live node to its component
// id (entries for dead nodes are -1), and members lists each component's
// nodes in stack pop order. adj must only mention live nodes and must
// not contain self-loops. Components are numbered in reverse topological
// order: every edge out of a component leads to a smaller component id.
func Condense(adj [][]int32, live func(v int32) bool) (comp []int32, members [][]int32) {
	n := len(adj)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	var (
		stack  []int32
		frames []tframe
		order  int32
	)
	push := func(v int32) {
		order++
		index[v] = order
		low[v] = order
		onStack[v] = true
		stack = append(stack, v)
		frames = append(frames, tframe{v: v})
	}
	for r0 := 0; r0 < n; r0++ {
		v0 := int32(r0)
		if !live(v0) || index[v0] != 0 {
			continue
		}
		push(v0)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == 0 {
					push(w)
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
			cid := int32(len(members))
			var ms []int32
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				comp[m] = cid
				ms = append(ms, m)
				if m == v {
					break
				}
			}
			members = append(members, ms)
		}
	}
	return comp, members
}

// Level computes the condensation DAG's successor lists and heights, and
// buckets components by height with ascending component ids within each
// bucket. Successors have smaller ids (the Condense numbering), so one
// ascending pass resolves every height; sinks sit at height 0 and
// buckets[h] holds the components whose longest outgoing path has h
// edges. Components within one bucket are independent — an edge between
// two components forces different heights — which is exactly the
// property wave scheduling needs.
func Level(comp []int32, members [][]int32, adj [][]int32) (succs [][]int32, height []int32, buckets [][]int32) {
	nc := len(members)
	succs = make([][]int32, nc)
	height = make([]int32, nc)
	maxHeight := int32(0)
	cseen := make([]int32, nc)
	cepoch := int32(0)
	for c := 0; c < nc; c++ {
		cepoch++
		var out []int32
		h := int32(0)
		for _, m := range members[c] {
			for _, w := range adj[m] {
				wc := comp[w]
				if wc == int32(c) || cseen[wc] == cepoch {
					continue
				}
				cseen[wc] = cepoch
				out = append(out, wc)
				if height[wc]+1 > h {
					h = height[wc] + 1
				}
			}
		}
		succs[c] = out
		height[c] = h
		if h > maxHeight {
			maxHeight = h
		}
	}
	buckets = make([][]int32, maxHeight+1)
	for c := 0; c < nc; c++ {
		buckets[height[c]] = append(buckets[height[c]], int32(c))
	}
	return succs, height, buckets
}
