package checks

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"cla/internal/parallel"
	"cla/internal/prim"
)

// Site is one resolved call site.
type Site struct {
	Loc Loc `json:"loc"`
	// Caller is the enclosing function's name ("" at file scope).
	Caller string `json:"caller,omitempty"`
	// Via is the symbol the call goes through: the function itself for
	// direct calls, the function-pointer variable for indirect calls.
	Via      string `json:"via"`
	Indirect bool   `json:"indirect"`
	// Callees are the resolved callee function names, sorted. Empty for
	// an unresolved indirect site.
	Callees []string `json:"callees"`
}

// Edge is one call-graph edge. Indirect edges come from resolved
// function-pointer calls.
type Edge struct {
	Caller   string `json:"caller"`
	Callee   string `json:"callee"`
	Indirect bool   `json:"indirect,omitempty"`
}

// Graph is the program call graph derived from direct calls plus
// points-to-resolved indirect calls. Nodes and edges are keyed by function
// name (static functions from different units that share a name merge).
type Graph struct {
	// Funcs are all function symbols' names, sorted and deduplicated.
	Funcs []string `json:"funcs"`
	// Edges are deduplicated and sorted by (caller, callee, indirect).
	Edges []Edge `json:"edges"`
	// Sites are all call sites in (file, line, via) order.
	Sites []Site `json:"sites"`
}

// CalleesOf returns the callee sets per caller, following both direct and
// indirect edges.
func (g *Graph) CalleesOf() map[string][]string {
	out := map[string][]string{}
	seen := map[Edge]bool{}
	for _, e := range g.Edges {
		k := Edge{Caller: e.Caller, Callee: e.Callee}
		if seen[k] {
			continue
		}
		seen[k] = true
		out[e.Caller] = append(out[e.Caller], e.Callee)
	}
	for _, v := range out {
		sort.Strings(v)
	}
	return out
}

// DOT renders the call graph as a Graphviz digraph; indirect edges are
// dashed.
func (g *Graph) DOT() string {
	var b bytes.Buffer
	fmt.Fprintln(&b, "digraph callgraph {")
	fmt.Fprintln(&b, "  rankdir=LR;")
	fmt.Fprintln(&b, "  node [shape=box, fontsize=10];")
	for _, f := range g.Funcs {
		fmt.Fprintf(&b, "  %q;\n", f)
	}
	for _, e := range g.Edges {
		caller := e.Caller
		if caller == "" {
			caller = "<toplevel>"
		}
		if e.Indirect {
			fmt.Fprintf(&b, "  %q -> %q [style=dashed];\n", caller, e.Callee)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", caller, e.Callee)
		}
	}
	fmt.Fprintln(&b, "}")
	return b.String()
}

// JSON renders the call graph as indented JSON.
func (g *Graph) JSON() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// calleeFuncs filters a points-to set down to function symbols.
func calleeFuncs(ix *index, set []prim.SymID) []string {
	var out []string
	for _, z := range set {
		if ix.sym(z).Kind == prim.SymFunc {
			out = append(out, ix.name(z))
		}
	}
	sort.Strings(out)
	return dedupStrings(out)
}

// buildCallGraph resolves every call site (indirect ones via points-to) on
// jobs workers and assembles the graph plus unresolved-site diagnostics.
func buildCallGraph(ix *index, jobs int) (*Graph, []Diagnostic, error) {
	calls := ix.prog.Calls
	sites := make([]Site, len(calls))
	err := parallel.ForEach(jobs, len(calls), func(i int) error {
		c := calls[i]
		s := Site{
			Loc:      ix.loc(c.Loc),
			Caller:   ix.prog.Str(c.Caller),
			Via:      ix.name(c.Callee),
			Indirect: c.Indirect,
		}
		if c.Indirect {
			s.Callees = calleeFuncs(ix, ix.res.PointsTo(c.Callee))
		} else {
			s.Callees = []string{ix.name(c.Callee)}
		}
		sites[i] = s
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	g := &Graph{Sites: sites}
	for _, id := range ix.funcSyms {
		g.Funcs = append(g.Funcs, ix.name(id))
	}
	sort.Strings(g.Funcs)
	g.Funcs = dedupStrings(g.Funcs)

	var diags []Diagnostic
	edgeSeen := map[Edge]bool{}
	for i := range sites {
		s := &sites[i]
		if s.Indirect && len(s.Callees) == 0 {
			diags = append(diags, Diagnostic{
				Check: CallGraph,
				Loc:   s.Loc,
				Func:  s.Caller,
				Message: fmt.Sprintf(
					"indirect call through '%s' resolves to no function (points-to set has no function targets)",
					s.Via),
			})
		}
		for _, callee := range s.Callees {
			e := Edge{Caller: s.Caller, Callee: callee, Indirect: s.Indirect}
			if !edgeSeen[e] {
				edgeSeen[e] = true
				g.Edges = append(g.Edges, e)
			}
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Callee != b.Callee {
			return a.Callee < b.Callee
		}
		return !a.Indirect && b.Indirect
	})
	sort.SliceStable(g.Sites, func(i, j int) bool {
		a, b := g.Sites[i], g.Sites[j]
		if a.Loc.File != b.Loc.File {
			return a.Loc.File < b.Loc.File
		}
		if a.Loc.Line != b.Loc.Line {
			return a.Loc.Line < b.Loc.Line
		}
		return a.Via < b.Via
	})
	return g, diags, nil
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}
