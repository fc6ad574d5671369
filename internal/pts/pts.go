// Package pts defines the solver-independent interface to points-to
// analysis: the Source abstraction over assignment databases (in-memory
// programs or demand-loaded object files), the Result interface produced
// by every solver, and the metrics reported in the paper's Table 3.
package pts

import (
	"sort"
	"sync"

	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
)

// Source supplies primitive assignments to a solver. The static section
// (address-of assignments) is always loaded; all other assignments are
// organized into per-source blocks that can be loaded on demand.
type Source interface {
	// NumSyms returns the number of symbols in the database.
	NumSyms() int
	// Sym returns symbol metadata.
	Sym(id prim.SymID) *prim.Symbol
	// Statics returns every address-of assignment (x = &y).
	Statics() ([]prim.Assign, error)
	// Block returns the non-base assignments whose source is sym.
	Block(sym prim.SymID) ([]prim.Assign, error)
	// BlockLen returns len(Block(sym)) without loading it.
	BlockLen(sym prim.SymID) int
	// Funcs returns the function records for call linking.
	Funcs() []prim.FuncRecord
	// Counts returns per-kind assignment totals (the in-file numbers).
	Counts() [prim.NumKinds]int
}

// Result is the outcome of a points-to analysis.
type Result interface {
	// PointsTo returns the sorted set of objects sym may point to.
	PointsTo(sym prim.SymID) []prim.SymID
	// Metrics returns solver statistics.
	Metrics() Metrics
}

// Metrics mirrors the measurement columns of the paper's Table 3 plus
// solver internals useful for the ablation study.
type Metrics struct {
	// PointerVars counts program objects (variables and fields, not
	// analysis temporaries) with non-empty points-to sets.
	PointerVars int
	// Relations is the total size of all program objects' points-to sets.
	Relations int
	// InCore is the number of assignments retained in memory at the end
	// of the analysis (complex assignments under the discard strategy).
	InCore int
	// Loaded is the number of assignments read from the database,
	// counting re-loads.
	Loaded int
	// InFile is the total number of assignments in the database.
	InFile int
	// Passes is the number of iterations of the outer fixpoint.
	Passes int
	// Unifications counts cycle-elimination node merges.
	Unifications int
	// CacheHits and CacheMisses count reachability cache behaviour.
	CacheHits, CacheMisses int64
	// EdgesAdded counts graph edge insertions.
	EdgesAdded int
	// Waves counts barrier-synchronized waves executed by the
	// phase-parallel solve path (zero when the sequential reference ran).
	Waves int
	// SCCRounds counts condensation rounds (SCC + topological leveling)
	// the phase-parallel solve path performed.
	SCCRounds int
	// WaveWidth is the maximum number of independent units processed
	// within one level barrier — the solve phase's exploitable
	// parallelism.
	WaveWidth int
	// DeltaMergeBytes totals the bytes of delta elements and deferred
	// edge pairs merged at wave boundaries. The merge order is
	// deterministic, so this figure is identical at any worker count.
	DeltaMergeBytes int64
}

// CountedAsPointerVar reports whether a symbol of kind k counts as a
// "pointer variable" in Table 3 (program variables and fields; analysis
// temporaries, standardized params/returns, functions and heap objects are
// excluded, matching the paper's accounting).
func CountedAsPointerVar(k prim.SymKind) bool {
	switch k {
	case prim.SymGlobal, prim.SymStatic, prim.SymLocal, prim.SymField:
		return true
	}
	return false
}

// ---------- Sources ----------

// MemSource adapts an in-memory Program to the Source interface. Blocks
// are a CSR index: the block of symbol x is flat[off[x]:off[x+1]], in
// assignment order, so indexing a program makes a fixed number of
// allocations whatever its symbol count. The offsets are counted up
// front; the blocks and the static section are filled on the first
// Block or Statics call, which a warm solve of a small edit may never
// make.
type MemSource struct {
	P      *prim.Program
	off    []int32
	fill   sync.Once
	flat   []prim.Assign
	static []prim.Assign
}

// NewMemSource indexes prog by assignment source: one counting pass
// sizes the blocks; a second, on first use, fills them.
func NewMemSource(prog *prim.Program) *MemSource {
	n := len(prog.Syms)
	s := &MemSource{P: prog, off: make([]int32, n+1)}
	for _, a := range prog.Assigns {
		if a.Kind != prim.Base {
			s.off[a.Src+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.off[i+1] += s.off[i]
	}
	return s
}

// index fills the blocks and the static section.
func (s *MemSource) index() {
	s.fill.Do(func() {
		n := len(s.P.Syms)
		blocks := int(s.off[n])
		if statics := len(s.P.Assigns) - blocks; statics > 0 {
			s.static = make([]prim.Assign, 0, statics)
		}
		s.flat = make([]prim.Assign, blocks)
		next := append([]int32(nil), s.off[:n]...)
		for _, a := range s.P.Assigns {
			if a.Kind == prim.Base {
				s.static = append(s.static, a)
				continue
			}
			s.flat[next[a.Src]] = a
			next[a.Src]++
		}
	})
}

// NumSyms implements Source.
func (s *MemSource) NumSyms() int { return len(s.P.Syms) }

// Sym implements Source.
func (s *MemSource) Sym(id prim.SymID) *prim.Symbol { return &s.P.Syms[id] }

// Statics implements Source.
func (s *MemSource) Statics() ([]prim.Assign, error) {
	s.index()
	return s.static, nil
}

// Block implements Source. The block is capped at its length, so a
// caller's append copies it instead of overwriting the next block.
func (s *MemSource) Block(sym prim.SymID) ([]prim.Assign, error) {
	if s.BlockLen(sym) == 0 {
		return nil, nil
	}
	s.index()
	lo, hi := s.off[sym], s.off[sym+1]
	return s.flat[lo:hi:hi], nil
}

// BlockLen implements Source.
func (s *MemSource) BlockLen(sym prim.SymID) int {
	if int(sym) < 0 || int(sym) >= len(s.off)-1 {
		return 0
	}
	return int(s.off[sym+1] - s.off[sym])
}

// Funcs implements Source.
func (s *MemSource) Funcs() []prim.FuncRecord { return s.P.Funcs }

// Counts implements Source.
func (s *MemSource) Counts() [prim.NumKinds]int { return s.P.CountByKind() }

// FileSource adapts an objfile.Reader to the Source interface, preserving
// its demand-loading behaviour.
type FileSource struct {
	R *objfile.Reader
}

// NumSyms implements Source.
func (s *FileSource) NumSyms() int { return s.R.NumSyms() }

// Sym implements Source.
func (s *FileSource) Sym(id prim.SymID) *prim.Symbol { return s.R.Sym(id) }

// Statics implements Source.
func (s *FileSource) Statics() ([]prim.Assign, error) { return s.R.Statics() }

// Block implements Source.
func (s *FileSource) Block(sym prim.SymID) ([]prim.Assign, error) {
	entries, err := s.R.Block(sym)
	if err != nil {
		return nil, err
	}
	out := make([]prim.Assign, len(entries))
	for i, e := range entries {
		out[i] = e.Assign(sym)
	}
	return out, nil
}

// BlockLen implements Source.
func (s *FileSource) BlockLen(sym prim.SymID) int { return s.R.BlockLen(sym) }

// Funcs implements Source.
func (s *FileSource) Funcs() []prim.FuncRecord { return s.R.Funcs() }

// Counts implements Source.
func (s *FileSource) Counts() [prim.NumKinds]int { return s.R.Counts() }

// ---------- helpers shared by solvers and tests ----------

// SortSyms sorts a symbol id slice in place and returns it.
func SortSyms(ids []prim.SymID) []prim.SymID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SumRelations computes (PointerVars, Relations) for a result over src.
func SumRelations(src Source, r Result) (int, int) {
	vars, rels := 0, 0
	for i := 0; i < src.NumSyms(); i++ {
		id := prim.SymID(i)
		if !CountedAsPointerVar(src.Sym(id).Kind) {
			continue
		}
		n := len(r.PointsTo(id))
		if n > 0 {
			vars++
			rels += n
		}
	}
	return vars, rels
}

// TotalAssigns sums the database's per-kind assignment counts — the
// Table 3 "in file" column every solver reports.
func TotalAssigns(src Source) int {
	total := 0
	for _, n := range src.Counts() {
		total += n
	}
	return total
}

// FinalizeMetrics fills the fields every solver computes the same way:
// InFile from the database counts and (PointerVars, Relations) from the
// converged result. Solver-specific fields (Passes, Unifications, cache
// behaviour) stay with the solver that produced them.
func FinalizeMetrics(src Source, r Result, m *Metrics) {
	m.InFile = TotalAssigns(src)
	m.PointerVars, m.Relations = SumRelations(src, r)
}

// Publish copies m into o's solver.* counter registry so all five
// solvers surface identical metric names in -stats, the trace and the
// benchmarks. A nil observer no-ops.
func (m Metrics) Publish(o *obs.Observer) {
	if o == nil {
		return
	}
	o.SetCounter("solver.pointer_vars", int64(m.PointerVars))
	o.SetCounter("solver.relations", int64(m.Relations))
	o.SetCounter("solver.in_core", int64(m.InCore))
	o.SetCounter("solver.loaded", int64(m.Loaded))
	o.SetCounter("solver.in_file", int64(m.InFile))
	o.SetCounter("solver.passes", int64(m.Passes))
	o.SetCounter("solver.unifications", int64(m.Unifications))
	o.SetCounter("solver.cache_hits", m.CacheHits)
	o.SetCounter("solver.cache_misses", m.CacheMisses)
	o.SetCounter("solver.edges_added", int64(m.EdgesAdded))
	o.SetCounter("solve.waves", int64(m.Waves))
	o.SetCounter("solve.scc_rounds", int64(m.SCCRounds))
	o.SetCounter("solve.wave_width", int64(m.WaveWidth))
	o.SetCounter("solve.delta_merge_bytes", m.DeltaMergeBytes)
}
