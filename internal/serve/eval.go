package serve

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cla/internal/checks"
	"cla/internal/claerr"
	"cla/internal/depend"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
)

// Evaluator answers queries against one analyzed snapshot. All state is
// read-only after construction except the lazily built by-name index,
// checks report and dependence index (each guarded by a sync.Once), so
// an Evaluator is safe for concurrent use — the property the whole
// serving layer rests on.
type Evaluator struct {
	// Prog is the full database (symbols, assignments, call sites).
	Prog *prim.Program
	// Src is a concurrency-safe assignment source over Prog; the
	// dependence analysis demand-walks it per query.
	Src pts.Source
	// Res is the solved points-to relation (snapshot-backed, O(1) and
	// concurrency-safe per the PR-1 contract).
	Res pts.Result
	// Jobs bounds batch fan-out and the cached checks run (0 = all
	// cores). Responses are identical at every setting.
	Jobs int
	// Obs, when non-nil, records the on-demand checks run's wall time in
	// the serve.checks histogram. checks.Run gets no observer: its root
	// span would overlap a concurrent session's on the trace's track 0,
	// and the trace encoder then writes nothing.
	Obs *obs.Observer

	// byName indexes non-temporary symbols by source name, ids
	// ascending. It is built once, by the lookup after the first
	// scanLookups or by the first QueryNames or dependence non-target,
	// so a generation queried a few times (an edit's answers) pays a
	// few scans of Prog.Syms instead; scanned keeps their answers, so a
	// name asked again (a client re-asking after each edit) is not
	// scanned again.
	byNameOnce sync.Once
	byName     map[string][]prim.SymID
	lookups    atomic.Int64
	scanMu     sync.Mutex
	scanned    map[string][]prim.SymID

	// checksOnce computes the full checks report (all four checks) the
	// first time a callgraph, modref or lint query needs it; later
	// queries share it.
	checksOnce sync.Once
	checksRep  *checks.Report
	checksErr  error

	// dependOnce builds the dependence index the first time a dependence
	// query needs it; later queries share it.
	dependOnce sync.Once
	dependIdx  *depend.Index
	dependErr  error
}

// NewEvaluator returns an evaluator for a snapshot; its lookup
// structures are built on first use.
func NewEvaluator(prog *prim.Program, src pts.Source, res pts.Result, jobs int) *Evaluator {
	return &Evaluator{Prog: prog, Src: src, Res: res, Jobs: jobs}
}

// index returns the by-name index, building it on first use.
func (e *Evaluator) index() map[string][]prim.SymID {
	e.byNameOnce.Do(func() {
		e.byName = make(map[string][]prim.SymID)
		for i := range e.Prog.Syms {
			if e.Prog.Syms[i].Kind == prim.SymTemp {
				continue
			}
			n := e.Prog.Syms[i].Name
			e.byName[n] = append(e.byName[n], prim.SymID(i))
		}
	})
	return e.byName
}

// scanLookups is how many name lookups an evaluator answers by scanning
// Prog.Syms before it builds the by-name index. A scan costs about 1/80
// of the build (0.11 vs 8.4 ms at gimp@0.2, both linear in the
// symbols), so scanning until the scans have cost about what the build
// does keeps any evaluator's lookups within twice the cheaper choice.
const scanLookups = 64

// named returns the non-temporary symbols called name, ids ascending:
// by a scan of Prog.Syms for the evaluator's first scanLookups lookups
// (once per name), from the by-name index after that.
func (e *Evaluator) named(name string) []prim.SymID {
	if e.lookups.Add(1) > scanLookups {
		return e.index()[name]
	}
	e.scanMu.Lock()
	ids, ok := e.scanned[name]
	e.scanMu.Unlock()
	if ok {
		return ids
	}
	for i := range e.Prog.Syms {
		if s := &e.Prog.Syms[i]; s.Name == name && s.Kind != prim.SymTemp {
			ids = append(ids, prim.SymID(i))
		}
	}
	e.scanMu.Lock()
	if e.scanned == nil {
		e.scanned = make(map[string][]prim.SymID)
	}
	e.scanned[name] = ids
	e.scanMu.Unlock()
	return ids
}

// NumSyms reports the snapshot's symbol count (for /statsz).
func (e *Evaluator) NumSyms() int { return len(e.Prog.Syms) }

// NumAssigns reports the snapshot's assignment count (for /statsz).
func (e *Evaluator) NumAssigns() int { return len(e.Prog.Assigns) }

// EvalBatch evaluates qs across the evaluator's workers, results in
// query order. Individual query failures are reported inline in the
// matching slot; the returned error is non-nil only when ctx fired, in
// which case undispatched queries never ran.
func (e *Evaluator) EvalBatch(ctx context.Context, qs []Query) ([]QueryResult, error) {
	return e.EvalBatchObserve(ctx, qs, nil)
}

// EvalBatchObserve is EvalBatch with a per-query completion hook: after
// each query evaluates, observe receives it with its wall time. The
// serving layer feeds its latency histograms through this; a nil hook
// makes it plain EvalBatch. The hook is called from the batch fan-out
// workers, so it must be safe for concurrent use.
func (e *Evaluator) EvalBatchObserve(ctx context.Context, qs []Query,
	observe func(q Query, d time.Duration)) ([]QueryResult, error) {
	results := make([]QueryResult, len(qs))
	err := parallel.ForEachCtx(ctx, e.Jobs, len(qs), func(i int) error {
		start := time.Now()
		results[i] = e.Eval(ctx, qs[i])
		if observe != nil {
			observe(qs[i], time.Since(start))
		}
		return nil
	})
	if err != nil {
		return nil, claerr.New(claerr.PhaseQuery, err)
	}
	return results, nil
}

// Eval answers one query. Failures land in the result's Err field.
func (e *Evaluator) Eval(ctx context.Context, q Query) QueryResult {
	res := QueryResult{Kind: q.Kind}
	var err error
	switch q.Kind {
	case "pointsto":
		res.Objects, err = e.pointsTo(q.Name)
	case "alias":
		res.Alias, err = e.alias(q.X, q.Y)
	case "callgraph":
		res.Graph, err = e.callGraph()
	case "modref":
		res.ModRef, err = e.modRef(q.Func)
	case "dependence":
		res.Dependents, err = e.dependence(q)
	case "lint":
		res.Findings, err = e.lint(q.Checks)
	default:
		err = claerr.Newf(claerr.PhaseQuery, "unknown query kind %q", q.Kind)
	}
	if err != nil {
		res = QueryResult{Kind: q.Kind, Err: errBody(err)}
	}
	_ = ctx
	return res
}

// lookup resolves a source name to symbol ids, ascending.
func (e *Evaluator) lookup(name string) ([]prim.SymID, error) {
	if name == "" {
		return nil, claerr.Newf(claerr.PhaseQuery, "missing object name")
	}
	ids := e.named(name)
	if len(ids) == 0 {
		return nil, claerr.Newf(claerr.PhaseQuery, "no object named %q: %w", name, claerr.ErrNotFound)
	}
	return ids, nil
}

// object renders one symbol for the wire.
func (e *Evaluator) object(id prim.SymID) Object {
	s := &e.Prog.Syms[id]
	o := Object{Name: s.Name, Kind: s.Kind.String(), Type: s.Type, Func: s.FuncName}
	if !s.Loc.IsZero() {
		o.Pos = s.Loc.Pos(e.Prog)
	}
	return o
}

// pointsTo unions the points-to sets of every object with the name,
// sorted by symbol id (the order PointsToName uses).
func (e *Evaluator) pointsTo(name string) ([]Object, error) {
	ids, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	var union []prim.SymID
	for _, id := range ids {
		union = append(union, e.Res.PointsTo(id)...)
	}
	union = pts.SortSyms(union)
	out := make([]Object, 0, len(union))
	var prev prim.SymID = prim.NoSym
	for _, z := range union {
		if z == prev {
			continue
		}
		prev = z
		out = append(out, e.object(z))
	}
	return out, nil
}

// alias reports whether any object named x may alias any object named y.
func (e *Evaluator) alias(x, y string) (*bool, error) {
	xs, err := e.lookup(x)
	if err != nil {
		return nil, err
	}
	ys, err := e.lookup(y)
	if err != nil {
		return nil, err
	}
	v := false
	for _, xi := range xs {
		for _, yi := range ys {
			if intersects(e.Res.PointsTo(xi), e.Res.PointsTo(yi)) {
				v = true
				break
			}
		}
		if v {
			break
		}
	}
	return &v, nil
}

// intersects reports whether two sorted sets share an element.
func intersects(a, b []prim.SymID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// SeedChecks installs a precomputed checks report — one stored in a
// solved snapshot by an older writer — so the first lint, callgraph or
// modref query returns it instead of re-running the checks. It must be
// the report checksReport itself would compute (all four checks, no
// externs) for snapshot-served answers to stay byte-identical to
// live-solve ones. A no-op once the report has been computed or seeded.
func (e *Evaluator) SeedChecks(rep *checks.Report) {
	if rep == nil {
		return
	}
	e.checksOnce.Do(func() { e.checksRep = rep })
}

// ChecksReport returns the shared four-check report, computing it on
// first use — claserve -preload calls it so a preloaded session's first
// lint, callgraph or modref query runs no checks.
func (e *Evaluator) ChecksReport() (*checks.Report, error) { return e.checksReport() }

// checksReport runs all four checks once and shares the report.
func (e *Evaluator) checksReport() (*checks.Report, error) {
	e.checksOnce.Do(func() {
		start := time.Now()
		e.checksRep, e.checksErr = checks.Run(e.Prog, e.Res, checks.Options{Jobs: e.Jobs})
		e.Obs.Histogram("serve.checks").ObserveSince(start)
		if e.checksErr != nil {
			e.checksErr = claerr.New(claerr.PhaseLint, e.checksErr)
		}
	})
	return e.checksRep, e.checksErr
}

func (e *Evaluator) callGraph() (*checks.Graph, error) {
	rep, err := e.checksReport()
	if err != nil {
		return nil, err
	}
	return rep.Graph, nil
}

func (e *Evaluator) modRef(fn string) ([]ModRefEntry, error) {
	rep, err := e.checksReport()
	if err != nil {
		return nil, err
	}
	out := make([]ModRefEntry, 0, len(rep.ModRef))
	for _, s := range rep.ModRef {
		if fn != "" && s.Func != fn {
			continue
		}
		out = append(out, ModRefEntry{
			Func: s.Func, Mod: s.Mod, Ref: s.Ref,
			DirectMod: s.DirectMod, DirectRef: s.DirectRef,
		})
	}
	if fn != "" && len(out) == 0 {
		return nil, claerr.Newf(claerr.PhaseQuery, "no function named %q: %w", fn, claerr.ErrNotFound)
	}
	return out, nil
}

// DependIndex returns the snapshot's dependence index, building it on
// first use; every dependence query against the Evaluator shares it.
func (e *Evaluator) DependIndex() (*depend.Index, error) {
	e.dependOnce.Do(func() {
		e.dependIdx, e.dependErr = depend.NewIndex(e.Src, e.Res)
		if e.dependErr != nil {
			e.dependErr = claerr.New(claerr.PhaseQuery, e.dependErr)
		}
	})
	return e.dependIdx, e.dependErr
}

func (e *Evaluator) dependence(q Query) ([]DependEntry, error) {
	targets, err := e.lookup(q.Target)
	if err != nil {
		return nil, err
	}
	idx, err := e.DependIndex()
	if err != nil {
		return nil, err
	}
	opts := depend.Options{NonTargets: map[prim.SymID]bool{}, DropWeak: q.DropWeak}
	for _, n := range q.NonTargets {
		for _, id := range e.index()[strings.TrimSpace(n)] {
			opts.NonTargets[id] = true
		}
	}
	dres, err := idx.Analyze(targets, opts)
	if err != nil {
		return nil, claerr.New(claerr.PhaseQuery, err)
	}
	deps := dres.Dependents()
	if q.Limit > 0 && len(deps) > q.Limit {
		deps = deps[:q.Limit]
	}
	out := make([]DependEntry, 0, len(deps))
	for _, d := range deps {
		out = append(out, DependEntry{
			Object:   e.object(d.Sym),
			Strong:   d.Strength == prim.Strong,
			Distance: d.Dist,
			Chain:    dres.FormatChain(d.Sym),
		})
	}
	return out, nil
}

func (e *Evaluator) lint(names []string) ([]Finding, error) {
	selected := checks.AllChecks()
	if len(names) > 0 {
		var err error
		selected, err = checks.ParseChecks(names)
		if err != nil {
			return nil, claerr.New(claerr.PhaseUsage, err)
		}
	}
	rep, err := e.checksReport()
	if err != nil {
		return nil, err
	}
	want := map[checks.Check]bool{}
	for _, c := range selected {
		want[c] = true
	}
	out := []Finding{}
	for _, d := range rep.Diags {
		if !want[d.Check] {
			continue
		}
		out = append(out, Finding{
			Check: string(d.Check), File: d.Loc.File, Line: int(d.Loc.Line),
			Func: d.Func, Message: d.Message,
		})
	}
	return out, nil
}

// QueryNames returns every queryable object name, sorted — /statsz and
// the benchmark harness use it to drive representative query mixes.
func (e *Evaluator) QueryNames() []string {
	byName := e.index()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
