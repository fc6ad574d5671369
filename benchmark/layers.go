package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cla"
	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/depend"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/incr"
	"cla/internal/linker"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/serve"
	"cla/internal/snapfile"
)

const (
	// snapReopens is how many snapfile open/verify/first-query cycles the
	// traced run times.
	snapReopens = 5
	// evalQueries is the traced serving loop's length: enough that the
	// rarest kinds in the lookup mix (1 in 9) have a p99 with ten
	// samples beyond it.
	evalQueries = 9000
	// depTargets is how many dependence queries the traced run times.
	depTargets = 3
	// traceEdits is how many fact edit, comment edit and poll rounds the
	// traced run times through the incremental pipeline.
	traceEdits = 3
	// overheadReps is how many untraced and traced operations the
	// cold-analyze and edit-loop tracing overhead compares.
	overheadReps = 2
	// overheadBudget caps the time the dependence workload spends
	// comparing untraced and traced queries.
	overheadBudget = 5 * time.Second
	// firstOverheadEdit numbers the overhead run's fact edits apart from
	// the incremental section's, so no two units ever define one name.
	firstOverheadEdit = 1000
)

// layers is one traced run: it calls each layer's public functions
// directly, from this file, inside obs spans, and derives the per-layer
// timings from the recorded spans. The program itself is not
// instrumented.
type layers struct {
	e   *runEnv
	rep *report
	o   *obs.Observer
	// snap is the snapshot the traced run wrote and serves from.
	snap string
}

// run wraps fn in a root span.
func (l *layers) run(name string, fn func() error) error {
	sp := l.o.Start(name)
	defer sp.End()
	return fn()
}

// built is the output of the layer-composed compile, link and solve.
type built struct {
	prog *prim.Program
	src  pts.Source
	res  pts.Result
}

// build compiles every unit with frontend.CompileFile over the jobs
// workers, links with linker.LinkParallel and solves with core.Solve,
// each inside a span of o (which may be nil).
func build(o *obs.Observer, in *input) (*built, error) {
	loader := cpp.OSLoader{Dirs: []string{in.dir}}
	progs := make([]*prim.Program, len(in.units))
	sp := o.Start("compile")
	err := parallel.ForEach(jobs, len(in.units), func(i int) error {
		usp := o.StartTrack(i+1, "compile.unit")
		defer usp.End()
		p, err := frontend.CompileFile(in.units[i], loader, frontend.Options{})
		progs[i] = p
		return err
	})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sp = o.Start("link")
	prog, err := linker.LinkParallel(progs, jobs)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	src := pts.NewMemSource(prog)
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs
	sp = o.Start("solve")
	res, err := core.Solve(src, cfg)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	return &built{prog: prog, src: src, res: res}, nil
}

// traceRun is the traced per-layer run of a workload on its own input.
// Dependence runs on the input capped at depScaleCap, which for the
// larger workloads is a smaller tree of the same profile.
func traceRun(e *runEnv) *report {
	rep := newReport()
	l := &layers{e: e, rep: rep, o: obs.New()}
	in, err := writeInput(e.path("tree"), e.scale())
	if !rep.ok(err, "write input") {
		return rep
	}
	rep.Info = in.info()

	b, err := build(l.o, in)
	if !rep.ok(err, "layer build") {
		return rep
	}
	m := b.res.Metrics()
	rep.set("link.assigns", float64(len(b.prog.Assigns)), 1)
	rep.set("solve.relations", float64(m.Relations), 1)
	rep.set("solve.passes", float64(m.Passes), 1)
	rep.set("solve.unifications", float64(m.Unifications), 1)
	rep.set("solve.cache_hits", float64(m.CacheHits), 1)
	var findings *checks.Report
	err = l.run("checks", func() (err error) {
		findings, err = checks.Run(b.prog, b.res, checks.Options{Jobs: jobs})
		return err
	})
	if !rep.ok(err, "checks") {
		return rep
	}

	if l.snapshot(in, b, findings) {
		l.serve(in)
	}
	l.depend(in, b)
	l.incremental(in, m.Relations)
	l.overhead(in)
	l.spanMetrics(in)
	l.writeTrace()
	return rep
}

// snapshot writes the layer-built analysis as a .snap with its sources
// recorded, then times snapfile.Open, VerifySources and the first
// answer of a fresh evaluator over it.
func (l *layers) snapshot(in *input, b *built, findings *checks.Report) bool {
	rep := l.rep
	l.snap = l.e.path("layers.snap")
	srcs, err := snapfile.HashSources(in.files)
	if !rep.ok(err, "hash sources") {
		return false
	}
	err = l.run("snap.save", func() error {
		return snapfile.Save(l.snap, &snapfile.Snapshot{
			Prog: b.prog, Res: b.res, Report: findings, Sources: srcs,
			Solver: driver.PreTransitive.String(), ExtModel: extmodel.Unsound.String(),
		})
	})
	if !rep.ok(err, "save snapshot") {
		return false
	}
	if fi, err := os.Stat(l.snap); rep.ok(err, "stat snapshot") {
		rep.set("snap.bytes", float64(fi.Size()), 1)
	}
	probe := pointsTo(declared(in.code, "int *", "gp")[0])
	for i := 0; i < snapReopens; i++ {
		runtime.GC()
		var r *snapfile.Reader
		err := l.run("snap.open", func() (err error) {
			r, err = snapfile.Open(l.snap, snapfile.Options{})
			return err
		})
		if !rep.ok(err, "open snapshot") {
			return false
		}
		err = l.run("snap.verify", r.VerifySources)
		if err == nil {
			err = l.run("snap.first_query", func() error {
				ev := serve.NewEvaluator(r.Program(), pts.NewMemSource(r.Program()), r.Result(), 0)
				ev.SeedChecks(r.Report())
				return answerErr(ev.Eval(l.e.ctx, probe))
			})
		}
		r.Close()
		if !rep.ok(err, "snapshot first answer") {
			return false
		}
	}
	return true
}

// lookupBank is editor traffic for the traced serving loop, in the mix 4
// pointsto : 3 alias : 1 modref of one function : 1 lint(deref). It asks
// every global pointer for its points-to set once, and the seed draws
// the alias pairs, the functions and the order. Covering the whole
// population, not a sample of it, keeps the latency distribution the
// same from seed to seed: points-to set sizes are heavy-tailed.
func lookupBank(rng *rand.Rand, ptrs, funcs []string) []cla.Query {
	n := len(ptrs)
	out := make([]cla.Query, 0, 9*n/4)
	for _, p := range ptrs {
		out = append(out, pointsTo(p))
	}
	for i := 0; i < 3*n/4; i++ {
		out = append(out, cla.Query{Kind: "alias", X: pick(rng, ptrs), Y: pick(rng, ptrs)})
	}
	for i := 0; i < n/4; i++ {
		out = append(out, cla.Query{Kind: "modref", Func: pick(rng, funcs)},
			cla.Query{Kind: "lint", Checks: []string{"deref"}})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serve runs the lookup mix through serve.Evaluator.Eval from two
// clients, one span per query on the client's track.
func (l *layers) serve(in *input) {
	rep := l.rep
	r, err := snapfile.Open(l.snap, snapfile.Options{})
	if !rep.ok(err, "open snapshot") {
		return
	}
	defer r.Close()
	ev := serve.NewEvaluator(r.Program(), pts.NewMemSource(r.Program()), r.Result(), 0)
	ev.SeedChecks(r.Report())
	bank := lookupBank(l.e.rng(5), declared(in.code, "int *", "gp"), declared(in.code, "int ", "fn"))

	const clients = 2
	var objects, pointsto, answered [clients]int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < evalQueries; i += clients {
				q := bank[i%len(bank)]
				sp := l.o.StartTrack(c+1, "eval."+q.Kind)
				res := ev.Eval(l.e.ctx, q)
				sp.End()
				if res.Err != nil {
					rep.check(false, "eval: %v", answerErr(res))
					continue
				}
				answered[c]++
				if q.Kind == "pointsto" {
					objects[c] += len(res.Objects)
					pointsto[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	rep.add(answered[0] + answered[1])
	n := pointsto[0] + pointsto[1]
	rep.set("eval.pointsto_objects", float64(objects[0]+objects[1])/float64(max(n, 1)), n)
	rep.set("gc.pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	rep.set("heap.alloc_bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/evalQueries, evalQueries)
}

// depend times depend.Analyze and the rendering of the top 20
// dependents' chains on seeded targets.
func (l *layers) depend(in *input, b *built) {
	rep := l.rep
	if l.e.scale() > depScaleCap {
		err := l.run("depend.build", func() (err error) {
			if in, err = writeInput(l.e.path("depend-tree"), depScaleCap); err != nil {
				return err
			}
			b, err = build(nil, in)
			return err
		})
		if !rep.ok(err, "build dependence input") {
			return
		}
	}
	rng := l.e.rng(6)
	ptrs := declared(in.code, "int *", "gp")
	var blocks, dependents []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < depTargets; i++ {
		target := pick(rng, ptrs)
		var ids []prim.SymID
		for id := range b.prog.Syms {
			if s := &b.prog.Syms[id]; s.Name == target && s.Kind != prim.SymTemp {
				ids = append(ids, prim.SymID(id))
			}
		}
		var r *depend.Result
		err := l.run("depend.analyze", func() (err error) {
			if len(ids) == 0 {
				return fmt.Errorf("no object named %s", target)
			}
			r, err = depend.Analyze(b.src, b.res, ids, depend.Options{NonTargets: map[prim.SymID]bool{}})
			return err
		})
		if !rep.ok(err, "dependence") {
			continue
		}
		var deps []depend.Dependent
		l.run("depend.render", func() error {
			deps = r.Dependents()
			for j := 0; j < len(deps) && j < 20; j++ {
				r.FormatChain(deps[j].Sym)
			}
			return nil
		})
		blocks = append(blocks, float64(r.Loaded))
		dependents = append(dependents, float64(len(deps)))
	}
	runtime.ReadMemStats(&after)
	rep.setQ("depend.blocks_loaded", blocks, 0.5)
	rep.setQ("depend.dependents", dependents, 0.5)
	rep.set("heap.alloc_mb_per_query", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(max(len(blocks), 1)), len(blocks))
}

// incremental drives incr.Open, Update and Refresh directly and records
// the phase split of the RefreshStats they return: a cold open, a reopen
// over the filled unit store, then rounds of fact edit, comment edit and
// poll, after which the input is restored. It checks each step did the
// work it must: exactly one unit recompiled per edit, the fixpoint
// reused on comment edits, nothing rebuilt on a poll, and the cold open
// solved to the layer build's relation count.
func (l *layers) incremental(in *input, relations int) {
	rep, ctx := l.rep, l.e.ctx
	ccfg := core.DefaultConfig()
	ccfg.Jobs = jobs
	cfg := incr.Config{Dir: in.dir, Solver: driver.PreTransitive, Core: ccfg, Jobs: jobs, CacheDir: l.e.path("incr-store")}
	var p *incr.Pipeline
	err := l.run("incr.open", func() (err error) {
		p, err = incr.Open(ctx, cfg)
		return err
	})
	if !rep.ok(err, "incr open") {
		return
	}
	st := p.Current().Stats
	rep.set("open.hash_s", st.Hash.Seconds(), 1)
	rep.set("open.compile_s", st.Compile.Seconds(), 1)
	rep.set("open.link_s", st.Link.Seconds(), 1)
	rep.set("open.solve_s", st.Solve.Seconds(), 1)
	got := p.Current().Res.Metrics().Relations
	rep.check(got == relations, "incr open solved %d relations, the layer build %d", got, relations)

	runtime.GC()
	err = l.run("incr.reopen", func() error {
		p2, err := incr.Open(ctx, cfg)
		if err == nil {
			st = p2.Current().Stats
		}
		return err
	})
	if rep.ok(err, "incr reopen") {
		rep.set("reopen.compile_s", st.Compile.Seconds(), 1)
		rep.set("reopen.link_s", st.Link.Seconds(), 1)
		rep.set("reopen.solve_s", st.Solve.Seconds(), 1)
		rep.set("reopen.store_hits", float64(st.StoreHits), 1)
		rep.check(st.Recompiled == 0, "reopen recompiled %d units, want 0", st.Recompiled)
	}

	ed := newEditor(in)
	defer func() { rep.ok(ed.restore(), "restore input") }()
	rng := l.e.rng(2)
	var eHash, eCompile, eLink, eSolve, eOther, eUnits, eMerges []float64
	var rCompile, rLink, rSolveReused, pHash []float64
	update := func(span, unit string) (*incr.Result, incr.RefreshStats, error) {
		var r *incr.Result
		var st incr.RefreshStats
		err := l.run(span, func() (err error) {
			if unit == "" {
				r, st, err = p.Refresh(ctx)
			} else {
				r, st, err = p.Update(ctx, unit)
			}
			return err
		})
		return r, st, err
	}
	for k := 0; k < traceEdits; k++ {
		fu, cu := twoUnits(rng, len(in.units))
		if !rep.ok(ed.fact(fu, k), "write fact edit") {
			return
		}
		r, st, err := update("incr.edit", in.units[fu])
		if !rep.ok(err, "incr fact edit") {
			return
		}
		eHash = append(eHash, ms(st.Hash))
		eCompile = append(eCompile, ms(st.Compile))
		eLink = append(eLink, ms(st.Link))
		eSolve = append(eSolve, ms(st.Solve))
		eOther = append(eOther, ms(st.Total-st.Hash-st.Compile-st.Link-st.Solve))
		eUnits = append(eUnits, float64(st.Recompiled))
		eMerges = append(eMerges, float64(st.MergesReused)/float64(max(st.MergesDone+st.MergesReused, 1)))
		rep.check(st.Recompiled == 1, "fact edit %d recompiled %d units, want 1", k, st.Recompiled)
		rep.check(pointsToOnly(r, fmt.Sprintf("bench_p%d", k), fmt.Sprintf("bench_g%d", k)),
			"fact edit %d: bench_p%d does not point to exactly bench_g%d", k, k, k)

		if !rep.ok(ed.comment(cu, k), "write comment edit") {
			return
		}
		_, st, err = update("incr.reuse", in.units[cu])
		if !rep.ok(err, "incr comment edit") {
			return
		}
		rCompile = append(rCompile, ms(st.Compile))
		rLink = append(rLink, ms(st.Link))
		reused := 0.0
		if st.SolveReused {
			reused = 1
		}
		rSolveReused = append(rSolveReused, reused)
		rep.check(st.Recompiled == 1 && !st.Changed, "comment edit %d: recompiled %d, changed %v; want 1, false", k, st.Recompiled, st.Changed)

		_, st, err = update("incr.poll", "")
		if !rep.ok(err, "incr poll") {
			return
		}
		pHash = append(pHash, ms(st.Hash))
		rep.check(!st.Changed && st.Recompiled == 0, "poll %d rebuilt something", k)
	}
	rep.setQ("edit.hash_ms", eHash, 0.5)
	rep.setQ("edit.compile_ms", eCompile, 0.5)
	rep.setQ("edit.link_ms", eLink, 0.5)
	rep.setQ("edit.solve_ms", eSolve, 0.5)
	rep.setQ("edit.other_ms", eOther, 0.5)
	rep.setQ("edit.recompiled", eUnits, 0.5)
	rep.setQ("edit.merges_reused_ratio", eMerges, 0.5)
	rep.setQ("reuse.compile_ms", rCompile, 0.5)
	rep.setQ("reuse.link_ms", rLink, 0.5)
	rep.set("reuse.solve_reused_ratio", sum(rSolveReused)/float64(max(len(rSolveReused), 1)), len(rSolveReused))
	rep.setQ("poll.hash_ms", pHash, 0.5)
}

// pointsToOnly reports whether, in generation r, the object named ptr
// points to exactly the object named obj.
func pointsToOnly(r *incr.Result, ptr, obj string) bool {
	find := func(name string) prim.SymID {
		for id := range r.Prog.Syms {
			if r.Prog.Syms[id].Name == name {
				return prim.SymID(id)
			}
		}
		return prim.NoSym
	}
	p, o := find(ptr), find(obj)
	set := r.Res.PointsTo(p)
	return p != prim.NoSym && o != prim.NoSym && len(set) == 1 && set[0] == o
}

// overhead compares the workload's own operation with and without
// tracing.
func (l *layers) overhead(in *input) {
	un, tr := l.e.w.overhead(l, in)
	if len(un) == 0 || len(tr) == 0 {
		l.rep.check(false, "no operations for the tracing overhead")
		return
	}
	l.rep.set("trace.overhead_pct", 100*(median(tr)/median(un)-1), len(un)+len(tr))
}

// order alternates which of an untraced and a traced operation runs
// first, so neither always finds the caches the other warmed.
func order(i int) []bool {
	if i%2 == 0 {
		return []bool{false, true}
	}
	return []bool{true, false}
}

// timeOp runs one operation, timed by a span when traced and by the
// clock otherwise, and returns its duration in ms.
func (l *layers) timeOp(traced bool, fn func() error) (float64, error) {
	if !traced {
		start := time.Now()
		err := fn()
		return ms(time.Since(start)), err
	}
	sp := l.o.Start("op.traced")
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp.End()
	return ms(d), err
}

// overheadColdAnalyze alternates untraced cold opens with cold opens
// under a cla.Observer.
func overheadColdAnalyze(l *layers, in *input) (un, tr []float64) {
	ctx := l.e.ctx
	q := []cla.Query{pointsTo(declared(in.code, "int *", "gp")[0])}
	store := l.e.path("overhead-store")
	for i := 0; i < overheadReps; i++ {
		for _, traced := range order(i) {
			opts := &cla.WorkspaceOptions{Jobs: jobs, CacheDir: store}
			if traced {
				opts.Observer = cla.NewObserver()
			}
			if !l.rep.ok(os.RemoveAll(store), "clear store") {
				return
			}
			runtime.GC()
			d, err := l.timeOp(traced, func() error {
				ws, err := cla.OpenWorkspace(ctx, in.dir, opts)
				if err != nil {
					return err
				}
				_, err = ws.Analysis().Query(ctx, q)
				return err
			})
			if !l.rep.ok(err, "overhead cold open") {
				return
			}
			if traced {
				tr = append(tr, d)
			} else {
				un = append(un, d)
			}
		}
	}
	return un, tr
}

// overheadEditLoop applies fact edits seen by two workspaces, one with
// a cla.Observer attached.
func overheadEditLoop(l *layers, in *input) (un, tr []float64) {
	ctx := l.e.ctx
	plain, err := cla.OpenWorkspace(ctx, in.dir, &cla.WorkspaceOptions{Jobs: jobs})
	if !l.rep.ok(err, "overhead open") {
		return
	}
	observed, err := cla.OpenWorkspace(ctx, in.dir, &cla.WorkspaceOptions{Jobs: jobs, Observer: cla.NewObserver()})
	if !l.rep.ok(err, "overhead open") {
		return
	}
	ed := newEditor(in)
	rng := l.e.rng(4)
	for k := firstOverheadEdit; k < firstOverheadEdit+overheadReps; k++ {
		fu, _ := twoUnits(rng, len(in.units))
		if !l.rep.ok(ed.fact(fu, k), "write fact edit") {
			return
		}
		q := []cla.Query{pointsTo(fmt.Sprintf("bench_p%d", k))}
		for _, traced := range order(k) {
			ws := plain
			if traced {
				ws = observed
			}
			d, err := l.timeOp(traced, func() error {
				an, err := ws.Update(ctx, in.units[fu])
				if err != nil {
					return err
				}
				_, err = an.Query(ctx, q)
				return err
			})
			if !l.rep.ok(err, "overhead fact edit") {
				return
			}
			if traced {
				tr = append(tr, d)
			} else {
				un = append(un, d)
			}
		}
	}
	return un, tr
}

// overheadDependence answers the workload's dependence queries from the
// traced run's snapshot, each once untraced and once traced, for at most
// overheadBudget.
func overheadDependence(l *layers, in *input) (un, tr []float64) {
	if l.snap == "" {
		return nil, nil
	}
	an, err := cla.OpenSnapshot(l.snap, nil)
	if !l.rep.ok(err, "overhead open snapshot") {
		return
	}
	defer an.Close()
	bank := dependenceBank(l.e.rng(3), declared(in.code, "int *", "gp"))
	start := time.Now()
	for i, q := range bank {
		if len(un) > 0 && time.Since(start) > overheadBudget {
			break
		}
		for _, traced := range order(i) {
			d, err := l.timeOp(traced, func() error {
				res, err := an.Query(l.e.ctx, []cla.Query{q})
				if err == nil {
					err = answerErr(res[0])
				}
				return err
			})
			if !l.rep.ok(err, "overhead query") {
				return
			}
			if traced {
				tr = append(tr, d)
			} else {
				un = append(un, d)
			}
		}
	}
	return un, tr
}

// spanMetrics derives the per-layer timings from the recorded spans.
func (l *layers) spanMetrics(in *input) {
	rep := l.rep
	d := map[string][]float64{} // span name → durations in seconds
	for _, ev := range l.o.Events() {
		d[ev.Name] = append(d[ev.Name], ev.Dur().Seconds())
	}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	if units, wall := d["compile.unit"], d["compile"]; len(units) > 0 && len(wall) == 1 {
		busy := sum(units)
		rep.set("compile.busy_s", busy, len(units))
		rep.set("compile.wall_s", wall[0], 1)
		rep.set("compile.parallel_eff", busy/(wall[0]*jobs), len(units))
		rep.setQ("compile.unit_p50_ms", scaled(units, 1e3), 0.5)
		rep.setQ("compile.unit_max_ms", scaled(units, 1e3), 1)
		rep.set("compile.lines_per_s", float64(in.code.TotalLines())/wall[0], 1)
	}
	for _, name := range []string{"link", "solve", "checks"} {
		if xs := d[name]; len(xs) == 1 {
			rep.set(name+".wall_s", xs[0], 1)
		}
	}
	for _, s := range []struct {
		span, metric string
		f            float64
	}{
		{"snap.open", "snap.open_ms", 1e3},
		{"snap.verify", "snap.verify_ms", 1e3},
		{"snap.first_query", "snap.first_query_us", 1e6},
		{"depend.analyze", "depend.analyze_ms", 1e3},
		{"depend.render", "depend.render_ms", 1e3},
	} {
		if xs := d[s.span]; len(xs) > 0 {
			rep.setQ(s.metric, scaled(xs, s.f), 0.5)
		}
	}
	for _, kind := range []string{"pointsto", "alias", "modref", "lint"} {
		if xs := d["eval."+kind]; len(xs) > 0 {
			rep.setQ("eval."+kind+"_p50_us", scaled(xs, 1e6), 0.5)
			rep.setQ("eval."+kind+"_p99_us", scaled(xs, 1e6), 0.99)
		}
	}
}

// writeTrace writes the recorded spans as Chrome trace JSON under
// buildDir, named after the workload and seed, and checks it parses.
func (l *layers) writeTrace() {
	var buf bytes.Buffer
	err := l.o.WriteTrace(&buf)
	if err == nil && !json.Valid(buf.Bytes()) {
		err = errors.New("trace is not valid JSON")
	}
	path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", l.e.opt.workload, l.e.opt.seed))
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if l.rep.ok(err, "write chrome trace") {
		if abs, err := filepath.Abs(path); err == nil {
			path = abs
		}
		l.rep.TracePath = path
	}
}
