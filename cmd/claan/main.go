// Claan is the CLA analyze phase: it runs points-to and dependence queries
// against a linked object database, demand-loading just the blocks the
// query needs. It also accepts C sources or a directory, running the
// compile and link phases in-process first.
//
// Usage:
//
//	claan -pts p program.cla             # print what p may point to
//	claan -pts-all program.cla           # print all non-empty points-to sets
//	claan -target x [-nontarget h] program.cla   # forward dependence from x
//	claan -stats program.cla             # paper-style per-phase report
//	claan -stats src/                    # compile+link+analyze a directory
//	claan -trace out.json program.cla    # Chrome trace of the run
//	claan -solver pretrans|worklist|steens ...
//	claan -extmodel blanket -pts p src/  # model undefined externals (PIP-style)
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/depend"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/incr"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/xform"
)

func main() {
	var (
		ptsName    = flag.String("pts", "", "print points-to set of the named object")
		ptsAll     = flag.Bool("pts-all", false, "print all non-empty points-to sets")
		target     = flag.String("target", "", "dependence target object name")
		nonTargets = flag.String("nontarget", "", "comma-separated non-target names")
		solverName = flag.String("solver", "pretrans", "solver: pretrans, worklist, steens or bitvec")
		extModel   = flag.String("extmodel", "unsound", "incomplete-program model: unsound, blanket or escape")
		noCache    = flag.Bool("no-cache", false, "disable reachability caching")
		noCycle    = flag.Bool("no-cycle-elim", false, "disable cycle elimination")
		noDemand   = flag.Bool("no-demand-load", false, "load the whole database upfront")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "workers for compilation, batch queries and result materialization")
		maxDeps    = flag.Int("max", 50, "maximum dependents to print")
		ovs        = flag.Bool("ovs", false, "apply offline variable substitution before solving")
		contextSen = flag.Bool("context", false, "apply per-call-site context duplication before solving")
		dotOut     = flag.String("dot", "", "write the points-to relation as Graphviz dot to this file")
		tree       = flag.Bool("tree", false, "print dependence results as a tree (with -target)")
		treeDepth  = flag.Int("tree-depth", 0, "maximum tree depth (0 = unlimited)")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "claan: need a database, a directory or .c files")
		os.Exit(2)
	}
	solver, err := driver.ParseSolver(*solverName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(2)
	}
	model, err := extmodel.ParseModel(*extModel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(2)
	}
	cfg := core.Config{Cache: !*noCache, CycleElim: !*noCycle, DemandLoad: !*noDemand, Jobs: *jobs}

	o := obsFlags.Observer()
	parallel.SetObserver(o)
	if err := obsFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(1)
	}

	r, err := openDatabase(flag.Args(), *jobs, model, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(1)
	}
	defer r.Close()
	var src pts.Source = &pts.FileSource{R: r}

	// Pre-analysis database-to-database transformations (Section 4).
	subst := func(id prim.SymID) prim.SymID { return id }
	if *ovs || *contextSen {
		prog, err := r.Program()
		if err != nil {
			fmt.Fprintf(os.Stderr, "claan: %v\n", err)
			os.Exit(1)
		}
		if *contextSen {
			prog = xform.ContextSensitive(prog, xform.Options{})
		}
		if *ovs {
			var mapping []prim.SymID
			prog, mapping = xform.OfflineVarSub(prog)
			subst = func(id prim.SymID) prim.SymID {
				if int(id) < len(mapping) {
					return mapping[id]
				}
				return id
			}
		}
		src = pts.NewMemSource(prog)
	}

	res, err := driver.Analyze(context.Background(), src, solver, cfg, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(1)
	}
	if *dotOut != "" {
		if err := writeDot(*dotOut, r, res); err != nil {
			fmt.Fprintf(os.Stderr, "claan: %v\n", err)
			os.Exit(1)
		}
	}

	switch {
	case *ptsName != "":
		ids := r.TargetLookup(*ptsName)
		if len(ids) == 0 {
			fmt.Fprintf(os.Stderr, "claan: no object named %q\n", *ptsName)
			os.Exit(1)
		}
		for _, id := range ids {
			printPts(r, res, subst(id))
		}
	case *ptsAll:
		for i := 0; i < r.NumSyms(); i++ {
			id := prim.SymID(i)
			if !pts.CountedAsPointerVar(r.Sym(id).Kind) {
				continue
			}
			if len(res.PointsTo(subst(id))) > 0 {
				printPts(r, res, subst(id))
			}
		}
	case *target != "":
		runDependence(r, src, res, *target, *nonTargets, *maxDeps, *tree, *treeDepth)
	case obsFlags.Stats:
		// handled below, once load accounting is final
	default:
		if *dotOut == "" && !obsFlags.Any() {
			fmt.Fprintln(os.Stderr, "claan: nothing to do (use -pts, -pts-all, -target, -stats, -trace or -dot)")
			os.Exit(2)
		}
	}

	// Demand-load accounting covers everything the run touched —
	// analysis and queries alike — so it is published last.
	r.LoadStats().Publish(o)
	if obsFlags.Stats {
		printStats(os.Stdout, o, solver, src, res, r.LoadStats())
	}
	if err := obsFlags.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(1)
	}
}

// printStats renders the paper-style report: phase spans, database
// characteristics (Table 2), analysis results (Table 3) and the
// demand-load accounting, then the remaining registry counters.
func printStats(w *os.File, o *obs.Observer, solver driver.Solver, src pts.Source, res pts.Result, ls objfile.LoadStats) {
	var rep obs.Report
	rep.Sections = append(rep.Sections, o.PhaseSection())
	rep.Sections = append(rep.Sections, driver.DBSection(src))
	rep.Sections = append(rep.Sections, driver.AnalysisSection(solver, res.Metrics()))
	rep.Sections = append(rep.Sections, driver.LoadSection(ls))
	rep.Sections = append(rep.Sections, driver.CounterSection(o))
	rep.Format(w)
}

// openDatabase resolves the inputs to an objfile reader. A single
// non-.c file opens directly; a directory or .c files are compiled and
// linked in-process, then round-tripped through the object format in
// memory so the analysis exercises the real demand-loading path. Under an
// extern model the database (file-backed or not) is materialized, closed
// with the model's constraints and round-tripped, so the reader also
// resolves the synthesized external-world symbols.
func openDatabase(args []string, jobs int, model extmodel.Model, o *obs.Observer) (*objfile.Reader, error) {
	var prog *prim.Program
	var err error
	if len(args) == 1 {
		info, statErr := os.Stat(args[0])
		if statErr != nil {
			return nil, statErr
		}
		switch {
		case !info.IsDir() && filepath.Ext(args[0]) != ".c":
			if model == extmodel.Unsound {
				return objfile.Open(args[0])
			}
			r, err := objfile.Open(args[0])
			if err != nil {
				return nil, err
			}
			prog, err = r.Program()
			r.Close()
			if err != nil {
				return nil, err
			}
		case info.IsDir():
			prog, err = incr.CompileDir(context.Background(), incr.Config{Dir: args[0], Jobs: jobs, Obs: o})
		default:
			prog, err = compileUnits(args, jobs, o)
		}
	} else {
		prog, err = compileUnits(args, jobs, o)
	}
	if err != nil {
		return nil, err
	}
	extmodel.Apply(prog, model)
	var buf bytes.Buffer
	if err := objfile.Write(&buf, prog); err != nil {
		return nil, err
	}
	return objfile.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
}

func compileUnits(args []string, jobs int, o *obs.Observer) (*prim.Program, error) {
	dirs := map[string]bool{}
	for _, a := range args {
		if filepath.Ext(a) != ".c" {
			return nil, fmt.Errorf("%s: expected .c files (or a single directory or database)", a)
		}
		dirs[filepath.Dir(a)] = true
	}
	var include []string
	for d := range dirs {
		include = append(include, d)
	}
	sort.Strings(include)
	return driver.Compile(context.Background(), args, cpp.OSLoader{Dirs: include}, frontend.Options{}, jobs, o)
}

// writeDot exports the non-empty points-to relation as a Graphviz digraph:
// solid edges are may-point-to facts from program variables to objects.
func writeDot(path string, r *objfile.Reader, res pts.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "digraph pointsto {")
	fmt.Fprintln(f, "  rankdir=LR;")
	fmt.Fprintln(f, "  node [shape=box, fontsize=10];")
	for i := 0; i < r.NumSyms(); i++ {
		id := prim.SymID(i)
		if !pts.CountedAsPointerVar(r.Sym(id).Kind) {
			continue
		}
		set := res.PointsTo(id)
		if len(set) == 0 {
			continue
		}
		for _, z := range set {
			fmt.Fprintf(f, "  %q -> %q;\n", r.Sym(id).Name, r.Sym(z).Name)
		}
	}
	fmt.Fprintln(f, "}")
	return nil
}

func printPts(r *objfile.Reader, res pts.Result, id prim.SymID) {
	set := res.PointsTo(id)
	var names []string
	for _, z := range set {
		names = append(names, r.Sym(z).Name)
	}
	fmt.Printf("%s -> {%s}\n", r.Sym(id).Name, strings.Join(names, ", "))
}

func runDependence(r *objfile.Reader, src pts.Source, res pts.Result, target, nonTargets string, maxDeps int, tree bool, treeDepth int) {
	ids := r.TargetLookup(target)
	if len(ids) == 0 {
		fmt.Fprintf(os.Stderr, "claan: no object named %q\n", target)
		os.Exit(1)
	}
	opts := depend.Options{NonTargets: map[prim.SymID]bool{}}
	if nonTargets != "" {
		for _, n := range strings.Split(nonTargets, ",") {
			for _, id := range r.TargetLookup(strings.TrimSpace(n)) {
				opts.NonTargets[id] = true
			}
		}
	}
	dres, err := depend.Analyze(src, res, ids, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(1)
	}
	if tree {
		fmt.Print(dres.FormatTree(treeDepth))
		return
	}
	deps := dres.Dependents()
	fmt.Printf("%d dependents of %s:\n", len(deps), target)
	for i, d := range deps {
		if i >= maxDeps {
			fmt.Printf("... and %d more\n", len(deps)-maxDeps)
			break
		}
		fmt.Printf("[%s d=%d] %s\n", d.Strength, d.Dist, dres.FormatChain(d.Sym))
	}
}
