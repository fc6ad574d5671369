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
//	claan -solver pretrans|worklist|steens|bitvec|onelevel ...
//	claan -extmodel blanket -pts p src/  # model undefined externals (PIP-style)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cla/internal/core"
	"cla/internal/depend"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
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
		solverName = flag.String("solver", "pretrans", "solver: pretrans, worklist, steens, bitvec or onelevel")
		extModel   = flag.String("extmodel", "unsound", "incomplete-program model: unsound, blanket or escape")
		noCache    = flag.Bool("no-cache", false, "disable reachability caching (affects only the sequential fixpoint, -j 1)")
		noCycle    = flag.Bool("no-cycle-elim", false, "disable cycle elimination")
		noDemand   = flag.Bool("no-demand-load", false, "load the whole database upfront")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "workers for compilation, batch queries and result materialization; -j 2 or more also runs the pre-transitive wave fixpoint")
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

	db, prog, err := openInput(flag.Args(), *jobs, model, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(1)
	}
	var src pts.Source
	if db != nil {
		defer db.Close()
		src = &pts.FileSource{R: db}
	} else {
		src = pts.NewMemSource(prog)
	}
	// Names are looked up and printed in the input's symbol table; a
	// transformation below only changes what the solver reads.
	names := src

	// Pre-analysis database-to-database transformations (Section 4).
	subst := func(id prim.SymID) prim.SymID { return id }
	if *ovs || *contextSen {
		if db != nil {
			if prog, err = db.Program(); err != nil {
				fmt.Fprintf(os.Stderr, "claan: %v\n", err)
				os.Exit(1)
			}
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
		if err := writeDot(*dotOut, names, res); err != nil {
			fmt.Fprintf(os.Stderr, "claan: %v\n", err)
			os.Exit(1)
		}
	}

	switch {
	case *ptsName != "":
		ids := named(names, *ptsName)
		if len(ids) == 0 {
			fmt.Fprintf(os.Stderr, "claan: no object named %q\n", *ptsName)
			os.Exit(1)
		}
		for _, id := range ids {
			printPts(names, res, subst(id))
		}
	case *ptsAll:
		for i := 0; i < names.NumSyms(); i++ {
			id := prim.SymID(i)
			if !pts.CountedAsPointerVar(names.Sym(id).Kind) {
				continue
			}
			if len(res.PointsTo(subst(id))) > 0 {
				printPts(names, res, subst(id))
			}
		}
	case *target != "":
		runDependence(names, src, res, *target, *nonTargets, *maxDeps, *tree, *treeDepth)
	case obsFlags.Stats:
		// handled below, once load accounting is final
	default:
		if *dotOut == "" && !obsFlags.Any() {
			fmt.Fprintln(os.Stderr, "claan: nothing to do (use -pts, -pts-all, -target, -stats, -trace or -dot)")
			os.Exit(2)
		}
	}

	// Demand-load accounting covers everything the run touched —
	// analysis and queries alike — so it is published last, and only for
	// a database read from its file.
	if db != nil {
		db.LoadStats().Publish(o)
	}
	if obsFlags.Stats {
		printStats(os.Stdout, o, solver, src, res, db)
	}
	if err := obsFlags.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "claan: %v\n", err)
		os.Exit(1)
	}
}

// printStats renders the paper-style report: phase spans, database
// characteristics (Table 2), analysis results (Table 3), the demand-load
// accounting of a database read from its file, then the remaining
// registry counters.
func printStats(w *os.File, o *obs.Observer, solver driver.Solver, src pts.Source, res pts.Result, db *objfile.Reader) {
	var rep obs.Report
	rep.Sections = append(rep.Sections, o.PhaseSection())
	rep.Sections = append(rep.Sections, driver.DBSection(src))
	rep.Sections = append(rep.Sections, driver.AnalysisSection(solver, res.Metrics()))
	if db != nil {
		rep.Sections = append(rep.Sections, driver.LoadSection(db.LoadStats()))
	}
	rep.Sections = append(rep.Sections, driver.CounterSection(o))
	rep.Format(w)
}

// openInput resolves the inputs. A database under the unsound model
// opens as a demand-loading reader. Otherwise the inputs' program (the
// compiled and linked units, or the whole database) is closed with the
// model's constraints and analyzed in memory.
func openInput(args []string, jobs int, model extmodel.Model, o *obs.Observer) (*objfile.Reader, *prim.Program, error) {
	in, err := driver.ResolveInputs(args, nil)
	if err != nil {
		return nil, nil, err
	}
	if in.Database != "" && model == extmodel.Unsound {
		db, err := objfile.Open(in.Database)
		return db, nil, err
	}
	prog, err := in.Program(context.Background(), frontend.Options{}, jobs, o)
	if err != nil {
		return nil, nil, err
	}
	extmodel.Apply(prog, model)
	return nil, prog, nil
}

// named returns the non-temporary symbols called name, ids ascending.
func named(names pts.Source, name string) []prim.SymID {
	if name == "" {
		return nil
	}
	var ids []prim.SymID
	for i := 0; i < names.NumSyms(); i++ {
		if s := names.Sym(prim.SymID(i)); s.Name == name && s.Kind != prim.SymTemp {
			ids = append(ids, prim.SymID(i))
		}
	}
	return ids
}

// writeDot exports the non-empty points-to relation as a Graphviz digraph:
// solid edges are may-point-to facts from program variables to objects.
func writeDot(path string, names pts.Source, res pts.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "digraph pointsto {")
	fmt.Fprintln(f, "  rankdir=LR;")
	fmt.Fprintln(f, "  node [shape=box, fontsize=10];")
	for i := 0; i < names.NumSyms(); i++ {
		id := prim.SymID(i)
		if !pts.CountedAsPointerVar(names.Sym(id).Kind) {
			continue
		}
		set := res.PointsTo(id)
		if len(set) == 0 {
			continue
		}
		for _, z := range set {
			fmt.Fprintf(f, "  %q -> %q;\n", names.Sym(id).Name, names.Sym(z).Name)
		}
	}
	fmt.Fprintln(f, "}")
	return nil
}

func printPts(names pts.Source, res pts.Result, id prim.SymID) {
	set := res.PointsTo(id)
	var objs []string
	for _, z := range set {
		objs = append(objs, names.Sym(z).Name)
	}
	fmt.Printf("%s -> {%s}\n", names.Sym(id).Name, strings.Join(objs, ", "))
}

func runDependence(names, src pts.Source, res pts.Result, target, nonTargets string, maxDeps int, tree bool, treeDepth int) {
	ids := named(names, target)
	if len(ids) == 0 {
		fmt.Fprintf(os.Stderr, "claan: no object named %q\n", target)
		os.Exit(1)
	}
	opts := depend.Options{NonTargets: map[prim.SymID]bool{}}
	if nonTargets != "" {
		for _, n := range strings.Split(nonTargets, ",") {
			for _, id := range named(names, strings.TrimSpace(n)) {
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
