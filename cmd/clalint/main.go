// Clalint runs the points-to-powered static-analysis clients over C
// sources or a linked object database: indirect-call-graph resolution,
// per-function MOD/REF summaries, stack-address escape detection and
// empty-points-to dereference candidates.
//
// Usage:
//
//	clalint [flags] file.c...        # compile, link, analyze, check
//	clalint [flags] dir              # every .c file in dir
//	clalint [flags] program.cla      # a linked database (clald output)
//
//	clalint -checks callgraph,escape src/   # run a subset of the checks
//	clalint -dot cg.dot -json cg.json src/  # export the call graph
//	clalint -modref src/                    # print MOD/REF summaries
//	clalint -solver steens -j 4 src/
//	clalint -extmodel blanket src/          # sound incomplete-program mode
//	clalint -format sarif src/ > out.sarif  # SARIF 2.1.0 output
//
// With -extmodel blanket or escape, undefined externals are modeled as an
// abstract external world (see internal/extmodel) and the externs
// soundness audit joins the default checks.
//
// Exit status: 0 when no findings, 1 when any check reported a finding,
// 2 on usage or processing errors. Diagnostics go to stdout as
// "file:line: [check] message (in function)" lines, sorted and identical
// at every -j setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/incr"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		solverName = flag.String("solver", "pretrans", "solver: pretrans, worklist, steens, bitvec or onelevel")
		checkList  = flag.String("checks", "", "comma-separated checks to run (callgraph, modref, escape, deref; default all)")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "workers for compilation, solving and checking")
		dotOut     = flag.String("dot", "", "write the resolved call graph as Graphviz dot to this file")
		jsonOut    = flag.String("json", "", "write the resolved call graph as JSON to this file")
		modref     = flag.Bool("modref", false, "print per-function MOD/REF summaries")
		extModel   = flag.String("extmodel", "unsound", "incomplete-program model: unsound, blanket or escape")
		format     = flag.String("format", "text", "diagnostic output format: text or sarif")
		includes   = flag.String("I", "", "comma-separated #include search directories")
		defines    = flag.String("D", "", "comma-separated predefined macros (NAME or NAME=VALUE)")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "clalint: no inputs (C files, a directory, or a database)")
		return 2
	}
	solver, err := driver.ParseSolver(*solverName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
		return 2
	}
	model, err := extmodel.ParseModel(*extModel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "clalint: unknown format %q (want text or sarif)\n", *format)
		return 2
	}
	var selected []checks.Check
	if *checkList != "" {
		selected, err = checks.ParseChecks(strings.Split(*checkList, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
			return 2
		}
	} else if model != extmodel.Unsound {
		// Modeling was requested, so the soundness audit rides along.
		selected = checks.AllChecksAudited()
	}
	o := obsFlags.Observer()
	parallel.SetObserver(o)
	if err := obsFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
		return 2
	}

	prog, err := loadProgram(flag.Args(), *includes, *defines, *jobs, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
		return 2
	}
	extmodel.Apply(prog, model)

	cfg := core.DefaultConfig()
	cfg.Jobs = *jobs
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), solver, cfg, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
		return 2
	}

	rep, err := checks.Run(prog, res, checks.Options{
		Checks: selected, Jobs: *jobs, ExtModel: model.String(), Obs: o,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
		return 2
	}

	if *dotOut != "" {
		if rep.Graph == nil {
			fmt.Fprintln(os.Stderr, "clalint: -dot requires the callgraph check")
			return 2
		}
		if err := os.WriteFile(*dotOut, []byte(rep.Graph.DOT()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
			return 2
		}
	}
	if *jsonOut != "" {
		if rep.Graph == nil {
			fmt.Fprintln(os.Stderr, "clalint: -json requires the callgraph check")
			return 2
		}
		js, err := rep.Graph.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*jsonOut, append(js, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
			return 2
		}
	}

	if *format == "sarif" {
		out, err := rep.SARIF()
		if err != nil {
			fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
			return 2
		}
		os.Stdout.Write(append(out, '\n'))
	} else {
		rep.Format(os.Stdout)
	}
	if *modref {
		for _, s := range rep.ModRef {
			name := s.Func
			if name == "" {
				name = "<toplevel>"
			}
			fmt.Printf("%s: MOD {%s} REF {%s}\n", name,
				strings.Join(s.Mod, ", "), strings.Join(s.Ref, ", "))
		}
	}

	if obsFlags.Stats {
		var srep obs.Report
		srep.Sections = append(srep.Sections, o.PhaseSection())
		srep.Sections = append(srep.Sections, driver.AnalysisSection(solver, res.Metrics()))
		srep.Sections = append(srep.Sections, driver.CounterSection(o))
		srep.Format(os.Stdout)
	}
	if err := obsFlags.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "clalint: %v\n", err)
		return 2
	}

	if len(rep.Diags) > 0 {
		return 1
	}
	return 0
}

// loadProgram resolves the command-line inputs to a linked database:
// a single directory compiles every .c file in it, a list of .c files
// compiles and links them, and any other single file is opened as a
// serialized database.
func loadProgram(args []string, includes, defines string, jobs int, o *obs.Observer) (*prim.Program, error) {
	opts := frontend.Options{}
	if defines != "" {
		opts.Defines = map[string]string{}
		for _, d := range strings.Split(defines, ",") {
			name, val, _ := strings.Cut(strings.TrimSpace(d), "=")
			opts.Defines[name] = val
		}
	}
	var dirs []string
	if includes != "" {
		for _, d := range strings.Split(includes, ",") {
			dirs = append(dirs, strings.TrimSpace(d))
		}
	}

	if len(args) == 1 {
		info, err := os.Stat(args[0])
		if err != nil {
			return nil, err
		}
		if info.IsDir() {
			return incr.CompileDir(context.Background(), incr.Config{
				Dir: args[0], Includes: dirs, Frontend: opts, Jobs: jobs, Obs: o,
			})
		}
		if filepath.Ext(args[0]) != ".c" {
			sp := o.Start("read")
			defer sp.End()
			r, err := objfile.Open(args[0])
			if err != nil {
				return nil, err
			}
			defer r.Close()
			return r.Program()
		}
	}
	for _, a := range args {
		if filepath.Ext(a) != ".c" {
			return nil, fmt.Errorf("%s: expected .c files (or a single directory or database)", a)
		}
	}
	return driver.Compile(context.Background(), args, cpp.OSLoader{Dirs: dirs}, opts, jobs, o)
}
