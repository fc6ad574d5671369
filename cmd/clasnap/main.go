// Clasnap builds and inspects CLA solved snapshots (.snap): a serialized
// solved analysis — program, interned points-to sets, cached checks
// report — that claserve and the library can page in at cold start
// instead of re-parsing and re-solving.
//
// Usage:
//
//	clasnap -o program.snap program.cla         # solve once, snapshot
//	clasnap -o program.snap -solver bitvec src/ # source dir, other solver
//	clasnap -extmodel escape -o p.snap p.cla    # close over externals
//	clasnap -info program.snap                  # print header and meta
//	clasnap -verify program.snap                # re-hash sources; exit 3 if stale
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cla/internal/claerr"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/serve"
	"cla/internal/snapfile"
)

func main() {
	var (
		out        = flag.String("o", "a.snap", "output snapshot")
		info       = flag.Bool("info", false, "print the snapshot's header and meta instead of building")
		verify     = flag.Bool("verify", false, "re-hash the snapshot's recorded sources; exit 3 when stale")
		solverName = flag.String("solver", "pretrans", "solver: pretrans, worklist, steens, bitvec or onelevel")
		extModel   = flag.String("extmodel", "unsound", "incomplete-program model: unsound, blanket or escape")
		includes   = flag.String("I", "", "comma-separated extra include directories (directory inputs)")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "workers for compilation and the solve")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := run(flag.Args(), *out, *info, *verify, *solverName, *extModel,
		*includes, *jobs, obsFlags); err != nil {
		fmt.Fprintf(os.Stderr, "clasnap: %v\n", err)
		os.Exit(claerr.ExitCode(err))
	}
}

func run(args []string, out string, info, verify bool, solverName, extModel,
	includes string, jobs int, obsFlags *obs.Flags) error {
	if len(args) != 1 {
		return claerr.Newf(claerr.PhaseUsage, "need exactly one input (linked database, source directory, or .snap for -info/-verify)")
	}
	path := args[0]
	if info || verify {
		return inspect(path, info, verify)
	}
	solver, err := driver.ParseSolver(solverName)
	if err != nil {
		return claerr.New(claerr.PhaseUsage, err)
	}
	model, err := extmodel.ParseModel(extModel)
	if err != nil {
		return claerr.New(claerr.PhaseUsage, err)
	}
	o := obsFlags.Observer()
	parallel.SetObserver(o)
	if err := obsFlags.Start(); err != nil {
		return claerr.New(claerr.PhaseUsage, err)
	}
	var incDirs []string
	if includes != "" {
		incDirs = strings.Split(includes, ",")
	}
	snap, err := serve.BuildSnapshot(context.Background(), path, serve.Config{
		Solver: solver, ExtModel: model, Jobs: jobs, Includes: incDirs, Obs: o,
	})
	if err != nil {
		return err
	}
	wsp := o.Start("write")
	if err := snapfile.Save(out, snap); err != nil {
		return claerr.File(claerr.PhaseObject, out, err)
	}
	wsp.End()
	st, _ := os.Stat(out)
	fmt.Fprintf(os.Stderr, "clasnap: %s: %d symbols, %d assignments, %d bytes\n",
		out, len(snap.Prog.Syms), len(snap.Prog.Assigns), st.Size())
	if obsFlags.Stats {
		var rep obs.Report
		rep.Sections = append(rep.Sections, o.PhaseSection())
		rep.Sections = append(rep.Sections, driver.CounterSection(o))
		rep.Format(os.Stdout)
	}
	return obsFlags.Finish()
}

// inspect serves -info and -verify against an existing snapshot.
func inspect(path string, info, verify bool) error {
	r, err := snapfile.Open(path, snapfile.Options{})
	if err != nil {
		return claerr.File(claerr.PhaseObject, path, err)
	}
	defer r.Close()
	if info {
		m := r.Meta()
		fmt.Printf("snapshot    %s\n", path)
		fmt.Printf("solver      %s\n", m.Solver)
		fmt.Printf("extmodel    %s\n", m.ExtModel)
		fmt.Printf("symbols     %d\n", m.Syms)
		fmt.Printf("assignments %d\n", m.Assigns)
		fmt.Printf("sets        %d distinct, %d elements\n", m.Sets, m.Elems)
		fmt.Printf("digest      %016x\n", r.ResultDigest())
		fmt.Printf("mmap        %v (zero-copy %v)\n", r.Mapped(), r.ZeroCopy())
		for _, s := range m.Sources {
			fmt.Printf("source      %s (%d bytes, %s)\n", s.Path, s.Size, s.Hash)
		}
	}
	if verify {
		if err := r.VerifySources(); err != nil {
			return err
		}
		fmt.Printf("clasnap: %s: sources verified (%d recorded)\n",
			path, len(r.Meta().Sources))
	}
	return nil
}
