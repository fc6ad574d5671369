// Clawatch tails a directory of C sources: it analyzes the tree once,
// prints the lint findings, then polls for edits and re-lints each new
// analysis generation. Only the edited units are recompiled, and the
// program is relinked and re-solved only when some unit's compiled
// program actually changed — so an edit that changes no program, such
// as a comment that moves no line, costs only its recompiles.
//
// Usage:
//
//	clawatch src/                       # watch src/, re-lint on change
//	clawatch -interval 200ms src/       # poll faster
//	clawatch -checks deref,escape src/  # only these checks
//	clawatch -once src/                 # one pass, then exit (CI mode)
//	clawatch -cache-dir .clacache src/  # warm-start from a unit cache
//	clawatch -solver steens -j 4 src/
//
// Each generation prints one banner line
//
//	clawatch: generation N: K findings (M units recompiled, ...)
//
// followed by "file:line: [check] message (in function)" diagnostics,
// sorted and identical at every -j setting. Compile errors mid-edit are
// reported and the previous generation stays current. SIGINT or SIGTERM
// exits cleanly; with -once the exit status is 1 when findings exist,
// 0 otherwise, 2 on errors (the clalint convention).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"cla"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		interval   = flag.Duration("interval", 500*time.Millisecond, "poll interval for change detection")
		checkList  = flag.String("checks", "", "comma-separated checks to run (default all)")
		once       = flag.Bool("once", false, "analyze and lint once, then exit")
		includes   = flag.String("I", "", "comma-separated extra include directories")
		solverName = flag.String("solver", "pretrans", "solver: pretrans, worklist, steens, bitvec or onelevel")
		extModel   = flag.String("extmodel", "unsound", "incomplete-program model: unsound, blanket or escape")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "workers for compilation, solving and checking")
		cacheDir   = flag.String("cache-dir", "", "persist compiled unit databases here across runs")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "clawatch: need exactly one source directory")
		return 2
	}
	dir := flag.Arg(0)

	alg, err := parseAlgorithm(*solverName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clawatch: %v\n", err)
		return 2
	}
	model, err := cla.ParseExtModel(*extModel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clawatch: %v\n", err)
		return 2
	}
	opts := &cla.WorkspaceOptions{
		Algorithm: alg,
		ExtModel:  model,
		Jobs:      *jobs,
		CacheDir:  *cacheDir,
	}
	if *includes != "" {
		opts.IncludeDirs = strings.Split(*includes, ",")
	}
	var checks []string
	if *checkList != "" {
		checks = strings.Split(*checkList, ",")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w, err := cla.OpenWorkspace(ctx, dir, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clawatch: %v\n", err)
		return 2
	}
	defer w.Close()

	n, err := lint(ctx, w.Analysis(), checks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clawatch: %v\n", err)
		return 2
	}
	if *once {
		if n > 0 {
			return 1
		}
		return 0
	}

	fmt.Fprintf(os.Stderr, "clawatch: watching %s (every %s)\n", dir, *interval)
	w.Watch(ctx, *interval, func(a *cla.Analysis, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "clawatch: %v\n", err)
			return
		}
		if _, err := lint(ctx, a, checks); err != nil {
			fmt.Fprintf(os.Stderr, "clawatch: %v\n", err)
		}
	})
	fmt.Fprintln(os.Stderr, "clawatch: stopped")
	return 0
}

// lint runs the checks against one generation and prints its findings,
// returning how many there were.
func lint(ctx context.Context, a *cla.Analysis, checks []string) (int, error) {
	results, err := a.Query(ctx, []cla.Query{{Kind: "lint", Checks: checks}})
	if err != nil {
		return 0, err
	}
	if results[0].Err != nil {
		return 0, fmt.Errorf("%s", results[0].Err.Message)
	}
	findings := results[0].Findings
	fmt.Printf("clawatch: generation %d: %d findings\n", a.Generation(), len(findings))
	lines := make([]string, 0, len(findings))
	for _, f := range findings {
		line := fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Message)
		if f.Func != "" {
			line += fmt.Sprintf(" (in %s)", f.Func)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	return len(findings), nil
}

// parseAlgorithm maps the CLI solver names (shared with clalint and
// claserve) onto the public Algorithm constants.
func parseAlgorithm(name string) (cla.Algorithm, error) {
	switch name {
	case "", "pretrans":
		return cla.PreTransitive, nil
	case "worklist":
		return cla.WorklistAndersen, nil
	case "steens":
		return cla.SteensgaardUnify, nil
	case "bitvec":
		return cla.BitVectorAndersen, nil
	case "onelevel":
		return cla.OneLevelFlow, nil
	}
	return cla.PreTransitive, fmt.Errorf("unknown solver %q (want pretrans, worklist, steens, bitvec or onelevel)", name)
}
