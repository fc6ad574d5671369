// Clald is the CLA link phase: it merges object databases produced by
// clacc into one database with the same format, unifying global symbols.
//
// Usage:
//
//	clald -o program.cla file1.clo file2.clo ...
//	clald -undef -o program.cla file1.clo ...   # also list undefined externals
//
// clasnap solves the linked database into a ready-to-serve snapshot:
//
//	clald -o program.cla *.clo && clasnap -o program.snap program.cla
package main

import (
	"flag"
	"fmt"
	"os"

	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
)

func main() {
	out := flag.String("o", "a.cla", "output database")
	verbose := flag.Bool("v", false, "print link statistics")
	undef := flag.Bool("undef", false, "print referenced-but-undefined globals and functions")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "clald: no input files")
		os.Exit(2)
	}
	o := obsFlags.Observer()
	parallel.SetObserver(o)
	if err := obsFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "clald: %v\n", err)
		os.Exit(1)
	}
	merged, err := linker.LinkFiles(flag.Args(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clald: %v\n", err)
		os.Exit(1)
	}
	wsp := o.Start("write")
	if err := objfile.WriteFile(*out, merged); err != nil {
		fmt.Fprintf(os.Stderr, "clald: %v\n", err)
		os.Exit(1)
	}
	wsp.End()
	if *undef {
		for _, u := range extmodel.Undefined(merged) {
			kind := "global"
			if u.Kind == prim.SymFunc {
				kind = "func"
			}
			fmt.Printf("undef %-6s %s (%s)\n", kind, u.Name, u.Loc.Pos(merged))
		}
	}
	if *verbose {
		counts := merged.CountByKind()
		total := 0
		for _, c := range counts {
			total += c
		}
		fmt.Printf("clald: %d units -> %d symbols, %d assignments\n",
			flag.NArg(), len(merged.Syms), total)
	}
	if obsFlags.Stats {
		var rep obs.Report
		rep.Sections = append(rep.Sections, o.PhaseSection())
		rep.Sections = append(rep.Sections, driver.CounterSection(o))
		rep.Format(os.Stdout)
	}
	if err := obsFlags.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "clald: %v\n", err)
		os.Exit(1)
	}
}
