// Clacc is the CLA compile phase: it parses C source files and writes
// indexed object databases of primitive assignments (.clo files).
//
// Usage:
//
//	clacc [-o out.clo] [-I dir]... [-D NAME[=VAL]]... [-mode field-based|field-independent] file.c...
//
// With several inputs and no -o, each file.c becomes file.clo.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"cla/internal/cpp"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/incr"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var (
		out      = flag.String("o", "", "output object file (default: input with .clo)")
		mode     = flag.String("mode", "field-based", "struct mode: field-based or field-independent")
		strs     = flag.Bool("strings", false, "model string constants as objects")
		cacheDir = flag.String("cache", "", "unit store directory for incremental recompilation (the -cache-dir layout)")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "number of parallel compile workers (1 = sequential)")
		includes stringList
		defines  stringList
	)
	flag.Var(&includes, "I", "include directory (repeatable)")
	flag.Var(&defines, "D", "predefine macro NAME[=VALUE] (repeatable)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "clacc: no input files")
		os.Exit(2)
	}
	o := obsFlags.Observer()
	parallel.SetObserver(o)
	if err := obsFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "clacc: %v\n", err)
		os.Exit(1)
	}
	opts := frontend.Options{ModelStrings: *strs, Defines: map[string]string{}}
	switch *mode {
	case "field-based":
		opts.Mode = frontend.FieldBased
	case "field-independent":
		opts.Mode = frontend.FieldIndependent
	default:
		fmt.Fprintf(os.Stderr, "clacc: bad -mode %q\n", *mode)
		os.Exit(2)
	}
	for _, d := range defines {
		name, val, found := strings.Cut(d, "=")
		if !found {
			val = "1"
		}
		opts.Defines[name] = val
	}
	loader := cpp.OSLoader{Dirs: includes}

	var store *incr.Store
	if *cacheDir != "" {
		var err error
		store, err = incr.OpenStore(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clacc: %v\n", err)
			os.Exit(1)
		}
	}
	compileOne := func(in string) (*prim.Program, error) {
		if store != nil {
			return store.Compile(in, includes, opts)
		}
		return frontend.CompileFile(in, loader, opts)
	}

	// Fan the independent unit compiles out across -j workers; results
	// land in argument order and the lowest-numbered failure wins, so the
	// behaviour matches a sequential loop.
	csp := o.Start("compile")
	o.SetCounter("compile.units", int64(flag.NArg()))
	progs := make([]*prim.Program, flag.NArg())
	if err := parallel.ForEach(*jobs, flag.NArg(), func(i int) error {
		usp := o.StartTrack(i+1, "unit "+filepath.Base(flag.Arg(i)))
		defer usp.End()
		p, err := compileOne(flag.Arg(i))
		progs[i] = p
		return err
	}); err != nil {
		fmt.Fprintf(os.Stderr, "clacc: %v\n", err)
		os.Exit(1)
	}
	csp.End()
	wsp := o.Start("write")
	for i, in := range flag.Args() {
		if *out == "" {
			dst := strings.TrimSuffix(in, ".c") + ".clo"
			if err := objfile.WriteFile(dst, progs[i]); err != nil {
				fmt.Fprintf(os.Stderr, "clacc: %v\n", err)
				os.Exit(1)
			}
		}
	}
	wsp.End()
	if *out != "" {
		merged := progs[0]
		if len(progs) > 1 {
			var err error
			merged, err = linker.LinkTraced(progs, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clacc: %v\n", err)
				os.Exit(1)
			}
		}
		osp := o.Start("write output")
		if err := objfile.WriteFile(*out, merged); err != nil {
			fmt.Fprintf(os.Stderr, "clacc: %v\n", err)
			os.Exit(1)
		}
		osp.End()
	}
	if obsFlags.Stats {
		var rep obs.Report
		rep.Sections = append(rep.Sections, o.PhaseSection())
		rep.Sections = append(rep.Sections, driver.CounterSection(o))
		rep.Format(os.Stdout)
	}
	if err := obsFlags.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "clacc: %v\n", err)
		os.Exit(1)
	}
}
