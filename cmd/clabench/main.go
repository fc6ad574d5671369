// Clabench regenerates the paper's evaluation tables end to end on the
// synthetic Table 2 workloads.
//
// Usage:
//
//	clabench -table 2 -scale 1.0         # benchmark characteristics
//	clabench -table 3                    # points-to results (Table 3)
//	clabench -table 4                    # field-based vs field-independent
//	clabench -table 5 -profile gimp      # cache/cycle-elim ablation (§5)
//	clabench -table 6                    # five-solver comparison (§6)
//	clabench -table 7                    # §4 database transformations
//	clabench -table 9                    # analysis clients (clalint checks)
//	clabench -table 13                   # real-C corpus conformance per extern model
//	clabench -all                        # everything
//
// Absolute times depend on the host; the shapes (who wins, by what
// factor) are the reproduction target. Clabench only prints; timing of
// the pipeline itself is the benchmark module's job (benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"cla/internal/bench"
	"cla/internal/gen"
	"cla/internal/obs"
	"cla/internal/parallel"
)

func main() {
	var (
		table    = flag.Int("table", 0, "table to regenerate (2-7, 9 or 13)")
		all      = flag.Bool("all", false, "regenerate every table")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		seed     = flag.Int64("seed", 1, "generation seed")
		profile  = flag.String("profile", "gimp", "profile for the ablation table")
		ablScale = flag.Float64("ablation-scale", 0.1, "scale for the ablation (the naive configuration is very slow at full scale, as the paper reports)")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "worker count for the analysis-client and corpus tables")
		corpus   = flag.String("corpus", "examples/corpus", "C source directory for the conformance table")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if !*all && !((*table >= 2 && *table <= 7) || *table == 9 || *table == 13) {
		fmt.Fprintln(os.Stderr, "clabench: pass -all or -table 2..7, 9 or 13")
		os.Exit(2)
	}
	o := obsFlags.Observer()
	parallel.SetObserver(o)
	if err := obsFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
		os.Exit(1)
	}
	span := func(name string) *obs.Span { return o.Start(name) }

	need := func(t int) bool { return *all || *table == t }

	var workloads []*bench.Workload
	if need(2) || need(3) || need(4) || need(6) || need(7) || need(9) {
		fmt.Fprintf(os.Stderr, "clabench: building %d workloads at scale %g...\n",
			len(gen.Table2), *scale)
		bsp := span("build workloads")
		var err error
		workloads, err = bench.BuildAll(*scale, *seed)
		bsp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
			os.Exit(1)
		}
	}

	if need(2) {
		tsp := span("table 2")
		fmt.Println("== Table 2: benchmark characteristics ==")
		var rows []bench.Row2
		for _, w := range workloads {
			rows = append(rows, bench.Table2Row(w))
		}
		bench.FormatTable2(os.Stdout, rows)
		fmt.Println()
		tsp.End()
	}
	if need(3) {
		tsp := span("table 3")
		fmt.Println("== Table 3: points-to analysis results (field-based, pre-transitive) ==")
		var rows []bench.Row3
		for _, w := range workloads {
			r, err := bench.Table3Row(w)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
				os.Exit(1)
			}
			rows = append(rows, r)
		}
		bench.FormatTable3(os.Stdout, rows)
		fmt.Println()
		tsp.End()
	}
	if need(4) {
		tsp := span("table 4")
		fmt.Println("== Table 4: field-based vs field-independent ==")
		var rows []bench.Row4
		for _, w := range workloads {
			r, err := bench.Table4Row(w)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
				os.Exit(1)
			}
			rows = append(rows, r)
		}
		bench.FormatTable4(os.Stdout, rows)
		fmt.Println()
		tsp.End()
	}
	if need(5) {
		tsp := span("table 5")
		p, ok := gen.ProfileByName(*profile)
		if !ok {
			fmt.Fprintf(os.Stderr, "clabench: unknown profile %q\n", *profile)
			os.Exit(1)
		}
		fmt.Printf("== Section 5 ablation: caching and cycle elimination (%s at scale %g) ==\n",
			*profile, *ablScale)
		w, err := bench.BuildWorkload(p, *ablScale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
			os.Exit(1)
		}
		rows, err := bench.RunAblation(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
			os.Exit(1)
		}
		bench.FormatAblation(os.Stdout, p.Name, rows)
		fmt.Println()
		tsp.End()
	}
	if need(6) {
		tsp := span("table 6")
		fmt.Println("== Section 6 comparison: pre-transitive vs worklist vs bitvec vs one-level vs Steensgaard ==")
		var rows []bench.RowSolver
		for _, w := range workloads {
			r, err := bench.RunSolvers(w)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
				os.Exit(1)
			}
			rows = append(rows, r...)
		}
		bench.FormatSolvers(os.Stdout, rows)
		fmt.Println()
		tsp.End()
	}
	if need(7) {
		tsp := span("table 7")
		fmt.Println("== Section 4 transformations: offline variable substitution and context duplication ==")
		var rows []bench.RowXform
		for _, w := range workloads {
			r, err := bench.RunXforms(w)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
				os.Exit(1)
			}
			rows = append(rows, r...)
		}
		bench.FormatXforms(os.Stdout, rows)
		fmt.Println()
		tsp.End()
	}
	if need(9) {
		tsp := span("table 9")
		fmt.Println("== Analysis clients: call graph, MOD/REF, escape, deref over the solved analysis ==")
		rows, err := bench.RunChecksAll(workloads, *jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
			os.Exit(1)
		}
		bench.FormatChecks(os.Stdout, rows)
		tsp.End()
	}
	if need(13) {
		tsp := span("table 13")
		fmt.Printf("== Real-C corpus conformance: extern models over %s ==\n", *corpus)
		rows, err := bench.RunCorpus(*corpus, *jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
			os.Exit(1)
		}
		bench.FormatCorpus(os.Stdout, rows)
		tsp.End()
	}
	if obsFlags.Stats {
		var rep obs.Report
		rep.Sections = append(rep.Sections, o.PhaseSection())
		rep.Format(os.Stdout)
	}
	if err := obsFlags.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "clabench: %v\n", err)
		os.Exit(1)
	}
}
