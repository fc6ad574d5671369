package cla

// Benchmarks regenerating the paper's tables, one per table. Run with:
//
//	go test -bench=. -benchmem
//
// Workloads are generated at benchScale of the published Table 2 sizes so
// the suite completes quickly; cmd/clabench reproduces the tables at full
// scale. The reported custom metrics (relations, loaded/in-file counts)
// are the table columns; ns/op is the analysis time.
import (
	"context"
	"fmt"
	"testing"

	"cla/internal/bench"
	"cla/internal/core"
	"cla/internal/gen"
	"cla/internal/pts"
	"cla/internal/pts/bitvec"
	"cla/internal/pts/onelevel"
	"cla/internal/pts/steens"
	"cla/internal/pts/worklist"
)

const (
	benchScale = 0.25
	benchSeed  = 1
)

var workloadCache = map[string]*bench.Workload{}

func workload(b *testing.B, name string) *bench.Workload {
	b.Helper()
	if w, ok := workloadCache[name]; ok {
		return w
	}
	p, ok := gen.ProfileByName(name)
	if !ok {
		b.Fatalf("no profile %s", name)
	}
	w, err := bench.BuildWorkload(p, benchScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	workloadCache[name] = w
	return w
}

// BenchmarkTable2Compile measures the compile+link phase that produces the
// Table 2 statistics (LOC → indexed database).
func BenchmarkTable2Compile(b *testing.B) {
	for _, name := range []string{"nethack", "vortex", "gcc"} {
		p, _ := gen.ProfileByName(name)
		sp := p.Scale(benchScale)
		code := gen.Generate(sp, benchSeed)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := bench.BuildWorkload(p, benchScale, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				workloadCache[name] = w
			}
			b.ReportMetric(float64(code.TotalLines()), "source-lines")
		})
	}
}

// BenchmarkTable3Analyze measures the analyze phase per benchmark: the
// field-based pre-transitive analysis with demand loading (Table 3).
func BenchmarkTable3Analyze(b *testing.B) {
	for _, p := range gen.Table2 {
		name := p.Name
		b.Run(name, func(b *testing.B) {
			w := workload(b, name)
			var m pts.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(pts.NewMemSource(w.FieldBased), core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics()
			}
			b.ReportMetric(float64(m.Relations), "relations")
			b.ReportMetric(float64(m.Loaded), "loaded")
			b.ReportMetric(float64(m.InFile), "in-file")
		})
	}
}

// BenchmarkTable4FieldMode compares field-based and field-independent
// struct treatments (Table 4).
func BenchmarkTable4FieldMode(b *testing.B) {
	for _, name := range []string{"vortex", "povray", "gimp"} {
		b.Run(name+"/field-based", func(b *testing.B) {
			w := workload(b, name)
			b.ResetTimer()
			var rel int
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(pts.NewMemSource(w.FieldBased), core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				rel = res.Metrics().Relations
			}
			b.ReportMetric(float64(rel), "relations")
		})
		b.Run(name+"/field-independent", func(b *testing.B) {
			w := workload(b, name)
			b.ResetTimer()
			var rel int
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(pts.NewMemSource(w.FieldIndependent), core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				rel = res.Metrics().Relations
			}
			b.ReportMetric(float64(rel), "relations")
		})
	}
}

// BenchmarkAblation measures the Section 5 claim: the solver with caching
// and cycle elimination against the three degraded configurations.
func BenchmarkAblation(b *testing.B) {
	w := workload(b, "gimp")
	for _, c := range bench.AblationConfigs() {
		cfg := c.Cfg
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(pts.NewMemSource(w.FieldBased), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolvers compares the pre-transitive algorithm against the
// transitively-closed worklist baseline and Steensgaard's unification
// (the Section 6 related-work comparison).
func BenchmarkSolvers(b *testing.B) {
	for _, name := range []string{"emacs", "gimp", "lucent"} {
		w := workload(b, name)
		b.Run(name+"/pre-transitive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(pts.NewMemSource(w.FieldBased), core.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/worklist", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := worklist.Solve(context.Background(), pts.NewMemSource(w.FieldBased), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/bitvec", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bitvec.Solve(pts.NewMemSource(w.FieldBased), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		if name != "lucent" {
			// One-level flow's unification cascades are pathological on
			// the lucent graph (see EXPERIMENTS.md); skip it there.
			b.Run(name+"/one-level", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := onelevel.Solve(pts.NewMemSource(w.FieldBased)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(name+"/steensgaard", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := steens.Solve(pts.NewMemSource(w.FieldBased)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDemandLoading isolates the CLA load-on-demand benefit: demand
// loading against whole-database loading on the same workload.
func BenchmarkDemandLoading(b *testing.B) {
	w := workload(b, "lucent")
	for _, mode := range []struct {
		name   string
		demand bool
	}{{"demand", true}, {"load-all", false}} {
		cfg := core.DefaultConfig()
		cfg.DemandLoad = mode.demand
		b.Run(mode.name, func(b *testing.B) {
			var loaded, inFile int
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(pts.NewMemSource(w.FieldBased), cfg)
				if err != nil {
					b.Fatal(err)
				}
				m := res.Metrics()
				loaded, inFile = m.Loaded, m.InFile
			}
			b.ReportMetric(float64(loaded), "loaded")
			b.ReportMetric(float64(inFile), "in-file")
		})
	}
}

// BenchmarkEndToEnd runs the full pipeline — preprocess, parse, check,
// lower, link, solve — the way the deployed tool experiences it.
func BenchmarkEndToEnd(b *testing.B) {
	p, _ := gen.ProfileByName("nethack")
	sp := p.Scale(benchScale)
	code := gen.Generate(sp, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := bench.BuildWorkload(p, benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Solve(pts.NewMemSource(w.FieldBased), core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(code.TotalLines()), "source-lines")
}

// Ensure profile names used above exist (compile-time use of fmt).
var _ = fmt.Sprintf
