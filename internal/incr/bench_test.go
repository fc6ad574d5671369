package incr

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cla/internal/gen"
)

// layout is a workspace for the benchmarks.
type layout struct {
	name  string
	files map[string]string
	units []string
}

// benchLayouts returns gimp@0.2 as generated, where every unit starts
// with defs.h, and rewritten so that each unit starts with its own
// header (ownHeaders): the two shapes of workspace the leading-include
// memo sees.
func benchLayouts() []layout {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.2), 1)
	return []layout{{"shared", code.Files, code.Units()}, {"own", ownHeaders(code), code.Units()}}
}

// BenchmarkOpen opens a pipeline at -j 2 over each layout; one op is
// one open. retained-MB is the live heap with the last pipeline held.
func BenchmarkOpen(b *testing.B) {
	for _, l := range benchLayouts() {
		b.Run("layout="+l.name, func(b *testing.B) {
			dir := b.TempDir()
			writeTree(b, dir, l.files)
			cfg := testConfig(dir)
			b.ReportAllocs()
			var pipe *Pipeline
			for i := 0; i < b.N; i++ {
				pipe = nil
				var err error
				if pipe, err = Open(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MB")
			runtime.KeepAlive(pipe)
		})
	}
}

// BenchmarkCommentEdit edits a comment into one unit of each layout and
// refreshes at -j 2; one op is one edit, which recompiles that unit and
// reuses the fixpoint.
func BenchmarkCommentEdit(b *testing.B) {
	for _, l := range benchLayouts() {
		b.Run("layout="+l.name, func(b *testing.B) {
			dir := b.TempDir()
			writeTree(b, dir, l.files)
			pipe, err := Open(context.Background(), testConfig(dir))
			if err != nil {
				b.Fatal(err)
			}
			u := l.units[len(l.units)/2]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := edit(b, dir, u, l.files[u]+fmt.Sprintf("/* %d */\n", i))
				if _, st, err := pipe.Update(context.Background(), path); err != nil || st.Recompiled != 1 {
					b.Fatalf("edit: %+v, %v", st, err)
				}
			}
		})
	}
}

// BenchmarkFactEdit adds a new points-to fact to one unit of each layout
// (replacing the previous iteration's) and refreshes at -j 2; one op is
// one edit, which recompiles that unit, splices it into the previous
// link and re-solves from the previous fixpoint. The edited unit is the
// middle one, or the first, whose splice shifts every other unit's ids.
// link-ms, solve-ms and compile-ms are the refresh's phase split per op.
func BenchmarkFactEdit(b *testing.B) {
	for _, l := range benchLayouts() {
		for _, at := range []struct {
			name string
			unit string
		}{{"middle", l.units[len(l.units)/2]}, {"first", l.units[0]}} {
			b.Run("layout="+l.name+"/unit="+at.name, func(b *testing.B) {
				dir := b.TempDir()
				writeTree(b, dir, l.files)
				pipe, err := Open(context.Background(), testConfig(dir))
				if err != nil {
					b.Fatal(err)
				}
				u := at.unit
				var link, solve, compile time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					path := edit(b, dir, u, l.files[u]+fmt.Sprintf("int bench_g%[1]d;\nint *bench_p%[1]d = &bench_g%[1]d;\n", i))
					_, st, err := pipe.Update(context.Background(), path)
					if err != nil || st.Recompiled != 1 || !st.LinkSpliced || !st.SolveWarm {
						b.Fatalf("edit: %+v, %v", st, err)
					}
					link += st.Link
					solve += st.Solve
					compile += st.Compile
				}
				perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
				b.ReportMetric(perOp(link), "link-ms")
				b.ReportMetric(perOp(solve), "solve-ms")
				b.ReportMetric(perOp(compile), "compile-ms")
			})
		}
	}
}
