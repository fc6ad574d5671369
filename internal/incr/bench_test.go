package incr

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"cla/internal/core"
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
// reuses the fixpoint. With edit=comment the comment follows the unit's
// code and moves no line, so the unit's tokens are unchanged and its
// compile is cut off after preprocessing; with edit=shift one or two
// comment lines, alternately, precede the code and move every line, so
// the unit compiles in full. cutoff/op counts the cut-offs.
func BenchmarkCommentEdit(b *testing.B) {
	for _, l := range benchLayouts() {
		for _, e := range []struct {
			name string
			edit func(src string, i int) string
		}{
			{"comment", func(src string, i int) string { return src + fmt.Sprintf("/* %d */\n", i) }},
			{"shift", func(src string, i int) string { return strings.Repeat("/* shift */\n", 1+i%2) + src }},
		} {
			b.Run("layout="+l.name+"/edit="+e.name, func(b *testing.B) {
				dir := b.TempDir()
				writeTree(b, dir, l.files)
				pipe, err := Open(context.Background(), testConfig(dir))
				if err != nil {
					b.Fatal(err)
				}
				u := l.units[len(l.units)/2]
				cutoffs := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					path := edit(b, dir, u, e.edit(l.files[u], i))
					_, st, err := pipe.Update(context.Background(), path)
					if err != nil || st.Recompiled != 1 {
						b.Fatalf("edit: %+v, %v", st, err)
					}
					cutoffs += st.CutOff
				}
				b.ReportMetric(float64(cutoffs)/float64(b.N), "cutoff/op")
			})
		}
	}
}

// BenchmarkFactEdit adds a new points-to fact to one unit of each layout
// and refreshes at -j 2; one op is one edit, which recompiles that unit,
// splices it into the previous link and re-solves from the previous
// fixpoint. With edit=one the fact is the edit loop's, a new pointer to
// a new object, replacing the previous iteration's; the edited unit is
// the middle one, or the first, whose splice shifts every other unit's
// ids. With edit=hub the middle unit gains one more function that points
// the program's most widely read pointer at a new object (hubPointer),
// so the warm solve's region is every node that reads it. link-ms,
// solve-ms and compile-ms are the refresh's phase split per op, and
// region-nodes the nodes the warm solve's waves recomputed.
func BenchmarkFactEdit(b *testing.B) {
	for _, l := range benchLayouts() {
		hub := hubPointer(l)
		for _, at := range []struct {
			name string
			unit string
			// fact is the fact edit i writes; nil is the edit loop's,
			// which the link splices.
			fact func(i int) string
		}{
			{"unit=middle", l.units[len(l.units)/2], nil},
			{"unit=first", l.units[0], nil},
			{"edit=hub", l.units[len(l.units)/2], func(i int) string {
				var f strings.Builder
				for k := 0; k <= i; k++ {
					fmt.Fprintf(&f, "int bench_h%[1]d;\nvoid bench_hub%[1]d(void) { %[2]s = &bench_h%[1]d; }\n", k, hub)
				}
				return f.String()
			}},
		} {
			b.Run("layout="+l.name+"/"+at.name, func(b *testing.B) {
				dir := b.TempDir()
				writeTree(b, dir, l.files)
				pipe, err := Open(context.Background(), testConfig(dir))
				if err != nil {
					b.Fatal(err)
				}
				u := at.unit
				var link, solve, compile time.Duration
				region := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fact := oneFact(i)
					if at.fact != nil {
						fact = at.fact(i)
					}
					path := edit(b, dir, u, l.files[u]+fact)
					r, st, err := pipe.Update(context.Background(), path)
					if err != nil || st.Recompiled != 1 || at.fact == nil && !st.LinkSpliced || !st.SolveWarm {
						b.Fatalf("edit: %+v, %v", st, err)
					}
					link += st.Link
					solve += st.Solve
					compile += st.Compile
					region += r.Res.(*core.Result).RegionNodes()
				}
				perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
				b.ReportMetric(perOp(link), "link-ms")
				b.ReportMetric(perOp(solve), "solve-ms")
				b.ReportMetric(perOp(compile), "compile-ms")
				b.ReportMetric(float64(region)/float64(b.N), "region-nodes")
			})
		}
	}
}

// oneFact is the edit loop's fact: a new object and a pointer to it.
func oneFact(i int) string {
	return fmt.Sprintf("int bench_g%[1]d;\nint *bench_p%[1]d = &bench_g%[1]d;\n", i)
}

// hubPointer returns the gp pointer the layout's units mention most
// often, the smallest name on a tie.
func hubPointer(l layout) string {
	count := map[string]int{}
	for _, u := range l.units {
		for _, m := range gpName.FindAllString(l.files[u], -1) {
			count[m]++
		}
	}
	best := ""
	for name, n := range count {
		if n > count[best] || n == count[best] && name < best {
			best = name
		}
	}
	return best
}

var gpName = regexp.MustCompile(`\bgp[0-9]+\b`)
