package incr

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strings"
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

// benchLayouts returns gimp at scale as generated, where every unit
// starts with defs.h, and rewritten so that each unit starts with its
// own header (ownHeaders): the two shapes of workspace the
// leading-include memo sees.
func benchLayouts(scale float64) []layout {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(scale), 1)
	return []layout{{"shared", code.Files, code.Units()}, {"own", ownHeaders(code), code.Units()}}
}

// BenchmarkOpen opens a pipeline at -j 2 over each layout; one op is
// one open. retained-MB is the live heap with the last pipeline held.
func BenchmarkOpen(b *testing.B) {
	for _, l := range benchLayouts(0.2) {
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
	for _, l := range benchLayouts(0.2) {
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

// BenchmarkFactEdit adds a new points-to fact to one unit of a
// workspace and refreshes at -j 2; one op is one edit, which recompiles
// that unit, splices it into the previous link and re-solves from the
// previous fixpoint. With unit=middle the fact is the edit loop's, a new
// pointer to a new object, replacing the previous iteration's, in the
// middle unit; unit=first edits the first unit instead, whose splice
// shifts every other unit's ids. With edit=hub the middle unit gains one
// more function that points the program's most widely read pointer at a
// new object (hubPointer), so the warm solve's region is every node that
// reads it. Each runs on both gimp@0.2 layouts; the shared layout's
// middle unit also runs at scale 0.05 and 0.5, so the growth of a
// one-node edit's cost with the program shows. link-ms, solve-ms and
// compile-ms are the refresh's phase split per op, and region-nodes the
// nodes the warm solve's waves recomputed.
func BenchmarkFactEdit(b *testing.B) {
	type edit struct {
		name string
		unit func(l layout) string
		// fact is the fact edit i writes, hub the hub pointer; nil is
		// the edit loop's, which the link splices.
		fact func(i int, hub string) string
	}
	middle := func(l layout) string { return l.units[len(l.units)/2] }
	edits := []edit{
		{"unit=middle", middle, nil},
		{"unit=first", func(l layout) string { return l.units[0] }, nil},
		{"edit=hub", middle, func(i int, hub string) string {
			var f strings.Builder
			for k := 0; k <= i; k++ {
				fmt.Fprintf(&f, "int bench_h%[1]d;\nvoid bench_hub%[1]d(void) { %[2]s = &bench_h%[1]d; }\n", k, hub)
			}
			return f.String()
		}},
	}
	for _, scale := range []float64{0.05, 0.2, 0.5} {
		for _, l := range benchLayouts(scale) {
			for _, e := range edits {
				name := "layout=" + l.name + "/" + e.name
				switch {
				case scale != 0.2 && (l.name != "shared" || e.name != "unit=middle"):
					continue
				case l.name == "shared" && e.name == "unit=middle":
					name += fmt.Sprintf("/scale=%g", scale)
				}
				b.Run(name, func(b *testing.B) { benchFactEdit(b, l, e.unit(l), e.fact) })
			}
		}
	}
}

// benchFactEdit runs BenchmarkFactEdit's edits of unit u in layout l.
func benchFactEdit(b *testing.B, l layout, u string, fact func(i int, hub string) string) {
	dir := b.TempDir()
	writeTree(b, dir, l.files)
	pipe, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		b.Fatal(err)
	}
	hub := ""
	if fact != nil {
		hub = hubPointer(l)
	}
	var link, solve, compile time.Duration
	region := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := oneFact(i)
		if fact != nil {
			f = fact(i, hub)
		}
		path := edit(b, dir, u, l.files[u]+f)
		_, st, err := pipe.Update(context.Background(), path)
		if err != nil || st.Recompiled != 1 || fact == nil && !st.LinkSpliced || !st.SolveWarm {
			b.Fatalf("edit: %+v, %v", st, err)
		}
		link += st.Link
		solve += st.Solve
		compile += st.Compile
		region += st.RegionNodes
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(link), "link-ms")
	b.ReportMetric(perOp(solve), "solve-ms")
	b.ReportMetric(perOp(compile), "compile-ms")
	b.ReportMetric(float64(region)/float64(b.N), "region-nodes")
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
