package snapfile

import (
	"context"
	"io"
	"path/filepath"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/pts"
)

// BenchmarkOpen opens a saved generation of gimp@0.2, as the
// incremental pipeline's store writes one: read into memory, as the
// store reads it (read=buffered), and mapped, as a serving session
// opens a snapshot (read=mapped). One op is one Open, which decodes
// the program and verifies the checksum and the result digest.
func BenchmarkOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "gimp.snap")
	if err := Save(path, gimpSnapshot(b)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
	}{{"buffered", Options{NoMmap: true}}, {"mapped", Options{}}} {
		b.Run("read="+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Open(path, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
}

// BenchmarkWrite writes a saved generation of gimp@0.2, as the
// incremental pipeline's store saves one, to io.Discard. One op is one
// Write: the string pool, the records, the interned sets, the result
// digest and the checksum.
func BenchmarkWrite(b *testing.B) {
	snap := gimpSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}

// gimpSnapshot compiles and solves gimp@0.2 as a saved generation.
func gimpSnapshot(b *testing.B) *Snapshot {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.2), 1)
	ctx := context.Background()
	prog, err := driver.Compile(ctx, code.Units(), code.Loader(), frontend.Options{}, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	res, err := driver.Analyze(ctx, pts.NewMemSource(prog), driver.PreTransitive, core.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return &Snapshot{Prog: prog, Res: res, Solver: "pre-transitive", ExtModel: "unsound", Generation: 1}
}
