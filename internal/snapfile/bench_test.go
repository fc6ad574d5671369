package snapfile

import (
	"context"
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
	path := filepath.Join(b.TempDir(), "gimp.snap")
	if err := Save(path, &Snapshot{Prog: prog, Res: res, Solver: "pre-transitive", ExtModel: "unsound", Generation: 1}); err != nil {
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
