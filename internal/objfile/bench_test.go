package objfile_test

import (
	"context"
	"io"
	"testing"

	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/objfile"
)

// BenchmarkWrite writes the linked program of gimp@0.2 to io.Discard.
// One op is one Write: the string pool, the symbols, the static section,
// the blocks and their index, the function records, the target index and
// the call sites.
func BenchmarkWrite(b *testing.B) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.2), 1)
	prog, err := driver.Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := objfile.Write(io.Discard, prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}
