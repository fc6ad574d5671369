package frontend

import (
	"testing"

	"cla/internal/gen"
)

// BenchmarkCompileSource compiles every unit of gimp@0.2 (the
// benchmark's cold-analyze input) serially; one op is one unit.
func BenchmarkCompileSource(b *testing.B) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.2), 1)
	units := code.Units()
	loader := code.Loader()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := units[i%len(units)]
		if _, err := CompileSource(u, code.Files[u], loader, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
