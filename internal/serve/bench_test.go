package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cla/internal/gen"
	"cla/internal/prim"
)

// BenchmarkSnapshotOpen opens a gimp@0.1 snapshot written by
// BuildSnapshot as a serving session, source verification included, at
// -j 2, and answers one query; one op is the open plus that first
// answer. A dependence answer reads no checks report; a lint answer
// computes it, since the file stores none.
func BenchmarkSnapshotOpen(b *testing.B) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.1), 1)
	dir := b.TempDir()
	for name, src := range code.Files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	cfg := Config{Jobs: 2}
	path := buildSnap(b, dir, cfg)
	ctx := context.Background()
	s, err := Open(ctx, "s", path, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var target string
	for _, sym := range s.Eval().Prog.Syms {
		if sym.Kind == prim.SymGlobal && strings.HasPrefix(sym.Name, "gp") {
			target = sym.Name
			break
		}
	}
	s.Close()
	for _, q := range []Query{{Kind: "dependence", Target: target, Limit: 20}, {Kind: "lint"}} {
		b.Run("first="+q.Kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := Open(ctx, "s", path, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r := s.Eval().Eval(ctx, q); r.Err != nil {
					b.Fatalf("%s: %s", q.Kind, r.Err.Message)
				}
				s.Close()
			}
		})
	}
}
