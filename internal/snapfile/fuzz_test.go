package snapfile

import (
	"bytes"
	"cla/internal/pts"
	"context"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/prim"
)

// FuzzSnapshot feeds arbitrary bytes to the snapshot reader. The reader
// promises that hostile input — truncations, bit-flips, hostile section
// tables and set indexes — errors cleanly: no panic, no out-of-range
// access, no count-driven over-allocation (every count is checked
// against its section's byte size before any make). Accepted inputs
// must additionally be fully usable: every symbol queryable, every set
// in bounds.
func FuzzSnapshot(f *testing.F) {
	// Seed with a real snapshot so mutation explores the deep decoders,
	// not just the header checks.
	prog, err := frontend.CompileSource("seed.c",
		"int g; int *p; void f(void) { p = &g; }", nil, frontend.Options{})
	if err != nil {
		f.Fatal(err)
	}
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), driver.PreTransitive, core.DefaultConfig(), nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Prog: prog, Res: res, Solver: "pre-transitive"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBytes(data)
		if err != nil {
			return
		}
		p := r.Program()
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails Validate: %v", err)
		}
		var prev prim.SymID
		for i := range p.Syms {
			for j, e := range r.Result().PointsTo(prim.SymID(i)) {
				if int(e) >= len(p.Syms) || (j > 0 && e <= prev) {
					t.Fatalf("sym %d: bad set element %d at %d", i, e, j)
				}
				prev = e
			}
		}
		r.Result().Metrics()
		r.Meta()
		r.Report()
		r.Audit()
	})
}
