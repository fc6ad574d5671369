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
	// A pipeline generation's snapshot, which carries a checksum, whole,
	// truncated and with one bit flipped.
	store := storeSnapshot(f)
	f.Add(store)
	f.Add(store[:len(store)*2/3])
	flipped := append([]byte(nil), store...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(flipped)
	// A snapshot that carries a checks report and audit, as older
	// writers stored, whole and with one bit flipped inside the report
	// section, so mutation reaches the report decoder.
	withReport := reportSnapshot(f)
	f.Add(withReport)
	sec := headerSize - numSections*16 + secReport*16
	off, n := le.Uint64(withReport[sec:]), le.Uint64(withReport[sec+8:])
	flipped = append([]byte(nil), withReport...)
	flipped[off+n/2] ^= 0x01
	f.Add(flipped)
	// The plain seed with a set's pad word set, and with its result
	// digest flipped: at the current Version, so mutation starts at the
	// result checks rather than the version check.
	seed := buf.Bytes()
	sec = headerSize - numSections*16 + secSetIdx*16
	flipped = append([]byte(nil), seed...)
	flipped[le.Uint64(seed[sec:])+8+12] ^= 0x01
	f.Add(flipped)
	flipped = append([]byte(nil), seed...)
	flipped[8] ^= 0x01
	f.Add(flipped)
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
