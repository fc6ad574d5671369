package snapfile

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cla/internal/checks"
	"cla/internal/claerr"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/prim"
	"cla/internal/pts"
)

const testSrc = `
int g1, g2;
int *p, *q, **pp;
void (*fp)(int *);
void take(int *a) { p = a; }
void run(void) {
	p = &g1;
	q = &g2;
	pp = &p;
	*pp = q;
	fp = take;
	fp(&g1);
}
`

// build compiles testSrc, solves it with the given solver and wraps the
// result as a Snapshot.
func build(t *testing.T, solver driver.Solver, jobs int) *Snapshot {
	t.Helper()
	prog, err := frontend.CompileSource("test.c", testSrc, nil, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), solver, cfg, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	rep, err := checks.Run(prog, res, checks.Options{})
	if err != nil {
		t.Fatalf("checks: %v", err)
	}
	return &Snapshot{
		Prog:   prog,
		Res:    res,
		Solver: solver.String(),
		Report: rep,
	}
}

// sameResult asserts the reader's relation matches the live one for every
// symbol.
func sameResult(t *testing.T, prog *prim.Program, live pts.Result, got pts.Result) {
	t.Helper()
	for i := range prog.Syms {
		id := prim.SymID(i)
		want := live.PointsTo(id)
		have := got.PointsTo(id)
		if len(want) == 0 && len(have) == 0 {
			continue
		}
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("sym %d (%s): live %v != snapshot %v",
				i, prog.Syms[i].Name, want, have)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	solvers := []driver.Solver{
		driver.PreTransitive, driver.Worklist, driver.Steensgaard,
		driver.BitVector, driver.OneLevel,
	}
	for _, solver := range solvers {
		t.Run(solver.String(), func(t *testing.T) {
			s := build(t, solver, 1)
			var buf bytes.Buffer
			if err := Write(&buf, s); err != nil {
				t.Fatalf("write: %v", err)
			}
			r, err := OpenBytes(buf.Bytes())
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if !reflect.DeepEqual(r.Program(), s.Prog) {
				t.Fatalf("program round-trip mismatch")
			}
			sameResult(t, s.Prog, s.Res, r.Result())
			if !reflect.DeepEqual(r.Result().Metrics(), s.Res.Metrics()) {
				t.Fatalf("metrics mismatch: %+v != %+v",
					r.Result().Metrics(), s.Res.Metrics())
			}
			if !reflect.DeepEqual(r.Report(), s.Report) {
				t.Fatalf("report mismatch:\n got %+v\nwant %+v", r.Report(), s.Report)
			}
			m := r.Meta()
			if m.Solver != solver.String() || m.Syms != len(s.Prog.Syms) ||
				m.Assigns != len(s.Prog.Assigns) {
				t.Fatalf("meta mismatch: %+v", m)
			}
			if m.Sets <= 0 || m.Elems < m.Sets {
				t.Fatalf("implausible set counts: %+v", m)
			}
		})
	}
}

// TestJobsIndependent asserts every section except meta is
// byte-identical whether the result was solved sequentially or on 8
// workers (meta carries schedule-dependent trace counters), and that
// the result digests agree.
func TestJobsIndependent(t *testing.T) {
	var b1, b8 bytes.Buffer
	if err := Write(&b1, build(t, driver.PreTransitive, 1)); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b8, build(t, driver.PreTransitive, 8)); err != nil {
		t.Fatal(err)
	}
	s1, s8 := b1.Bytes(), b8.Bytes()
	if d1, d8 := le.Uint64(s1[8:]), le.Uint64(s8[8:]); d1 != d8 {
		t.Fatalf("result digest differs between -j 1 and -j 8: %x != %x", d1, d8)
	}
	for i := 0; i < numSections; i++ {
		if i == secMeta {
			continue
		}
		sec := func(b []byte) []byte {
			off := le.Uint64(b[40+i*16:])
			n := le.Uint64(b[40+i*16+8:])
			return b[off : off+n]
		}
		if !bytes.Equal(sec(s1), sec(s8)) {
			t.Fatalf("section %d differs between -j 1 and -j 8", i)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := build(t, driver.PreTransitive, 1)
	path := filepath.Join(t.TempDir(), "test.snap")
	if err := Save(path, s); err != nil {
		t.Fatalf("save: %v", err)
	}
	for _, opts := range []Options{{}, {NoMmap: true}} {
		r, err := Open(path, opts)
		if err != nil {
			t.Fatalf("open (NoMmap=%v): %v", opts.NoMmap, err)
		}
		if want := mmapSupported && !opts.NoMmap; r.Mapped() != want {
			t.Fatalf("Mapped()=%v, want %v", r.Mapped(), want)
		}
		if n := r.Prefault(); n == 0 {
			t.Fatalf("Prefault touched nothing")
		}
		sameResult(t, s.Prog, s.Res, r.Result())
		if err := r.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

func TestVerifySources(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "a.c")
	if err := os.WriteFile(src, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	s := build(t, driver.PreTransitive, 1)
	var err error
	if s.Sources, err = HashSources([]string{src}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifySources(); err != nil {
		t.Fatalf("fresh snapshot reported stale: %v", err)
	}

	// Edit the source: same size, different bytes.
	edited := []byte(testSrc)
	edited[len(edited)-2]++
	if err := os.WriteFile(src, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifySources(); !errors.Is(err, claerr.ErrStale) {
		t.Fatalf("edited source: got %v, want ErrStale", err)
	}
	if os.Remove(src) != nil {
		t.Fatal("remove")
	}
	if err := r.VerifySources(); !errors.Is(err, claerr.ErrStale) {
		t.Fatalf("missing source: got %v, want ErrStale", err)
	}
}

// TestCorruption asserts hostile inputs error instead of panicking:
// every truncation length and every single-byte flip of a valid file.
func TestCorruption(t *testing.T) {
	s := build(t, driver.PreTransitive, 1)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for n := 0; n < len(valid); n += 7 {
		if _, err := OpenBytes(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	mut := make([]byte, len(valid))
	for i := 0; i < len(valid); i++ {
		copy(mut, valid)
		mut[i] ^= 0x41
		r, err := OpenBytes(mut)
		// A flip inside JSON padding or a string body can survive parsing;
		// what matters is that no flip panics and the result stays usable.
		if err == nil {
			for j := range s.Prog.Syms {
				r.Result().PointsTo(prim.SymID(j))
			}
		}
	}
}

func TestVersionRejected(t *testing.T) {
	s := build(t, driver.PreTransitive, 1)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	le.PutUint32(b[4:], Version+1)
	if _, err := OpenBytes(b); err == nil {
		t.Fatal("future version accepted")
	}
}
