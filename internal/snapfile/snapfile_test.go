package snapfile

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cla/internal/checks"
	"cla/internal/claerr"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/objfile"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/srchash"
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

// TestProgramOutlivesMapping: a mapped snapshot's program is decoded
// into copies, so it stays readable after Close unmaps the file. A name
// that aliased the mapping would fault here.
func TestProgramOutlivesMapping(t *testing.T) {
	s := build(t, driver.PreTransitive, 1)
	path := filepath.Join(t.TempDir(), "test.snap")
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mapped() != mmapSupported {
		t.Fatalf("Mapped() = %v, want %v", r.Mapped(), mmapSupported)
	}
	prog := r.Program()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prog, s.Prog) {
		t.Fatal("program read after Close differs from the one written")
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
// The result check must see every byte it guards: any flip of the
// header's result digest or of the ptsidx, setidx and elems sections
// fails with a *CorruptError.
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
	guarded := make([]bool, len(valid))
	for i := 8; i < 16; i++ {
		guarded[i] = true
	}
	for _, sec := range []int{secPtsIdx, secSetIdx, secElems} {
		off, n := le.Uint64(valid[40+sec*16:]), le.Uint64(valid[40+sec*16+8:])
		if n == 0 {
			t.Fatalf("section %d is empty", sec)
		}
		for i := off; i < off+n; i++ {
			guarded[i] = true
		}
	}
	mut := make([]byte, len(valid))
	var ce *CorruptError
	for i := 0; i < len(valid); i++ {
		if !guarded[i] {
			copy(mut, valid)
			mut[i] ^= 0x41
			r, err := OpenBytes(mut)
			// A flip inside JSON padding or a string body can survive
			// parsing; what matters is that no flip panics and the
			// result stays usable.
			if err == nil {
				for j := range s.Prog.Syms {
					r.Result().PointsTo(prim.SymID(j))
				}
			}
			continue
		}
		for x := 1; x < 256; x++ {
			copy(mut, valid)
			mut[i] ^= byte(x)
			if _, err := OpenBytes(mut); !errors.As(err, &ce) {
				t.Fatalf("flip %#02x at guarded byte %d: err = %v, want a *CorruptError", x, i, err)
			}
		}
	}
}

// TestResultLayoutRejected: set data that no single flip produces but
// a crafted file can — elements no set covers, a gap between sets, a
// set no symbol references, set ids out of first-reference order — is
// refused even where the digest, which folds only referenced sets,
// would not see it.
func TestResultLayoutRejected(t *testing.T) {
	valid := storeSnapshot(t)
	sec := func(i int) []byte {
		off, n := le.Uint64(valid[40+i*16:]), le.Uint64(valid[40+i*16+8:])
		return append([]byte(nil), valid[off:off+n]...)
	}
	idx, sets, elems := sec(secPtsIdx), sec(secSetIdx), sec(secElems)
	numSyms, digest := int(le.Uint32(idx)), le.Uint64(valid[8:])
	if _, _, err := decodeResult(idx, sets, elems, numSyms, digest); err != nil {
		t.Fatalf("valid sections: %v", err)
	}
	if le.Uint32(sets) < 2 {
		t.Fatal("test snapshot has fewer than two sets")
	}
	// refs lists the symbols that reference set id, in symbol order.
	refs := func(id uint32) (out []int) {
		for i := 0; i < numSyms; i++ {
			if le.Uint32(idx[4+i*4:]) == id {
				out = append(out, i)
			}
		}
		return out
	}
	lastSet := le.Uint32(sets) - 1
	for _, c := range []struct {
		name             string
		idx, sets, elems []byte
		want             string
	}{
		{"ragged tail", idx, sets, append(append([]byte(nil), elems...), 0, 0), "ragged tail"},
		{"uncovered element", idx, sets, le.AppendUint32(append([]byte(nil), elems...), 0), "sets cover"},
		{"gap between sets", idx, func() []byte {
			b := append([]byte(nil), sets...)
			le.PutUint64(b[8+16:], le.Uint64(b[8+16:])+1)
			return b
		}(), elems, "does not start where"},
		{"unreferenced set", func() []byte {
			b := append([]byte(nil), idx...)
			for _, i := range refs(lastSet) {
				le.PutUint32(b[4+i*4:], noSet)
			}
			return b
		}(), sets, elems, "unreferenced"},
		{"sets out of reference order", func() []byte {
			b := append([]byte(nil), idx...)
			first0, first1 := refs(0)[0], refs(1)[0]
			le.PutUint32(b[4+first0*4:], 1)
			le.PutUint32(b[4+first1*4:], 0)
			return b
		}(), sets, elems, "before set"},
	} {
		_, _, err := decodeResult(c.idx, c.sets, c.elems, numSyms, digest)
		var ce *CorruptError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a *CorruptError saying %q", c.name, err, c.want)
		}
	}
}

// TestSharedRecordErrorsAreSnapshotErrors: a record the object format's
// codec rejects is reported as a corrupt snapshot, not a corrupt
// database.
func TestSharedRecordErrorsAreSnapshotErrors(t *testing.T) {
	s := build(t, driver.PreTransitive, 1)
	s.Prog.Funcs[0].Ret = 999
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	_, err := OpenBytes(buf.Bytes())
	if err == nil || !strings.HasPrefix(err.Error(), "snapfile: corrupt snapshot: symbol id 999") {
		t.Fatalf("bad ret id: err = %v, want a corrupt snapshot error", err)
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

// zeroMetrics hides a result's solver counters, which describe how a
// solve ran rather than what it found.
type zeroMetrics struct{ pts.Result }

func (zeroMetrics) Metrics() pts.Metrics { return pts.Metrics{} }

// TestFormatGolden pins the bytes both writers produce for one fixed
// program: the funcpointers example unit compiled with default options,
// written as a .clo and, solved, as a .snap with zeroed solver counters
// and no report. A change to either format, or to the order either
// writer adds strings to its pool, changes a digest, and so does a
// change to how the frontend lowers this unit: update the value here
// only for a deliberate change, bumping the format's Version when
// readers of the old files would misread the new ones.
func TestFormatGolden(t *testing.T) {
	src, err := os.ReadFile("../../examples/funcpointers/testdata/dispatch.c")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := frontend.CompileSource("dispatch.c", string(src), nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var clo bytes.Buffer
	if err := objfile.Write(&clo, prog); err != nil {
		t.Fatal(err)
	}
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), driver.PreTransitive, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := Write(&snap, &Snapshot{Prog: prog, Res: zeroMetrics{res}, Solver: "pre-transitive"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{".clo", clo.Bytes(), "586479ee6cbfce71"},
		{".snap", snap.Bytes(), "7e645b36800254cf"},
	} {
		if got := srchash.Bytes(c.b); got != c.want {
			t.Errorf("%s digest %s (%d bytes), want %s", c.name, got, len(c.b), c.want)
		}
	}
}

// TestSaveOverMappedSnapshot: Save over a file another reader has
// mapped leaves that reader on the old bytes (a save that truncated the
// file in place would kill it with SIGBUS), and a later Open reads the
// new snapshot.
func TestSaveOverMappedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	old, next := build(t, driver.PreTransitive, 1), build(t, driver.Steensgaard, 1)
	next.Generation = 7
	if err := Save(path, old); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := Save(path, next); err != nil {
		t.Fatal(err)
	}
	sameResult(t, old.Prog, old.Res, r.Result())
	if r.Meta().Solver != old.Solver {
		t.Fatalf("mapped reader's solver = %q after the save, want %q", r.Meta().Solver, old.Solver)
	}
	r2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	sameResult(t, next.Prog, next.Res, r2.Result())
	if err := r2.CheckGeneration(7, next.Solver, ""); err != nil {
		t.Fatalf("saved snapshot: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*")); len(left) != 1 {
		t.Fatalf("directory holds %v after two saves, want the snapshot only", left)
	}
}

// storeSnapshot writes build's snapshot as a pipeline generation would:
// naming generation 42, which also records a checksum.
func storeSnapshot(t testing.TB) []byte {
	prog, err := frontend.CompileSource("test.c", testSrc, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), driver.PreTransitive, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Prog: prog, Res: res, Solver: "pre-transitive", ExtModel: "unsound", Generation: 42}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportSnapshot is testSrc solved and written with a non-empty checks
// report and extmodel audit in the report section.
func reportSnapshot(t testing.TB) []byte {
	prog, err := frontend.CompileSource("test.c", testSrc, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), driver.PreTransitive, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := checks.Run(prog, res, checks.Options{Checks: checks.AllChecksAudited()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph == nil || rep.Audit == nil {
		t.Fatal("checks report has no call graph or audit")
	}
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Prog: prog, Res: res, Solver: "pre-transitive", Report: rep, Audit: rep.Audit}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenerationSnapshotIntegrity: a snapshot that names a generation
// refuses every truncation and every bit flip that changes what it
// reads as with a *CorruptError; a flip it accepts (in padding, or in
// a header field nothing reads) reads exactly as the original.
// CheckGeneration refuses another generation, solver or extern model
// with ErrStale.
func TestGenerationSnapshotIntegrity(t *testing.T) {
	valid := storeSnapshot(t)
	want, err := OpenBytes(valid)
	if err != nil {
		t.Fatal(err)
	}
	if m := want.Meta(); m.Generation != "000000000000002a" || len(m.Checksum) != 8 {
		t.Fatalf("meta generation %q, checksum %q", m.Generation, m.Checksum)
	}
	var ce *CorruptError
	for n := 0; n < len(valid); n++ {
		if _, err := OpenBytes(valid[:n]); !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: err = %v, want a *CorruptError", n, err)
		}
	}
	mut := make([]byte, len(valid))
	accepted := 0
	for i := range valid {
		copy(mut, valid)
		mut[i] ^= 1 << (i % 8)
		r, err := OpenBytes(mut)
		if err != nil {
			if !errors.As(err, &ce) {
				t.Fatalf("flip at %d: err = %v, want a *CorruptError", i, err)
			}
			continue
		}
		accepted++
		if !reflect.DeepEqual(r.Program(), want.Program()) || !reflect.DeepEqual(r.Meta(), want.Meta()) {
			t.Fatalf("flip at %d accepted with a different program or meta", i)
		}
		sameResult(t, want.Program(), want.Result(), r.Result())
	}
	if accepted > len(valid)/10 {
		t.Fatalf("%d of %d flips accepted", accepted, len(valid))
	}

	if err := want.CheckGeneration(42, "pre-transitive", "unsound"); err != nil {
		t.Fatalf("matching generation: %v", err)
	}
	for _, c := range []struct {
		gen           uint64
		solver, model string
	}{{43, "pre-transitive", "unsound"}, {42, "worklist", "unsound"}, {42, "pre-transitive", "blanket"}} {
		if err := want.CheckGeneration(c.gen, c.solver, c.model); !errors.Is(err, claerr.ErrStale) {
			t.Fatalf("CheckGeneration(%d, %s, %s) = %v, want ErrStale", c.gen, c.solver, c.model, err)
		}
	}
}
