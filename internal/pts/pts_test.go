package pts

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cla/internal/objfile"
	"cla/internal/prim"
)

func sample() *prim.Program {
	p := &prim.Program{}
	x := p.AddSym(prim.Symbol{Name: "x", Kind: prim.SymGlobal})
	y := p.AddSym(prim.Symbol{Name: "y", Kind: prim.SymGlobal})
	q := p.AddSym(prim.Symbol{Name: "q", Kind: prim.SymGlobal})
	t := p.AddSym(prim.Symbol{Name: "tmp$1", Kind: prim.SymTemp})
	p.AddAssign(prim.Assign{Kind: prim.Base, Dst: q, Src: y})
	p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: x, Src: y})
	p.AddAssign(prim.Assign{Kind: prim.LoadInd, Dst: x, Src: q})
	p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: t, Src: q})
	return p
}

func TestMemSourceBlocks(t *testing.T) {
	p := sample()
	src := NewMemSource(p)
	if src.NumSyms() != 4 {
		t.Fatalf("NumSyms = %d", src.NumSyms())
	}
	statics, err := src.Statics()
	if err != nil || len(statics) != 1 || statics[0].Kind != prim.Base {
		t.Fatalf("statics = %v, %v", statics, err)
	}
	y := p.SymIDByName("y")
	blk, err := src.Block(y)
	if err != nil || len(blk) != 1 {
		t.Fatalf("block(y) = %v, %v", blk, err)
	}
	if src.BlockLen(y) != 1 {
		t.Errorf("BlockLen(y) = %d", src.BlockLen(y))
	}
	if src.BlockLen(prim.SymID(999)) != 0 {
		t.Error("out-of-range BlockLen != 0")
	}
	if b, err := src.Block(prim.SymID(999)); b != nil || err != nil {
		t.Error("out-of-range Block != nil")
	}
	counts := src.Counts()
	if counts[prim.Simple] != 2 || counts[prim.Base] != 1 || counts[prim.LoadInd] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// TestMemSourceCSR: the flat block index keeps each block and the
// static section in assignment order, caps every block at its length so
// an append cannot overwrite its neighbour, and answers out-of-range ids
// with an empty block.
func TestMemSourceCSR(t *testing.T) {
	p := &prim.Program{}
	for i := 0; i < 5; i++ {
		p.AddSym(prim.Symbol{Name: fmt.Sprintf("s%d", i), Kind: prim.SymGlobal})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		p.AddAssign(prim.Assign{
			Kind: prim.Kind(rng.Intn(prim.NumKinds)),
			Dst:  prim.SymID(rng.Intn(5)),
			Src:  prim.SymID(rng.Intn(5)),
			Loc:  prim.Loc{Line: int32(i)}, // tags each assignment with its position
		})
	}
	src := NewMemSource(p)
	wantBlocks := make([][]prim.Assign, 5)
	var wantStatics []prim.Assign
	for _, a := range p.Assigns {
		if a.Kind == prim.Base {
			wantStatics = append(wantStatics, a)
		} else {
			wantBlocks[a.Src] = append(wantBlocks[a.Src], a)
		}
	}
	if st, _ := src.Statics(); !reflect.DeepEqual(st, wantStatics) {
		t.Errorf("statics = %v, want %v", st, wantStatics)
	}
	for i := range wantBlocks {
		id := prim.SymID(i)
		blk, err := src.Block(id)
		if err != nil || !reflect.DeepEqual(blk, wantBlocks[i]) {
			t.Errorf("block %d = %v, %v; want %v", i, blk, err, wantBlocks[i])
		}
		if cap(blk) != len(blk) || src.BlockLen(id) != len(blk) {
			t.Errorf("block %d: len %d cap %d BlockLen %d", i, len(blk), cap(blk), src.BlockLen(id))
		}
		_ = append(blk, prim.Assign{Kind: prim.Simple, Loc: prim.Loc{Line: -1}})
	}
	for i := range wantBlocks {
		if blk, _ := src.Block(prim.SymID(i)); !reflect.DeepEqual(blk, wantBlocks[i]) {
			t.Errorf("block %d changed after an append to a block", i)
		}
	}
	for _, id := range []prim.SymID{-1, 5, 999} {
		if b, err := src.Block(id); b != nil || err != nil || src.BlockLen(id) != 0 {
			t.Errorf("out-of-range %d: Block = %v, %v; BlockLen = %d", id, b, err, src.BlockLen(id))
		}
	}
}

func TestFileSourceMatchesMemSource(t *testing.T) {
	p := sample()
	var buf bytes.Buffer
	if err := objfile.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	r, err := objfile.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	fs := &FileSource{R: r}
	ms := NewMemSource(p)
	if fs.NumSyms() != ms.NumSyms() {
		t.Fatalf("NumSyms: %d vs %d", fs.NumSyms(), ms.NumSyms())
	}
	if fs.Counts() != ms.Counts() {
		t.Errorf("counts differ")
	}
	for i := 0; i < ms.NumSyms(); i++ {
		id := prim.SymID(i)
		fb, _ := fs.Block(id)
		mb, _ := ms.Block(id)
		if len(fb) != len(mb) {
			t.Errorf("block %d: %d vs %d entries", i, len(fb), len(mb))
		}
		if fs.BlockLen(id) != ms.BlockLen(id) {
			t.Errorf("blocklen %d differs", i)
		}
	}
	fStat, _ := fs.Statics()
	mStat, _ := ms.Statics()
	if len(fStat) != len(mStat) {
		t.Errorf("statics: %d vs %d", len(fStat), len(mStat))
	}
}

func TestCountedAsPointerVar(t *testing.T) {
	want := map[prim.SymKind]bool{
		prim.SymGlobal: true, prim.SymStatic: true, prim.SymLocal: true,
		prim.SymField: true, prim.SymTemp: false, prim.SymHeap: false,
		prim.SymFunc: false, prim.SymParam: false, prim.SymRet: false,
		prim.SymString: false,
	}
	for k, w := range want {
		if got := CountedAsPointerVar(k); got != w {
			t.Errorf("CountedAsPointerVar(%v) = %v, want %v", k, got, w)
		}
	}
}

type fakeResult struct{ sets map[prim.SymID][]prim.SymID }

func (f fakeResult) PointsTo(s prim.SymID) []prim.SymID { return f.sets[s] }
func (f fakeResult) Metrics() Metrics                   { return Metrics{} }

func TestSumRelations(t *testing.T) {
	p := sample()
	src := NewMemSource(p)
	res := fakeResult{sets: map[prim.SymID][]prim.SymID{
		p.SymIDByName("q"):     {p.SymIDByName("y")},
		p.SymIDByName("x"):     {p.SymIDByName("y"), p.SymIDByName("q")},
		p.SymIDByName("tmp$1"): {p.SymIDByName("y")}, // temp: excluded
	}}
	vars, rels := SumRelations(src, res)
	if vars != 2 || rels != 3 {
		t.Errorf("vars=%d rels=%d, want 2, 3", vars, rels)
	}
}

func TestSortSyms(t *testing.T) {
	ids := []prim.SymID{3, 1, 2}
	SortSyms(ids)
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("sorted = %v", ids)
	}
}
