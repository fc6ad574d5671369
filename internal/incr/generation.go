package incr

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cla/internal/parallel"
	"cla/internal/pts"
	"cla/internal/snapfile"
	"cla/internal/srchash"
)

// The pipeline's fourth reuse layer is the solved generation. Close
// saves the pipeline's current generation, if a refresh linked and
// solved it, in the store directory as <key>-<solve digest>.snap, where
// key names the workspace and its solve configuration (genKey). An Open
// whose units all pass their manifests folds the same solve digest and
// serves generation 1 from that file: no object file is decoded and
// nothing is linked or solved. A save removes the file the pipeline read
// or saved before, and any other generation of the key older than the
// one it wrote, so one file per key remains.

// genKey names the workspace's saved generations: the srchash of the
// directory, the search path, the compile options and the solve
// configuration, so pipelines of different workspaces or configurations
// sharing one store keep their own file.
func (p *Pipeline) genKey() string {
	var b strings.Builder
	b.WriteString("gen:" + canon(p.cfg.Dir) + ";dirs:")
	for _, d := range p.cfg.Includes {
		b.WriteString(canon(d) + "\x00")
	}
	fmt.Fprintf(&b, ";opts:%s;solve:%016x", optsFingerprint(p.cfg.Frontend), p.foldConfig(srchash.Offset()))
	return srchash.String(b.String())
}

// generationPath is the file of the key's saved generation with solve
// digest gen.
func (s *Store) generationPath(key string, gen uint64) string {
	return filepath.Join(s.dir, key+"-"+srchash.Render(gen)+".snap")
}

// loadGeneration reads the key's saved generation with solve digest gen
// and checks that it saves that generation, solved by solver under
// model. The file is read into memory, not mapped, because its sets
// back analyses that may outlive the pipeline.
func (s *Store) loadGeneration(key string, gen uint64, solver, model string) (*snapfile.Reader, error) {
	r, err := snapfile.Open(s.generationPath(key, gen), snapfile.Options{NoMmap: true})
	if err != nil {
		return nil, err
	}
	if err := r.CheckGeneration(gen, solver, model); err != nil {
		return nil, err
	}
	return r, nil
}

// tempAge is how old a leftover temporary file of the key must be
// before a save removes it: old enough that no save can still be
// writing it.
const tempAge = time.Hour

// saveGeneration writes r as the key's saved generation. It then
// removes the generation with digest prev (the one the caller read or
// saved before; 0 for none), every other saved generation of the key
// older than the new file, and temporary files of the key older than
// tempAge. A newer generation another writer sharing the store renamed
// into place is kept.
func (s *Store) saveGeneration(key string, r *Result, prev uint64, solver, model string) error {
	path := s.generationPath(key, r.Digest)
	err := snapfile.Save(path, &snapfile.Snapshot{
		Prog: r.Prog, Res: r.Res, Solver: solver, ExtModel: model, Generation: r.Digest,
	})
	if err != nil {
		return err
	}
	if prev != 0 && prev != r.Digest {
		os.Remove(s.generationPath(key, prev))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, key+"-") || name == filepath.Base(path) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if strings.HasSuffix(name, ".snap") && info.ModTime().Before(fi.ModTime()) ||
			time.Since(info.ModTime()) > tempAge {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return nil
}

// savedGeneration serves the generation with solve digest gen from the
// store, if it holds a valid saved copy. A missing file is a miss; so is
// a truncated, corrupt or mismatched one, which also counts in
// incr.snapshot.rejected. On a miss the caller links and solves. The
// read is the snapshot.read span, and a served one is timed in
// incr.snapshot.read.
func (p *Pipeline) savedGeneration(gen uint64) (*Result, bool) {
	start := time.Now()
	sp := p.cfg.Obs.Start("snapshot.read")
	r, err := p.store.loadGeneration(p.key, gen, p.cfg.Solver.String(), p.cfg.Model.String())
	sp.End()
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			p.cfg.Obs.Counter("incr.snapshot.rejected").Inc()
		}
		return nil, false
	}
	p.cfg.Obs.Histogram("incr.snapshot.read").ObserveSince(start)
	prog := r.Program()
	return &Result{Prog: prog, Src: pts.NewMemSource(prog), Res: r.Result(), Digest: gen, Built: time.Now()}, true
}

// saveCurrent saves the current generation as the key's saved
// generation, unless it is the one the pipeline read from the store or
// saved already. Like the unit entries it is best effort: a failed save
// counts in incr.snapshot.write_errors and costs the next Open a link
// and a solve.
func (p *Pipeline) saveCurrent() {
	cur := p.Current()
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	if cur == nil || cur.Digest == p.saved {
		return
	}
	start := time.Now()
	err := parallel.Contain(func() error {
		return p.store.saveGeneration(p.key, cur, p.saved, p.cfg.Solver.String(), p.cfg.Model.String())
	})
	if err != nil {
		p.cfg.Obs.Counter("incr.snapshot.write_errors").Inc()
		return
	}
	p.saved = cur.Digest
	p.cfg.Obs.Histogram("incr.snapshot.write").ObserveSince(start)
}
