package cla

import (
	"cla/internal/claerr"
	"cla/internal/pts"
	"cla/internal/serve"
	"cla/internal/snapfile"
)

// SnapshotOptions configures SaveSnapshot.
type SnapshotOptions struct {
	// Sources are the input files whose content hashes the snapshot
	// records; OpenSnapshot re-hashes them and refuses to serve (with an
	// error wrapping ErrStale semantics: exit code 3, HTTP 409) when any
	// changed. Empty means no staleness checking.
	Sources []string
}

// SaveSnapshot serializes the solved analysis — program and points-to
// relation — to a .snap file OpenSnapshot and claserve can later page in
// without re-parsing or re-solving. The checks report is not stored: it
// costs no more to compute on first use than to decode.
func (a *Analysis) SaveSnapshot(path string, opts *SnapshotOptions) error {
	ev, err := a.evaluator()
	if err != nil {
		return err
	}
	var srcs []snapfile.SourceFile
	if opts != nil && len(opts.Sources) > 0 {
		if srcs, err = snapfile.HashSources(opts.Sources); err != nil {
			return claerr.File(claerr.PhaseObject, path, err)
		}
	}
	snap := &snapfile.Snapshot{
		Prog:     ev.Prog,
		Res:      a.res,
		Solver:   a.alg.String(),
		ExtModel: a.ext.String(),
		Sources:  srcs,
	}
	if err := snapfile.Save(path, snap); err != nil {
		return claerr.File(claerr.PhaseObject, path, err)
	}
	return nil
}

// OpenSnapshotOptions configures OpenSnapshot.
type OpenSnapshotOptions struct {
	// SkipVerify opens the snapshot without re-hashing its recorded
	// sources (trusted deploys, or sources not on disk).
	SkipVerify bool
}

// OpenSnapshot opens a solved .snap file as a ready Analysis: no parse,
// no solve — the points-to sets are served from the file's pages, and
// the checks report is computed on the first callgraph, modref or lint
// query (or taken from the file, when an older writer stored one). The
// Analysis answers every query identically to the live solve that
// produced the snapshot. Call Close when done (it releases the mapping).
func OpenSnapshot(path string, opts *OpenSnapshotOptions) (*Analysis, error) {
	r, err := snapfile.Open(path, snapfile.Options{})
	if err != nil {
		return nil, claerr.File(claerr.PhaseObject, path, err)
	}
	if opts == nil || !opts.SkipVerify {
		if err := r.VerifySources(); err != nil {
			r.Close()
			return nil, claerr.File(claerr.PhaseObject, path, err)
		}
	}
	prog := r.Program()
	db := &Database{prog: prog}
	src := pts.NewMemSource(prog)
	// An unknown recorded label falls back to the default.
	alg, _ := ParseAlgorithm(r.Meta().Solver)
	ext, _ := ParseExtModel(r.Meta().ExtModel)
	a := &Analysis{db: db, src: src, res: r.Result(),
		alg: alg, ext: ext, snap: r}
	// Pre-seed the evaluator so the first query (and NewQueryServer) skip
	// construction, and reuse a stored checks report if the file has one.
	ev := serve.NewEvaluator(prog, src, r.Result(), 0)
	ev.SeedChecks(r.Report())
	a.ev = ev
	return a, nil
}
