package cla

import (
	"cla/internal/claerr"
	"cla/internal/driver"
	"cla/internal/pts"
	"cla/internal/serve"
	"cla/internal/snapfile"
)

// parseAlgorithm maps a recorded solver label back to an Algorithm;
// unknown labels fall back to the default.
func parseAlgorithm(name string) Algorithm {
	s, err := driver.ParseSolver(name)
	if err != nil {
		return PreTransitive
	}
	return Algorithm(s)
}

// SnapshotOptions configures SaveSnapshot.
type SnapshotOptions struct {
	// Sources are the input files whose content hashes the snapshot
	// records; OpenSnapshot re-hashes them and refuses to serve (with an
	// error wrapping ErrStale semantics: exit code 3, HTTP 409) when any
	// changed. Empty means no staleness checking.
	Sources []string
}

// SaveSnapshot serializes the solved analysis — program, points-to
// relation, the cached checks report — to a .snap file OpenSnapshot and
// claserve can later page in without re-parsing or re-solving.
func (a *Analysis) SaveSnapshot(path string, opts *SnapshotOptions) error {
	ev, err := a.evaluator()
	if err != nil {
		return err
	}
	rep, err := ev.ChecksReport()
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
		Report:   rep,
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
// the cached checks report answers the first lint query. The Analysis
// answers every query identically to the live solve that produced the
// snapshot. Call Close when done (it releases the mapping).
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
	ext, _ := ParseExtModel(r.Meta().ExtModel)
	a := &Analysis{db: db, src: src, res: r.Result(),
		alg: parseAlgorithm(r.Meta().Solver), ext: ext, snap: r}
	// Pre-seed the evaluator so the first query (and NewQueryServer) skip
	// construction and reuse the snapshot's cached checks report.
	ev := serve.NewEvaluator(prog, src, r.Result(), 0)
	ev.SeedChecks(r.Report())
	a.ev = ev
	return a, nil
}
