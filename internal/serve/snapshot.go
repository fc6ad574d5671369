package serve

import (
	"context"
	"time"

	"cla/internal/claerr"
	"cla/internal/incr"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/snapfile"
)

// BuildSnapshot runs the exact session-build pipeline Open uses — load,
// extern model, solve — and packages the outcome as a writable
// snapfile.Snapshot. Reusing the pipeline is what makes snapshot-served
// answers byte-identical to live-solve ones. It runs no checks and
// stores no report: a session opened from the file computes the report
// on its first callgraph, modref or lint query, which costs what
// decoding a stored one would. path is classified as Open classifies it
// (pathKind); a directory is compiled, and any other path is read as a
// linked database. The snapshot records content hashes of the inputs for
// staleness detection: the database file, or every file a source
// directory's compilation read (the units and their include closure).
func BuildSnapshot(ctx context.Context, path string, cfg Config) (*snapfile.Snapshot, error) {
	var (
		prog    *prim.Program
		res     pts.Result
		sources []string
	)
	if pathKind(path) == "dir" {
		pipe, err := incr.Open(ctx, pipeConfig(path, cfg))
		if err != nil {
			return nil, claerr.File(claerr.PhaseCompile, path, err)
		}
		cur := pipe.Current()
		prog, res, sources = cur.Prog, cur.Res, pipe.TrackedFiles()
	} else {
		src, r, err := solveObject(ctx, path, cfg)
		if err != nil {
			return nil, err
		}
		prog, res, sources = src.P, r, []string{path}
	}
	srcFiles, err := snapfile.HashSources(sources)
	if err != nil {
		return nil, claerr.File(claerr.PhaseObject, path, err)
	}
	return &snapfile.Snapshot{
		Prog:     prog,
		Res:      res,
		Solver:   cfg.Solver.String(),
		ExtModel: cfg.ExtModel.String(),
		Sources:  srcFiles,
	}, nil
}

// openSnapshot builds a session from a solved .snap file: page the file
// in, rebuild the in-memory source from the recorded program, seed the
// checks report if the file stores one (no public writer does; the
// evaluator computes it on first use otherwise) — no parse, no solve.
// The open is integrity-checked end to end by the reader; unless
// cfg.SkipVerify is set the recorded source hashes are re-checked and a
// mismatch fails with claerr.ErrStale (HTTP 409, exit code 3).
func openSnapshot(name, path string, cfg Config) (*Session, error) {
	start := time.Now()
	r, err := snapfile.Open(path, snapfile.Options{})
	if err != nil {
		return nil, claerr.File(claerr.PhaseObject, path, err)
	}
	if !cfg.SkipVerify {
		if err := r.VerifySources(); err != nil {
			r.Close()
			return nil, claerr.File(claerr.PhaseObject, path, err)
		}
	}
	prog := r.Program()
	ev := &Evaluator{Prog: prog, Src: pts.NewMemSource(prog), Res: r.Result(), Jobs: cfg.Jobs, Obs: cfg.Obs}
	ev.SeedChecks(r.Report())
	cfg.Obs.Histogram("serve.snapshot.load").ObserveSince(start)
	s := &Session{
		Name:    name,
		Path:    path,
		Kind:    "snapshot",
		Snap:    r,
		cfg:     cfg,
		Created: time.Now(),
	}
	s.state.Store(&SessionState{Eval: ev, Gen: 1, Built: s.Created})
	return s, nil
}
