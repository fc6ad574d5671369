package serve

import (
	"context"
	"strings"
	"time"

	"cla/internal/checks"
	"cla/internal/claerr"
	"cla/internal/extmodel"
	"cla/internal/incr"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/snapfile"
)

// BuildSnapshot runs the exact session-build pipeline Open uses —
// load, extern model, solve, the shared four-check report — and packages
// the outcome as a writable snapfile.Snapshot. Reusing the pipeline is
// what makes snapshot-served answers byte-identical to live-solve ones.
// The snapshot records content hashes of the inputs for staleness
// detection: the .cla file, or every file a source directory's
// compilation read (the units and their include closure).
func BuildSnapshot(ctx context.Context, path string, cfg Config) (*snapfile.Snapshot, error) {
	var (
		prog    *prim.Program
		res     pts.Result
		sources []string
	)
	if strings.HasSuffix(path, ".cla") {
		src, r, err := solveObject(ctx, path, cfg)
		if err != nil {
			return nil, err
		}
		prog, res, sources = src.P, r, []string{path}
	} else {
		pipe, err := incr.Open(ctx, pipeConfig(path, cfg))
		if err != nil {
			return nil, claerr.File(claerr.PhaseCompile, path, err)
		}
		cur := pipe.Current()
		prog, res, sources = cur.Prog, cur.Res, pipe.TrackedFiles()
	}
	// The cached report must match Evaluator.checksReport exactly: the
	// default four checks, no externs. The soundness audit runs
	// separately and rides along in its own slot.
	rep, err := checks.Run(prog, res, checks.Options{Jobs: cfg.Jobs, Obs: cfg.Obs})
	if err != nil {
		return nil, claerr.File(claerr.PhaseLint, path, err)
	}
	var audit *checks.Audit
	if cfg.ExtModel != extmodel.Unsound {
		arep, err := checks.Run(prog, res, checks.Options{
			Checks: []checks.Check{checks.Externs}, Jobs: cfg.Jobs,
			ExtModel: cfg.ExtModel.String(), Obs: cfg.Obs,
		})
		if err != nil {
			return nil, claerr.File(claerr.PhaseLint, path, err)
		}
		audit = arep.Audit
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
		Report:   rep,
		Audit:    audit,
		Sources:  srcFiles,
	}, nil
}

// openSnapshot builds a session from a solved .snap file: page the file
// in, rebuild the in-memory source from the recorded program, seed the
// cached checks report — no parse, no solve. The open is integrity-
// checked end to end by the reader; unless cfg.SkipVerify is set the
// recorded source hashes are re-checked and a mismatch fails with
// claerr.ErrStale (HTTP 409, exit code 3).
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
	ev := NewEvaluator(prog, pts.NewMemSource(prog), r.Result(), cfg.Jobs)
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
