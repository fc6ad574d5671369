package cla

import "cla/internal/claerr"

// Error is the typed error returned at every public boundary: the
// pipeline phase that failed, the input file when one is known, and the
// underlying cause. Use errors.As to dispatch on it and errors.Is to
// test the cause:
//
//	_, err := cla.CompileDirCtx(ctx, "src", nil)
//	var ce *cla.Error
//	if errors.As(err, &ce) && ce.Phase == cla.PhaseCompile { ... }
//
// The claserve HTTP layer maps phases to response statuses and the CLIs
// map them to exit codes, so a library caller, a curl user and a shell
// script all see the same classification.
type Error = claerr.Error

// ErrorPhase names the pipeline stage an Error came from. (The name
// Phase is taken by the observability span type.)
type ErrorPhase = claerr.Phase

// The pipeline phases an Error can carry.
const (
	// PhaseUsage is a malformed request to the API itself (unknown
	// algorithm or check name, invalid option combination).
	PhaseUsage = claerr.PhaseUsage
	// PhaseCompile covers C preprocessing, parsing and lowering.
	PhaseCompile = claerr.PhaseCompile
	// PhaseLink covers database merging.
	PhaseLink = claerr.PhaseLink
	// PhaseObject covers serialized-database I/O (open, read, write).
	PhaseObject = claerr.PhaseObject
	// PhaseAnalyze covers points-to solving.
	PhaseAnalyze = claerr.PhaseAnalyze
	// PhaseQuery covers post-analysis queries (points-to, alias,
	// dependence, batched serving requests).
	PhaseQuery = claerr.PhaseQuery
	// PhaseLint covers the static-analysis clients.
	PhaseLint = claerr.PhaseLint
	// PhaseServe covers query-server lifecycle failures.
	PhaseServe = claerr.PhaseServe
)

// ErrNotFound is wrapped by query errors that name an object, session or
// function the database does not contain; test with errors.Is.
var ErrNotFound = claerr.ErrNotFound
