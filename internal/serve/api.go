// Package serve is the query-serving layer: it turns a completed
// points-to analysis into a long-running service. A session registry
// holds analyzed snapshots (opened from a linked database or a source
// directory), an Evaluator answers the six query kinds — points-to,
// may-alias, call graph, MOD/REF, dependence, lint — and an HTTP server
// exposes them over TCP or a unix socket with per-request deadlines,
// client-cancellation propagation and graceful drain.
//
// The same request and response shapes back the public cla.Serve and
// Analysis.Query APIs, so an in-process library caller and a curl user
// speak one protocol.
//
// Determinism contract: batched queries fan out across
// internal/parallel workers into index-addressed result slots, every
// query kind produces sorted output, and responses are byte-identical
// at any Jobs setting.
package serve

import (
	"cla/internal/checks"
	"cla/internal/claerr"
)

// Request is one batched query-API call (the body of POST /v1/query).
type Request struct {
	// Session names the analyzed snapshot to query. Empty selects the
	// registry's only session, erroring when several are registered.
	Session string `json:"session,omitempty"`
	// Queries evaluate independently — one failing query reports its
	// error inline without failing the batch.
	Queries []Query `json:"queries"`
}

// Query is one sub-query of a batch.
type Query struct {
	// Kind selects the query: "pointsto", "alias", "callgraph",
	// "modref", "dependence" or "lint".
	Kind string `json:"kind"`

	// Name is the queried object for pointsto.
	Name string `json:"name,omitempty"`
	// X and Y are the two pointer objects for alias.
	X string `json:"x,omitempty"`
	Y string `json:"y,omitempty"`
	// Func restricts modref to one function ("" returns all summaries).
	Func string `json:"func,omitempty"`
	// Target is the dependence target; NonTargets and DropWeak mirror
	// cla.DependOptions; Limit caps the dependents returned (0 = all).
	Target     string   `json:"target,omitempty"`
	NonTargets []string `json:"nontargets,omitempty"`
	DropWeak   bool     `json:"drop_weak,omitempty"`
	Limit      int      `json:"limit,omitempty"`
	// Checks restricts lint to the named checks (nil = all).
	Checks []string `json:"checks,omitempty"`
}

// Response answers a Request, results in query order. Generation
// identifies the session generation the whole batch was evaluated
// against (1 for one-shot sessions); it only moves when a watch-mode
// refresh swaps in a new fixpoint.
type Response struct {
	Session    string        `json:"session"`
	Generation uint64        `json:"generation,omitempty"`
	Results    []QueryResult `json:"results"`
}

// QueryResult is one query's answer. Exactly one of the payload fields
// is set on success; Err is set instead when the query failed.
type QueryResult struct {
	Kind string     `json:"kind"`
	Err  *ErrorBody `json:"error,omitempty"`

	Objects    []Object      `json:"objects,omitempty"`    // pointsto
	Alias      *bool         `json:"alias,omitempty"`      // alias
	Graph      *checks.Graph `json:"graph,omitempty"`      // callgraph
	ModRef     []ModRefEntry `json:"modref,omitempty"`     // modref
	Dependents []DependEntry `json:"dependents,omitempty"` // dependence
	Findings   []Finding     `json:"findings,omitempty"`   // lint
}

// Object is one program object in a points-to answer.
type Object struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Type string `json:"type,omitempty"`
	Pos  string `json:"pos,omitempty"`
	Func string `json:"func,omitempty"`
}

// ModRefEntry is one function's MOD/REF summary.
type ModRefEntry struct {
	Func      string   `json:"func"`
	Mod       []string `json:"mod"`
	Ref       []string `json:"ref"`
	DirectMod []string `json:"direct_mod"`
	DirectRef []string `json:"direct_ref"`
}

// DependEntry is one object dependent on a dependence target.
type DependEntry struct {
	Object   Object `json:"object"`
	Strong   bool   `json:"strong"`
	Distance int    `json:"distance"`
	Chain    string `json:"chain"`
}

// Finding is one lint diagnostic.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Func    string `json:"func,omitempty"`
	Message string `json:"message"`
}

// ErrorBody is the wire form of a typed error: the failing phase, the
// HTTP status the serving layer maps it to, and the message.
type ErrorBody struct {
	Phase   string `json:"phase,omitempty"`
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// errBody converts an error to its wire form (nil-safe).
func errBody(err error) *ErrorBody {
	if err == nil {
		return nil
	}
	return &ErrorBody{
		Phase:   string(claerr.PhaseOf(err)),
		Status:  claerr.HTTPStatus(err),
		Message: err.Error(),
	}
}
