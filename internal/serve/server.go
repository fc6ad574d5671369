package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cla/internal/claerr"
	"cla/internal/incr"
	"cla/internal/obs"
	"cla/internal/parallel"
)

// ServerConfig controls request handling.
type ServerConfig struct {
	// Jobs bounds batch fan-out per request (0 = all cores).
	Jobs int
	// Deadline caps each request's evaluation time (0 = no deadline).
	// The client's disconnect cancels evaluation either way.
	Deadline time.Duration
	// Obs backs /statsz and /metricsz; a fresh observer is created when
	// nil.
	Obs *obs.Observer
	// AccessLog, when non-nil, receives one JSON line per served request
	// (see accessRecord). Writes are serialized by the server.
	AccessLog io.Writer
	// SlowQuery is the latency at or above which a request is always
	// logged and flagged slow, bypassing sampling (0 disables).
	SlowQuery time.Duration
	// LogSample logs 1 in N requests to AccessLog (<= 1 logs all).
	LogSample int
	// Session is the build configuration for sessions created over the
	// API (POST /v1/sessions). Its zero value builds with the defaults;
	// Jobs and Obs fall back to the server's when unset.
	Session Config
	// WatchInterval is the poll interval for sessions created with
	// "watch": true (0 = 500ms).
	WatchInterval time.Duration
}

// Server serves the query API over HTTP. Routes:
//
//	GET  /healthz                    liveness ("ok", or "draining" + 503)
//	GET  /statsz                     sessions + observer counters/gauges
//	GET  /v1/sessions                registered session names
//	POST /v1/sessions                open a session {"name","path","watch"}
//	GET  /v1/sessions/{id}           generation, staleness, watch state
//	POST /v1/sessions/{id}/refresh   rebuild what changed, swap generation
//	DELETE /v1/sessions/{id}         retire a session (drains, then unmaps)
//	POST /v1/query                   batched Request -> Response
//	GET  /v1/pointsto?name=          single-query conveniences; all accept
//	GET  /v1/alias?x=&y=             &session= to pick a snapshot
//	GET  /v1/callgraph
//	GET  /v1/modref?func=
//	GET  /v1/dependence?target=&nontarget=&dropweak=&limit=
//	GET  /v1/lint?checks=
type Server struct {
	Sessions *Registry

	cfg          ServerConfig
	o            *obs.Observer
	mux          *http.ServeMux
	handler      http.Handler
	http         *http.Server
	access       *obs.Logger
	idBase       string
	draining     atomic.Bool
	inflight     atomic.Int64
	httpInflight atomic.Int64
	reqSeq       atomic.Uint64
}

// NewServer builds a server over a session registry.
func NewServer(reg *Registry, cfg ServerConfig) *Server {
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	s := &Server{
		Sessions: reg, cfg: cfg, o: o, mux: http.NewServeMux(),
		access: obs.NewLogger(cfg.AccessLog),
		idBase: fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionInfo)
	s.mux.HandleFunc("POST /v1/sessions/{id}/refresh", s.handleSessionRefresh)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	for _, kind := range []string{"pointsto", "alias", "callgraph", "modref", "dependence", "lint"} {
		s.mux.HandleFunc("GET /v1/"+kind, s.singleHandler(kind))
	}
	s.handler = s.instrument(s.mux)
	s.http = &http.Server{Handler: s.handler}
	return s
}

// Handler exposes the instrumented route table (for tests via
// httptest) — the same handler Serve uses, middleware included.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	return s.http.Serve(ln)
}

// Shutdown drains the server gracefully: /healthz flips to 503 so load
// balancers stop routing, in-flight requests run to completion (or until
// ctx fires), and new connections are refused.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.http.SetKeepAlivesEnabled(false)
	return s.http.Shutdown(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// statszBody is the /statsz response shape. Gauges include the
// runtime.* health readings captured at scrape time, so a fleet
// health-checker needs only this one target.
type statszBody struct {
	Sessions []statszSession  `json:"sessions"`
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// metricMap renders observer metrics for JSON.
func metricMap(ms []obs.Metric) map[string]int64 {
	out := make(map[string]int64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

type statszSession struct {
	Name       string `json:"name"`
	Path       string `json:"path"`
	Syms       int    `json:"syms"`
	Assigns    int    `json:"assigns"`
	Generation uint64 `json:"generation"`
	Created    string `json:"created"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.o.CaptureRuntime()
	body := statszBody{
		Sessions: []statszSession{},
		Counters: metricMap(s.o.Counters()),
		Gauges:   metricMap(s.o.Gauges()),
	}
	for _, name := range s.Sessions.Names() {
		sess, err := s.Sessions.Get(name)
		if err != nil {
			continue
		}
		st := sess.State()
		body.Sessions = append(body.Sessions, statszSession{
			Name:       sess.Name,
			Path:       sess.Path,
			Syms:       st.Eval.NumSyms(),
			Assigns:    st.Eval.NumAssigns(),
			Generation: st.Gen,
			Created:    sess.Created.UTC().Format(time.RFC3339),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"sessions": s.Sessions.Names()})
}

// SessionInfo is the wire shape of GET /v1/sessions/{id} (and the 201
// body of POST): identity, current generation, staleness and watch
// state.
type SessionInfo struct {
	Name        string   `json:"name"`
	Path        string   `json:"path,omitempty"`
	Kind        string   `json:"kind"`
	Generation  uint64   `json:"generation"`
	Syms        int      `json:"syms"`
	Assigns     int      `json:"assigns"`
	Created     string   `json:"created"`
	Built       string   `json:"built"`
	Refreshable bool     `json:"refreshable"`
	Watching    bool     `json:"watching"`
	Stale       bool     `json:"stale"`
	Changed     []string `json:"changed,omitempty"`
	// LastRefresh describes the latest successful refresh (REST or
	// watch); absent before the first.
	LastRefresh *RefreshInfo `json:"last_refresh,omitempty"`
}

// RefreshInfo is the wire shape of one refresh's incr.RefreshStats:
// the unit counts (cut_off counts the recompiled units whose unchanged
// tokens kept their previous compile), whether the link spliced the one changed unit into
// the previous link, whether the fixpoint was reused, read from the
// unit store's saved generation or solved warm (with the nodes the warm
// solve's waves recomputed), and the phase split in milliseconds.
type RefreshInfo struct {
	Units       int     `json:"units"`
	Recompiled  int     `json:"recompiled"`
	StoreHits   int     `json:"store_hits"`
	Reused      int     `json:"reused"`
	CutOff      int     `json:"cut_off"`
	LinkSpliced bool    `json:"link_spliced"`
	SolveReused bool    `json:"solve_reused"`
	Snapshot    bool    `json:"snapshot"`
	SolveWarm   bool    `json:"solve_warm"`
	RegionNodes int     `json:"region_nodes"`
	HashMS      float64 `json:"hash_ms"`
	CompileMS   float64 `json:"compile_ms"`
	LinkMS      float64 `json:"link_ms"`
	SolveMS     float64 `json:"solve_ms"`
	TotalMS     float64 `json:"total_ms"`
}

func refreshInfo(st *incr.RefreshStats) *RefreshInfo {
	if st == nil {
		return nil
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return &RefreshInfo{
		Units: st.Units, Recompiled: st.Recompiled, StoreHits: st.StoreHits, Reused: st.Reused, CutOff: st.CutOff,
		LinkSpliced: st.LinkSpliced, SolveReused: st.SolveReused, Snapshot: st.Snapshot, SolveWarm: st.SolveWarm,
		RegionNodes: st.RegionNodes, HashMS: ms(st.Hash), CompileMS: ms(st.Compile), LinkMS: ms(st.Link),
		SolveMS: ms(st.Solve), TotalMS: ms(st.Total),
	}
}

// sessionInfo snapshots a session for the lifecycle endpoints. The
// stale probe stats tracked files, so it is cheap but not free; only
// the per-session endpoints pay it, not the statsz listing.
func sessionInfo(sess *Session) SessionInfo {
	st := sess.State()
	stale, changed := sess.Stale()
	return SessionInfo{
		Name:        sess.Name,
		Path:        sess.Path,
		Kind:        sess.Kind,
		Generation:  st.Gen,
		Syms:        st.Eval.NumSyms(),
		Assigns:     st.Eval.NumAssigns(),
		Created:     sess.Created.UTC().Format(time.RFC3339),
		Built:       st.Built.UTC().Format(time.RFC3339),
		Refreshable: sess.Refreshable(),
		Watching:    sess.Watching(),
		Stale:       stale,
		Changed:     changed,
		LastRefresh: refreshInfo(sess.LastRefresh()),
	}
}

// sessionCreateBody is the POST /v1/sessions request: open path (a
// source directory, linked database or .snap snapshot) under the given
// session name, optionally starting a watch loop on it.
type sessionCreateBody struct {
	Name  string `json:"name"`
	Path  string `json:"path"`
	Watch bool   `json:"watch,omitempty"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	var body sessionCreateBody
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		s.fail(w, claerr.Newf(claerr.PhaseUsage, "bad request body: %v", err))
		return
	}
	if body.Name == "" || body.Path == "" {
		s.fail(w, claerr.Newf(claerr.PhaseUsage, "session create needs both name and path"))
		return
	}
	cfg := s.cfg.Session
	if cfg.Jobs == 0 {
		cfg.Jobs = s.cfg.Jobs
	}
	if cfg.Obs == nil {
		cfg.Obs = s.o
	}
	sess, err := Open(r.Context(), body.Name, body.Path, cfg)
	if err != nil {
		s.fail(w, err)
		return
	}
	if !s.Sessions.AddNew(sess) {
		sess.Close()
		s.failStatus(w, http.StatusConflict, claerr.Newf(claerr.PhaseUsage,
			"session %q already exists; delete it first", body.Name))
		return
	}
	if body.Watch {
		if err := sess.StartWatch(s.watchInterval()); err != nil {
			// The session itself opened fine; surface the watch problem
			// but keep serving it unwatched.
			s.o.Counter("serve.watch.errors").Inc()
		}
	}
	s.o.Counter("serve.sessions.created").Inc()
	writeJSON(w, http.StatusCreated, sessionInfo(sess))
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	sess, err := s.Sessions.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleSessionRefresh(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	sess, err := s.Sessions.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if _, _, err := sess.Refresh(ctx); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	name := r.PathValue("id")
	sess, ok := s.Sessions.Remove(name)
	if !ok {
		s.fail(w, claerr.Newf(claerr.PhaseQuery, "no session named %q: %w", name, claerr.ErrNotFound))
		return
	}
	// Save a directory session's generation before answering, so a
	// session created on the same path right after is served from it.
	// Close drains queries pinned to the session before unmapping any
	// snapshot backing it; run it off the request goroutine.
	sess.retire()
	go sess.Close()
	s.o.Counter("serve.sessions.deleted").Inc()
	w.WriteHeader(http.StatusNoContent)
}

// watchInterval resolves the configured watch poll interval.
func (s *Server) watchInterval() time.Duration {
	if s.cfg.WatchInterval > 0 {
		return s.cfg.WatchInterval
	}
	return 500 * time.Millisecond
}

// handleQuery answers the batched POST /v1/query endpoint.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, claerr.Newf(claerr.PhaseUsage, "bad request body: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, claerr.Newf(claerr.PhaseUsage, "empty query batch"))
		return
	}
	sess, err := s.Sessions.Get(req.Session)
	if err != nil {
		s.fail(w, err)
		return
	}
	// Pin one generation for the whole batch: a concurrent refresh swaps
	// the session's state but cannot touch the snapshot this batch runs
	// against, and a concurrent delete waits for the release.
	st, release, err := sess.Acquire()
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	s.o.Counter("serve.queries").Add(int64(len(req.Queries)))
	s.o.Gauge("serve.inflight").Set(s.inflight.Add(int64(len(req.Queries))))
	results, err := st.Eval.EvalBatchObserve(ctx, req.Queries,
		func(q Query, d time.Duration) { s.observeQuery(sess, q.Kind, d) })
	s.o.Gauge("serve.inflight").Set(s.inflight.Add(-int64(len(req.Queries))))
	if err != nil {
		s.cfg.Session.logPanic("query", sess.Name, err)
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, Response{Session: sess.Name, Generation: st.Gen, Results: results})
}

// singleHandler adapts one query kind to GET with URL parameters.
func (s *Server) singleHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.o.Counter("serve.requests").Add(1)
		s.o.Counter("serve.queries").Add(1)
		v := r.URL.Query()
		q := Query{
			Kind:   kind,
			Name:   v.Get("name"),
			X:      v.Get("x"),
			Y:      v.Get("y"),
			Func:   v.Get("func"),
			Target: v.Get("target"),
		}
		if nts := v["nontarget"]; len(nts) > 0 {
			q.NonTargets = nts
		}
		if v.Get("dropweak") != "" {
			q.DropWeak = true
		}
		if lim := v.Get("limit"); lim != "" {
			n, err := strconv.Atoi(lim)
			if err != nil || n < 0 {
				s.fail(w, claerr.Newf(claerr.PhaseUsage, "bad limit %q", lim))
				return
			}
			q.Limit = n
		}
		if cs := v.Get("checks"); cs != "" {
			q.Checks = strings.Split(cs, ",")
		}
		sess, err := s.Sessions.Get(v.Get("session"))
		if err != nil {
			s.fail(w, err)
			return
		}
		st, release, err := sess.Acquire()
		if err != nil {
			s.fail(w, err)
			return
		}
		defer release()
		w.Header().Set("X-Cla-Generation", strconv.FormatUint(st.Gen, 10))
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		start := time.Now()
		var res QueryResult
		err = parallel.Contain(func() error {
			res = st.Eval.Eval(ctx, q)
			return nil
		})
		s.observeQuery(sess, kind, time.Since(start))
		if err != nil {
			s.cfg.Session.logPanic("query", sess.Name, err)
			s.fail(w, claerr.New(claerr.PhaseQuery, err))
			return
		}
		if res.Err != nil {
			s.o.Counter("serve.errors").Add(1)
			writeJSON(w, res.Err.Status, res)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// requestCtx derives the evaluation context: the client's own request
// context (so a disconnect cancels evaluation) plus the configured
// server-side deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.cfg.Deadline > 0 {
		return context.WithTimeout(ctx, s.cfg.Deadline)
	}
	return context.WithCancel(ctx)
}

// fail writes a request-level typed error.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.o.Counter("serve.errors").Add(1)
	body := errBody(err)
	writeJSON(w, body.Status, map[string]*ErrorBody{"error": body})
}

// failStatus is fail with an explicit HTTP status overriding the
// error's phase mapping (e.g. 409 for a session-name conflict).
func (s *Server) failStatus(w http.ResponseWriter, status int, err error) {
	s.o.Counter("serve.errors").Add(1)
	body := errBody(err)
	body.Status = status
	writeJSON(w, status, map[string]*ErrorBody{"error": body})
}

// writeJSON renders v with a trailing newline (curl-friendly).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
