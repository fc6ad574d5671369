package serve

import (
	"context"
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cla/internal/claerr"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/incr"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/pts"
	"cla/internal/snapfile"
)

// Config controls how a session's snapshot is built.
type Config struct {
	// Solver selects the points-to algorithm (default PreTransitive).
	Solver driver.Solver
	// ExtModel closes the snapshot over undefined externals before solving
	// (default Unsound leaves the database untouched). Modeled snapshots
	// answer the "externs" lint check with a populated audit.
	ExtModel extmodel.Model
	// Jobs bounds compile fan-out, the solve and later batch queries.
	Jobs int
	// Includes are extra directories searched for #include files when the
	// session path is a source directory.
	Includes []string
	// CacheDir, when non-empty, persists compiled unit databases and the
	// latest solved generation of directory sessions, so reopening an
	// unchanged tree skips the parse, the link and the solve.
	CacheDir string
	// Obs, when non-nil, records the build phases and solver counters.
	Obs *obs.Observer
	// SkipVerify opens solved snapshots without re-hashing their recorded
	// sources (trusted deploys, or when the sources are not on disk).
	SkipVerify bool
	// ErrorLog, when non-nil, receives one JSON record, stack included,
	// for each refresh, watch refresh or query that fails with a
	// contained panic. Clients see only the error message.
	ErrorLog *obs.Logger
}

// panicRecord is the ErrorLog record of a contained panic.
type panicRecord struct {
	Time    string `json:"ts"`
	Event   string `json:"event"`
	Op      string `json:"op"`
	Session string `json:"session"`
	Error   string `json:"error"`
	Stack   string `json:"stack"`
}

// logPanic writes err's stack to c.ErrorLog when err is a contained
// panic (*parallel.PanicError); any other error logs nothing.
func (c *Config) logPanic(op, session string, err error) {
	var pe *parallel.PanicError
	if c.ErrorLog == nil || !errors.As(err, &pe) {
		return
	}
	c.ErrorLog.Log(panicRecord{
		Time: time.Now().UTC().Format(time.RFC3339Nano), Event: "panic",
		Op: op, Session: session, Error: err.Error(), Stack: string(pe.Stack),
	})
}

// SessionState is one immutable generation of a session: the evaluator
// answering queries plus the generation it belongs to. Handlers load it
// once per request, so a concurrent refresh never changes the snapshot
// a request is answering from.
type SessionState struct {
	// Eval answers queries against this generation's fixpoint.
	Eval *Evaluator
	// Gen is the generation number (1 for the first build; one-shot
	// sessions stay at 1 forever).
	Gen uint64
	// Built is when this generation finished building.
	Built time.Time
}

// Session is one analyzed snapshot held by the server. Directory-backed
// sessions are refreshable: each refresh recompiles only the changed
// units and atomically swaps in a new generation, while queries already
// in flight keep the generation they started on.
type Session struct {
	// Name addresses the session in requests.
	Name string
	// Path is the linked database, .snap snapshot or source directory it
	// was built from (empty for in-process sessions).
	Path string
	// Kind reports the backing store: "dir", "object", "snapshot" or
	// "memory".
	Kind string
	// Snap holds the open solved-snapshot reader when the session was
	// served from a .snap file; the Evaluator's sets alias its mapping,
	// so it stays open until the session closes. Nil otherwise.
	Snap *snapfile.Reader
	// Created is when the session was first opened.
	Created time.Time

	cfg  Config
	pipe *incr.Pipeline // non-nil for refreshable (directory) sessions

	state    atomic.Pointer[SessionState]
	inflight atomic.Int64
	closed   atomic.Bool
	// lastRefresh holds the stats of the latest successful refresh of a
	// directory session, from its open, Refresh or the watch loop.
	lastRefresh atomic.Pointer[incr.RefreshStats]

	watchMu   sync.Mutex
	stopWatch context.CancelFunc
	watchDone chan struct{}

	refreshMu sync.Mutex
}

// NewSession wraps an existing evaluator as a one-shot in-memory
// session at generation 1 (the in-process cla.Serve path).
func NewSession(name, path string, ev *Evaluator) *Session {
	s := &Session{Name: name, Path: path, Kind: "memory", Created: time.Now()}
	s.state.Store(&SessionState{Eval: ev, Gen: 1, Built: s.Created})
	return s
}

// Open builds a session from path, classified by pathKind: a directory
// is opened as an incremental pipeline (dir plus cfg.Includes on the
// include path) whose sessions can later Refresh, a linked database is
// read whole and solved once, a .snap solved snapshot is paged in with
// no parse or solve at all (cfg.Solver and cfg.ExtModel are then
// ignored — the snapshot records the configuration it was solved under).
// Either way the full program is materialized in memory and solved, so
// the resulting Evaluator has no mutable demand-load state and serves
// concurrent queries safely.
func Open(ctx context.Context, name, path string, cfg Config) (*Session, error) {
	cfg.Obs = cfg.Obs.Tracks(sessionTracks * int(sessionSeq.Add(1)))
	switch pathKind(path) {
	case "snapshot":
		return openSnapshot(name, path, cfg)
	case "object":
		src, res, err := solveObject(ctx, path, cfg)
		if err != nil {
			return nil, err
		}
		s := &Session{Name: name, Path: path, Kind: "object", cfg: cfg, Created: time.Now()}
		s.state.Store(&SessionState{
			Eval:  &Evaluator{Prog: src.P, Src: src, Res: res, Jobs: cfg.Jobs, Obs: cfg.Obs},
			Gen:   1,
			Built: s.Created,
		})
		return s, nil
	}
	pipe, err := incr.Open(ctx, pipeConfig(path, cfg))
	if err != nil {
		return nil, claerr.File(claerr.PhaseCompile, path, err)
	}
	s := &Session{Name: name, Path: path, Kind: "dir", cfg: cfg, pipe: pipe, Created: time.Now()}
	cur := pipe.Current()
	s.lastRefresh.Store(&cur.Stats)
	s.adopt(cur)
	return s, nil
}

// pathKind classifies a session path by the tools' rule
// (driver.ResolveInputs): a .snap file is a solved "snapshot", a
// directory an incremental workspace ("dir"), and any other path a
// linked database ("object").
func pathKind(path string) string {
	if strings.HasSuffix(path, ".snap") {
		return "snapshot"
	}
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		return "dir"
	}
	return "object"
}

// sessionTracks is the size of each session's range of trace tracks.
// Sessions open and refresh concurrently on one observer; each records
// its spans in its own range (obs.Observer.Tracks), its root spans on
// the range's first track and a unit compile on the first plus the
// unit's index, so two sessions' spans never overlap on one track.
const sessionTracks = 1 << 16

// sessionSeq numbers the sessions Open builds, for their track ranges.
var sessionSeq atomic.Int64

// pipeConfig maps a session Config onto the incremental pipeline's.
func pipeConfig(dir string, cfg Config) incr.Config {
	ccfg := core.DefaultConfig()
	ccfg.Jobs = cfg.Jobs
	return incr.Config{
		Dir:      dir,
		Includes: cfg.Includes,
		Solver:   cfg.Solver,
		Model:    cfg.ExtModel,
		Core:     ccfg,
		Jobs:     cfg.Jobs,
		CacheDir: cfg.CacheDir,
		Obs:      cfg.Obs,
	}
}

// solveObject reads a linked database whole, closes it under the extern
// model and solves it.
func solveObject(ctx context.Context, path string, cfg Config) (*pts.MemSource, pts.Result, error) {
	prog, err := objfile.ReadFile(path)
	if err != nil {
		return nil, nil, claerr.File(claerr.PhaseObject, path, err)
	}
	extmodel.Apply(prog, cfg.ExtModel)
	src := pts.NewMemSource(prog)
	ccfg := core.DefaultConfig()
	ccfg.Jobs = cfg.Jobs
	res, err := driver.Analyze(ctx, src, cfg.Solver, ccfg, cfg.Obs)
	if err != nil {
		return nil, nil, claerr.File(claerr.PhaseAnalyze, path, err)
	}
	return src, res, nil
}

// State returns the current generation. The snapshot is immutable; hold
// it for the duration of one request to pin the generation.
func (s *Session) State() *SessionState { return s.state.Load() }

// Eval returns the current generation's evaluator. Handlers that issue
// several evaluator calls for one request should call State (or Acquire)
// once instead, so a mid-request refresh cannot split the request across
// generations.
func (s *Session) Eval() *Evaluator { return s.state.Load().Eval }

// Generation returns the current generation number.
func (s *Session) Generation() uint64 { return s.state.Load().Gen }

// Refreshable reports whether Refresh can build new generations
// (directory-backed sessions only).
func (s *Session) Refreshable() bool { return s.pipe != nil }

// Acquire pins the current generation for one request: the returned
// state stays valid until release is called, even if the session is
// deleted mid-request (a .snap unmap waits for the drain). It fails
// once the session is closed.
func (s *Session) Acquire() (*SessionState, func(), error) {
	if s.closed.Load() {
		return nil, nil, claerr.Newf(claerr.PhaseQuery, "session %q is closed: %w", s.Name, claerr.ErrNotFound)
	}
	s.inflight.Add(1)
	if s.closed.Load() {
		// Lost the race with Close; back out before it unmaps.
		s.inflight.Add(-1)
		return nil, nil, claerr.Newf(claerr.PhaseQuery, "session %q is closed: %w", s.Name, claerr.ErrNotFound)
	}
	var once sync.Once
	release := func() { once.Do(func() { s.inflight.Add(-1) }) }
	return s.state.Load(), release, nil
}

// Refresh re-checks the session's source directory and builds a new
// generation if anything changed, swapping it in atomically. It returns
// the state serving after the refresh and whether it is a new
// generation. On a failed refresh (e.g. a syntax error mid-edit) the
// previous generation keeps serving and the error is returned.
func (s *Session) Refresh(ctx context.Context) (*SessionState, bool, error) {
	if s.pipe == nil {
		return nil, false, claerr.Newf(claerr.PhaseUsage,
			"session %q (%s-backed) is not refreshable; only source-directory sessions are", s.Name, s.Kind)
	}
	res, stats, err := s.pipe.Refresh(ctx)
	if err != nil {
		s.cfg.logPanic("refresh", s.Name, err)
		return nil, false, claerr.File(claerr.PhaseCompile, s.Path, err)
	}
	s.lastRefresh.Store(&stats)
	st, changed := s.adopt(res)
	return st, changed, nil
}

// LastRefresh returns the stats of the session's latest successful
// refresh, through its open, Refresh or the watch loop; nil for sessions
// that are not directory-backed.
func (s *Session) LastRefresh() *incr.RefreshStats { return s.lastRefresh.Load() }

// Stale cheaply probes a directory session for drift without
// rebuilding: one stat per tracked file plus a directory listing.
// Non-refreshable sessions always report clean.
func (s *Session) Stale() (bool, []string) {
	if s.pipe == nil {
		return false, nil
	}
	return s.pipe.Stale()
}

// adopt installs a pipeline result as the serving generation, unless it
// already is (refreshes serialize on refreshMu, so generations can only
// move forward).
func (s *Session) adopt(r *incr.Result) (*SessionState, bool) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if cur := s.state.Load(); cur != nil && cur.Gen == r.Gen {
		return cur, false
	}
	st := &SessionState{
		Eval:  &Evaluator{Prog: r.Prog, Src: r.Src, Res: r.Res, Jobs: s.cfg.Jobs, Obs: s.cfg.Obs},
		Gen:   r.Gen,
		Built: r.Built,
	}
	s.state.Store(st)
	if s.cfg.Obs != nil {
		s.cfg.Obs.Counter("serve.session.refreshes").Inc()
	}
	return st, true
}

// trackedFiles is the file set a session's watch loop stats each poll, a
// variable so tests can make a poll fail in ways a file system cannot.
var trackedFiles = (*incr.Pipeline).TrackedFiles

// StartWatch begins polling the session's directory every interval and
// refreshing when tracked files change. Each successful refresh swaps
// the serving generation atomically; failed refreshes (mid-edit syntax
// errors) are counted and the previous generation keeps serving.
// Watching an already-watched or non-refreshable session is an error.
func (s *Session) StartWatch(interval time.Duration) error {
	if s.pipe == nil {
		return claerr.Newf(claerr.PhaseUsage,
			"session %q (%s-backed) cannot watch; only source-directory sessions can", s.Name, s.Kind)
	}
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.stopWatch != nil {
		return claerr.Newf(claerr.PhaseUsage, "session %q is already watching", s.Name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWatch = cancel
	done := make(chan struct{})
	s.watchDone = done
	tracked := trackedFiles
	go func() {
		defer close(done)
		incr.WatchLoop(ctx, s.pipe, func() []string { return tracked(s.pipe) }, interval, func(r *incr.Result, st incr.RefreshStats, err error) {
			if err != nil {
				if s.cfg.Obs != nil {
					s.cfg.Obs.Counter("serve.watch.errors").Inc()
				}
				s.cfg.logPanic("watch", s.Name, err)
				return
			}
			s.lastRefresh.Store(&st)
			if st.Changed {
				s.adopt(r)
			}
		})
	}()
	return nil
}

// StopWatch stops the watch loop, if any, and waits for it to exit.
func (s *Session) StopWatch() {
	s.watchMu.Lock()
	cancel, done := s.stopWatch, s.watchDone
	s.stopWatch, s.watchDone = nil, nil
	s.watchMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// Watching reports whether a watch loop is running.
func (s *Session) Watching() bool {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return s.stopWatch != nil
}

// Close retires the session: new Acquires fail, the watch loop stops, a
// directory session's pipeline saves its latest generation to the unit
// store, and once in-flight requests drain any backing snapshot file is
// unmapped. Idempotent; safe to call from a handler goroutine.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.retire()
	for s.inflight.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	if s.Snap != nil {
		return s.Snap.Close()
	}
	return nil
}

// retire is the part of Close that waits for no request: it stops the
// watch loop and saves a directory session's current generation to the
// unit store (incr.Pipeline.Close).
func (s *Session) retire() {
	s.StopWatch()
	if s.pipe != nil {
		s.pipe.Close()
	}
}

// Registry is the server's session table. Concurrent-safe.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[string]*Session)}
}

// Add registers s, replacing any session with the same name.
func (r *Registry) Add(s *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions[s.Name] = s
}

// AddNew registers s only if the name is free, reporting whether it was
// added — the conflict-checked variant POST /v1/sessions needs.
func (r *Registry) AddNew(s *Session) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.sessions[s.Name]; exists {
		return false
	}
	r.sessions[s.Name] = s
	return true
}

// Remove unregisters and returns the named session. The caller owns
// closing it (after queries pinned to it drain).
func (r *Registry) Remove(name string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[name]
	if ok {
		delete(r.sessions, name)
	}
	return s, ok
}

// Get resolves a session name. The empty name selects the registry's
// only session; it is an error when none or several are registered.
// Unknown names wrap ErrNotFound.
func (r *Registry) Get(name string) (*Session, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.sessions) == 1 {
			for _, s := range r.sessions {
				return s, nil
			}
		}
		return nil, claerr.Newf(claerr.PhaseQuery, "session name required (%d sessions registered)", len(r.sessions))
	}
	s, ok := r.sessions[name]
	if !ok {
		return nil, claerr.Newf(claerr.PhaseQuery, "no session named %q: %w", name, claerr.ErrNotFound)
	}
	return s, nil
}

// Names lists the registered sessions, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.sessions))
	for n := range r.sessions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
