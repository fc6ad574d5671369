// Claserve is the CLA query server: it analyzes a linked object database
// or a source directory once, then answers points-to, may-alias, call
// graph, MOD/REF, dependence and lint queries over HTTP until stopped.
//
// Usage:
//
//	claserve -listen :8080 program.cla        # serve a database over TCP
//	claserve -unix /tmp/cla.sock src/         # compile+serve a directory
//	claserve -I include/ -j 8 src/            # extra include dirs, 8 workers
//	claserve -deadline 5s program.cla         # per-request evaluation cap
//	claserve -access-log access.jsonl src/    # JSONL request log
//	claserve -debug-addr 127.0.0.1:0 src/     # pprof on its own listener
//	claserve program.snap                     # serve a solved snapshot (no solve)
//	claserve -preload a.snap,b.snap           # page snapshots in before READY
//	claserve -no-verify program.snap          # skip snapshot staleness check
//	claserve -watch src/                      # poll for edits, swap generations
//	claserve -cache-dir .clacache src/        # persist units and the solved generation
//
// Endpoints:
//
//	GET  /healthz                             liveness (503 while draining)
//	GET  /statsz                              sessions + observer metrics
//	GET  /metricsz                            Prometheus text exposition
//	GET  /v1/sessions                         registered session names
//	POST /v1/sessions                         open a session {"name","path","watch"}
//	GET  /v1/sessions/{id}                    generation + staleness + watch state
//	POST /v1/sessions/{id}/refresh            rebuild what changed, swap generation
//	DELETE /v1/sessions/{id}                  retire a session
//	POST /v1/query                            batched queries (JSON)
//	GET  /v1/pointsto?name=p                  single-query conveniences
//	GET  /v1/alias?x=p&y=q
//	GET  /v1/callgraph
//	GET  /v1/modref?func=f
//	GET  /v1/dependence?target=x&dropweak=1
//	GET  /v1/lint?checks=escape,deref
//
// SIGINT or SIGTERM drains gracefully: health flips to 503, in-flight
// requests finish (up to -grace), then the process exits 0.
//
// A refresh, watch refresh or query that panics fails alone: the client
// gets the error message, the previous generation keeps serving, and the
// panic's stack goes to stderr once, as a JSON line with "event":"panic".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cla/internal/claerr"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/serve"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8080", "TCP address to serve on")
		unixSock   = flag.String("unix", "", "unix socket path to serve on (overrides -listen)")
		name       = flag.String("name", "", "session name (default: input basename)")
		includes   = flag.String("I", "", "comma-separated extra include directories (directory inputs)")
		solverName = flag.String("solver", "pretrans", "solver: pretrans, worklist, steens, bitvec or onelevel")
		extModel   = flag.String("extmodel", "unsound", "incomplete-program model: unsound, blanket or escape")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "workers for compilation, analysis and batch queries")
		deadline   = flag.Duration("deadline", 0, "per-request evaluation deadline (0 = none)")
		grace      = flag.Duration("grace", 10*time.Second, "drain timeout on shutdown")
		ready      = flag.Bool("ready", false, "print one READY line once serving (for scripts)")
		preload    = flag.String("preload", "", "comma-separated solved .snap files to open and page in before READY")
		noVerify   = flag.Bool("no-verify", false, "open snapshots without re-hashing their recorded sources")
		debugAddr  = flag.String("debug-addr", "", "separate TCP listener exposing /debug/pprof (empty = disabled)")
		accessLog  = flag.String("access-log", "", "append one JSON line per served request to this file (\"-\" = stderr)")
		slowQuery  = flag.Duration("slow-query", 0, "latency at or above which a request is always access-logged and flagged slow (0 = disabled)")
		logSample  = flag.Int("log-sample", 1, "log 1 in N requests to the access log (<= 1 logs all; slow requests bypass sampling)")
		watch      = flag.Bool("watch", false, "poll directory sessions for edits and swap in refreshed analyses")
		watchIvl   = flag.Duration("watch-interval", 500*time.Millisecond, "poll interval for -watch and watch-created sessions")
		cacheDir   = flag.String("cache-dir", "", "persist compiled unit databases here (directory sessions reopen without parsing)")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	tel := telemetryOpts{
		debugAddr: *debugAddr, accessLog: *accessLog,
		slowQuery: *slowQuery, logSample: *logSample,
	}
	wopts := watchOpts{watch: *watch, interval: *watchIvl, cacheDir: *cacheDir}
	if err := run(flag.Args(), *listen, *unixSock, *name, *includes, *solverName,
		*extModel, *preload, *noVerify, *jobs, *deadline, *grace, *ready, tel, wopts, obsFlags); err != nil {
		fmt.Fprintf(os.Stderr, "claserve: %v\n", err)
		os.Exit(claerr.ExitCode(err))
	}
}

// telemetryOpts groups the serving-telemetry flags.
type telemetryOpts struct {
	debugAddr string
	accessLog string
	slowQuery time.Duration
	logSample int
}

// watchOpts groups the incremental-serving flags.
type watchOpts struct {
	watch    bool
	interval time.Duration
	cacheDir string
}

func run(args []string, listen, unixSock, name, includes, solverName, extModel, preload string,
	noVerify bool, jobs int, deadline, grace time.Duration, ready bool, tel telemetryOpts, wopts watchOpts, obsFlags *obs.Flags) error {
	if len(args) == 0 && preload == "" {
		return claerr.Newf(claerr.PhaseUsage, "need a .cla database, a source directory, a .snap snapshot or -preload")
	}
	solver, err := driver.ParseSolver(solverName)
	if err != nil {
		return claerr.New(claerr.PhaseUsage, err)
	}
	model, err := extmodel.ParseModel(extModel)
	if err != nil {
		return claerr.New(claerr.PhaseUsage, err)
	}
	o := obsFlags.Observer()
	if o == nil {
		// Always observe: session-open latencies (the serve.snapshot.load
		// histogram) must land on the same observer /metricsz renders,
		// which the server would otherwise create after sessions open.
		o = obs.New()
	}
	parallel.SetObserver(o)
	if err := obsFlags.Start(); err != nil {
		return claerr.New(claerr.PhaseUsage, err)
	}

	var incDirs []string
	if includes != "" {
		incDirs = strings.Split(includes, ",")
	}
	cfg := serve.Config{Solver: solver, ExtModel: model, Jobs: jobs, Includes: incDirs,
		CacheDir: wopts.cacheDir, Obs: o, SkipVerify: noVerify, ErrorLog: obs.NewLogger(os.Stderr)}
	reg := serve.NewRegistry()
	// Preloaded snapshots open, prefault and compute their checks report
	// before anything else, so READY means every -preload session answers
	// every query kind at page-cache speed.
	var preloads []string
	if preload != "" {
		preloads = strings.Split(preload, ",")
	}
	for _, path := range preloads {
		sess, err := serve.Open(context.Background(), sessionName(path), path, cfg)
		if err != nil {
			return err
		}
		n := sess.Snap.Prefault()
		if _, err := sess.Eval().ChecksReport(); err != nil {
			return err
		}
		reg.Add(sess)
		fmt.Fprintf(os.Stderr, "claserve: session %q preloaded (%d symbols, %d bytes paged in)\n",
			sess.Name, sess.Eval().NumSyms(), n)
	}
	for _, path := range args {
		n := name
		if n == "" || len(args) > 1 {
			n = sessionName(path)
		}
		sess, err := serve.Open(context.Background(), n, path, cfg)
		if err != nil {
			return err
		}
		reg.Add(sess)
		fmt.Fprintf(os.Stderr, "claserve: session %q ready (%d symbols, %d assignments)\n",
			sess.Name, sess.Eval().NumSyms(), sess.Eval().NumAssigns())
		if wopts.watch && sess.Refreshable() {
			if err := sess.StartWatch(wopts.interval); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "claserve: session %q watching %s (every %s)\n",
				sess.Name, path, wopts.interval)
		}
	}

	alw, closeLog, err := openAccessLog(tel.accessLog)
	if err != nil {
		return claerr.New(claerr.PhaseUsage, err)
	}
	defer closeLog()
	srv := serve.NewServer(reg, serve.ServerConfig{
		Jobs: jobs, Deadline: deadline, Obs: o,
		AccessLog: alw, SlowQuery: tel.slowQuery, LogSample: tel.logSample,
		Session: cfg, WatchInterval: wopts.interval,
	})
	ln, addr, err := listenOn(listen, unixSock)
	if err != nil {
		return claerr.New(claerr.PhaseServe, err)
	}
	if tel.debugAddr != "" {
		daddr, err := serveDebug(tel.debugAddr)
		if err != nil {
			return claerr.New(claerr.PhaseServe, err)
		}
		fmt.Fprintf(os.Stderr, "claserve: pprof on %s\n", daddr)
		if ready {
			fmt.Printf("DEBUG %s\n", daddr)
		}
	}
	fmt.Fprintf(os.Stderr, "claserve: serving on %s\n", addr)
	if ready {
		fmt.Printf("READY %s\n", addr)
	}

	// Drain on SIGINT/SIGTERM: stop accepting, let in-flight requests
	// finish (bounded by -grace), then exit.
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return claerr.New(claerr.PhaseServe, err)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "claserve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return claerr.New(claerr.PhaseServe, err)
		}
		<-done
	}
	// Close every session, so directory sessions save their latest
	// generation to -cache-dir before the process exits.
	for _, n := range reg.Names() {
		if sess, err := reg.Get(n); err == nil {
			sess.Close()
		}
	}
	if unixSock != "" {
		os.Remove(unixSock)
	}
	return obsFlags.Finish()
}

// openAccessLog resolves the -access-log flag: "-" means stderr, empty
// disables, anything else appends to a file. The returned closer is a
// no-op except for files.
func openAccessLog(path string) (io.Writer, func(), error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-":
		return os.Stderr, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// serveDebug starts the pprof endpoints on their own listener, keeping
// profiling off the public serving port. Returns the bound address.
func serveDebug(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

// listenOn opens the serving socket: a unix socket when requested
// (removing a stale socket file first), TCP otherwise.
func listenOn(tcp, unixSock string) (net.Listener, string, error) {
	if unixSock != "" {
		os.Remove(unixSock)
		ln, err := net.Listen("unix", unixSock)
		return ln, "unix:" + unixSock, err
	}
	ln, err := net.Listen("tcp", tcp)
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}

// sessionName derives a session name from an input path: the basename
// without a .cla or .snap extension.
func sessionName(path string) string {
	base := filepath.Base(filepath.Clean(path))
	base = strings.TrimSuffix(base, ".cla")
	return strings.TrimSuffix(base, ".snap")
}
