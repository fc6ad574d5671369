package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cla/internal/claerr"
	"cla/internal/incr"
	"cla/internal/objfile"
)

// writeTestDir lays out a two-unit C program with a function pointer
// (for the call graph), a heap-free alias pair and a dependence chain.
func writeTestDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"a.c": `int g; int other;
int *p, *q, *lone;
int mirror;
void set(void) { p = &g; q = &g; lone = &other; }
void reflect(void) { mirror = g; }
`,
		"b.c": `extern int *p;
int *r;
void copy(void) { r = p; }
void work(void) { copy(); }
void (*fp)(void);
void install(void) { fp = copy; }
void dispatch(void) { fp(); }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func openTestSession(t *testing.T, jobs int) *Session {
	t.Helper()
	dir := writeTestDir(t)
	sess, err := Open(context.Background(), "test", dir, Config{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// mixedQueries covers all six kinds.
func mixedQueries() []Query {
	return []Query{
		{Kind: "pointsto", Name: "p"},
		{Kind: "alias", X: "p", Y: "q"},
		{Kind: "alias", X: "p", Y: "lone"},
		{Kind: "callgraph"},
		{Kind: "modref", Func: "set"},
		{Kind: "dependence", Target: "g"},
		{Kind: "lint"},
	}
}

func TestEvalAllKinds(t *testing.T) {
	sess := openTestSession(t, 1)
	results, err := sess.Eval().EvalBatch(context.Background(), mixedQueries())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d (%s): %s", i, r.Kind, r.Err.Message)
		}
	}
	if len(results[0].Objects) != 1 || results[0].Objects[0].Name != "g" {
		t.Errorf("pointsto(p) = %+v, want {g}", results[0].Objects)
	}
	if results[1].Alias == nil || !*results[1].Alias {
		t.Error("alias(p, q) = false, want true")
	}
	if results[2].Alias == nil || *results[2].Alias {
		t.Error("alias(p, lone) = true, want false")
	}
	if results[3].Graph == nil || len(results[3].Graph.Funcs) == 0 {
		t.Error("callgraph empty")
	}
	if len(results[4].ModRef) != 1 || results[4].ModRef[0].Func != "set" {
		t.Errorf("modref(set) = %+v", results[4].ModRef)
	}
	if len(results[5].Dependents) == 0 {
		t.Error("dependence(g) found no dependents")
	}
}

// TestDirAndFileAgree opens the same program as a source directory and as
// a .cla database and expects byte-identical batch responses.
func TestDirAndFileAgree(t *testing.T) {
	dir := writeTestDir(t)
	prog, err := incr.CompileDir(context.Background(), incr.Config{Dir: dir, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	claPath := filepath.Join(t.TempDir(), "prog.cla")
	if err := objfile.WriteFile(claPath, prog); err != nil {
		t.Fatal(err)
	}
	fromDir, err := Open(context.Background(), "s", dir, Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Open(context.Background(), "s", claPath, Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fromDir.Eval().EvalBatch(context.Background(), mixedQueries())
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromFile.Eval().EvalBatch(context.Background(), mixedQueries())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, a), marshal(t, b)) {
		t.Error("dir-backed and file-backed sessions disagree")
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchDeterminism requires byte-identical responses at -j 1 and
// -j 8 — the repo-wide determinism contract applied to the serving layer.
func TestBatchDeterminism(t *testing.T) {
	dir := writeTestDir(t)
	var outs [][]byte
	for _, jobs := range []int{1, 8} {
		sess, err := Open(context.Background(), "s", dir, Config{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		// A batch big enough to exercise real fan-out.
		var qs []Query
		for i := 0; i < 16; i++ {
			qs = append(qs, mixedQueries()...)
		}
		results, err := sess.Eval().EvalBatch(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, marshal(t, results))
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("responses differ between -j 1 and -j 8")
	}
}

// TestConcurrentMixedQueries fires mixed batches at one session from many
// goroutines; run under -race this is the serving layer's thread-safety
// proof.
func TestConcurrentMixedQueries(t *testing.T) {
	sess := openTestSession(t, 4)
	base, err := sess.Eval().EvalBatch(context.Background(), mixedQueries())
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, base)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				results, err := sess.Eval().EvalBatch(context.Background(), mixedQueries())
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(want, marshal(t, results)) {
					errs[g] = errors.New("concurrent response differs")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchCancellation(t *testing.T) {
	sess := openTestSession(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sess.Eval().EvalBatch(ctx, mixedQueries())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalBatch(canceled ctx) = %v, want context.Canceled", err)
	}
	if claerr.HTTPStatus(err) != 499 {
		t.Errorf("HTTPStatus = %d, want 499", claerr.HTTPStatus(err))
	}
}

func TestQueryErrors(t *testing.T) {
	sess := openTestSession(t, 1)
	ctx := context.Background()
	r := sess.Eval().Eval(ctx, Query{Kind: "pointsto", Name: "nosuch"})
	if r.Err == nil || r.Err.Status != http.StatusNotFound {
		t.Errorf("pointsto(nosuch) = %+v, want 404", r.Err)
	}
	r = sess.Eval().Eval(ctx, Query{Kind: "frobnicate"})
	if r.Err == nil || r.Err.Status != http.StatusBadRequest {
		t.Errorf("unknown kind = %+v, want 400", r.Err)
	}
	r = sess.Eval().Eval(ctx, Query{Kind: "lint", Checks: []string{"nosuchcheck"}})
	if r.Err == nil || r.Err.Status != http.StatusBadRequest {
		t.Errorf("bad check = %+v, want 400", r.Err)
	}
}

func newTestServer(t *testing.T, jobs int) *Server {
	t.Helper()
	reg := NewRegistry()
	reg.Add(openTestSession(t, jobs))
	return NewServer(reg, ServerConfig{Jobs: jobs})
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, 2)
	h := s.Handler()

	if rec := get(t, h, "/healthz"); rec.Code != 200 || !strings.HasPrefix(rec.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/v1/sessions"); rec.Code != 200 || !strings.Contains(rec.Body.String(), `"test"`) {
		t.Errorf("sessions = %d %q", rec.Code, rec.Body.String())
	}

	rec := get(t, h, "/v1/pointsto?name=p")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"name": "g"`) {
		t.Errorf("pointsto = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/v1/pointsto?name=nosuch"); rec.Code != 404 {
		t.Errorf("pointsto(nosuch) = %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/v1/alias?x=p&y=q"); rec.Code != 200 || !strings.Contains(rec.Body.String(), `"alias": true`) {
		t.Errorf("alias = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/v1/callgraph"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "dispatch") {
		t.Errorf("callgraph = %d", rec.Code)
	}
	if rec := get(t, h, "/v1/modref?func=set"); rec.Code != 200 || !strings.Contains(rec.Body.String(), `"func": "set"`) {
		t.Errorf("modref = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/v1/dependence?target=g&limit=5"); rec.Code != 200 {
		t.Errorf("dependence = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/v1/lint?checks=deref,escape"); rec.Code != 200 {
		t.Errorf("lint = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/v1/dependence?target=g&limit=bogus"); rec.Code != 400 {
		t.Errorf("bad limit = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/v1/pointsto?name=p&session=nosuch"); rec.Code != 404 {
		t.Errorf("bad session = %d, want 404", rec.Code)
	}

	// statsz reflects the traffic above.
	rec = get(t, h, "/statsz")
	var stats struct {
		Sessions []struct {
			Name string `json:"name"`
			Syms int    `json:"syms"`
		} `json:"sessions"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Sessions) != 1 || stats.Sessions[0].Name != "test" || stats.Sessions[0].Syms == 0 {
		t.Errorf("statsz sessions = %+v", stats.Sessions)
	}
	if stats.Counters["serve.requests"] == 0 || stats.Counters["serve.errors"] == 0 {
		t.Errorf("statsz counters = %v", stats.Counters)
	}
}

func TestHTTPBatch(t *testing.T) {
	s := newTestServer(t, 2)
	body := marshal(t, Request{Queries: mixedQueries()})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("batch = %d %q", rec.Code, rec.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Session != "test" || len(resp.Results) != len(mixedQueries()) {
		t.Fatalf("batch response = %+v", resp)
	}
	for i, r := range resp.Results {
		if r.Err != nil {
			t.Errorf("query %d (%s): %s", i, r.Kind, r.Err.Message)
		}
	}

	// Malformed body and empty batch are usage errors.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader("{nope")))
	if rec.Code != 400 {
		t.Errorf("bad body = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"queries":[]}`)))
	if rec.Code != 400 {
		t.Errorf("empty batch = %d, want 400", rec.Code)
	}
}

// TestClientDisconnectAbortsBatch proves an in-flight batch aborts when
// the client goes away: the request context reaches the evaluation
// fan-out, so a canceled request yields 499 instead of a full answer.
func TestClientDisconnectAbortsBatch(t *testing.T) {
	s := newTestServer(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	var qs []Query
	for i := 0; i < 64; i++ {
		qs = append(qs, Query{Kind: "pointsto", Name: "p"})
	}
	req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(marshal(t, Request{Queries: qs})))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != 499 {
		t.Fatalf("canceled batch = %d %q, want 499", rec.Code, rec.Body.String())
	}
}

func TestDeadline(t *testing.T) {
	reg := NewRegistry()
	reg.Add(openTestSession(t, 1))
	s := NewServer(reg, ServerConfig{Deadline: 1}) // 1ns: every request expires
	rec := httptest.NewRecorder()
	body := marshal(t, Request{Queries: mixedQueries()})
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline = %d %q, want 504", rec.Code, rec.Body.String())
	}
}

func TestDrainFlipsHealth(t *testing.T) {
	s := newTestServer(t, 1)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(rec.Body.String(), "draining") {
		t.Errorf("healthz after shutdown = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Get(""); err == nil {
		t.Error("empty registry accepted")
	}
	a := openTestSession(t, 1)
	a.Name = "a"
	reg.Add(a)
	if s, err := reg.Get(""); err != nil || s.Name != "a" {
		t.Errorf("sole-session Get = %v, %v", s, err)
	}
	b := NewSession("b", "", a.Eval())
	reg.Add(b)
	if _, err := reg.Get(""); err == nil {
		t.Error("ambiguous empty name accepted")
	}
	if _, err := reg.Get("nosuch"); !errors.Is(err, claerr.ErrNotFound) {
		t.Errorf("Get(nosuch) = %v, want ErrNotFound", err)
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

// --- serving telemetry (PR 8) ---

func TestRequestIDEcho(t *testing.T) {
	s := newTestServer(t, 1)
	h := s.Handler()

	// A generated ID appears on every response, including errors.
	rec := get(t, h, "/healthz")
	gen := rec.Header().Get("X-Request-Id")
	if gen == "" {
		t.Fatal("no generated X-Request-Id")
	}
	if rec2 := get(t, h, "/healthz"); rec2.Header().Get("X-Request-Id") == gen {
		t.Error("request IDs repeat across requests")
	}

	// An incoming ID is echoed verbatim.
	req := httptest.NewRequest("GET", "/v1/pointsto?name=p", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-42")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "caller-supplied-42" {
		t.Errorf("echoed ID = %q, want caller-supplied-42", got)
	}

	// An oversized incoming ID is replaced, not echoed.
	req = httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-Id", strings.Repeat("x", 400))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); len(got) > 128 || got == "" {
		t.Errorf("oversized ID handling = %q", got)
	}
}

func TestMetricszExposition(t *testing.T) {
	s := newTestServer(t, 2)
	h := s.Handler()

	// Drive mixed traffic: singles, a batch, and errors.
	get(t, h, "/v1/pointsto?name=p")
	get(t, h, "/v1/alias?x=p&y=q")
	get(t, h, "/v1/pointsto?name=nosuch") // 404
	body := marshal(t, Request{Queries: mixedQueries()})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("batch = %d", rec.Code)
	}

	rec = get(t, h, "/metricsz")
	if rec.Code != 200 {
		t.Fatalf("metricsz = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metricsz content type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE serve_requests counter",
		"# TYPE serve_query_pointsto histogram",
		"serve_query_pointsto_bucket{le=\"+Inf\"}",
		"serve_query_pointsto_sum",
		"serve_query_pointsto_count",
		"# TYPE serve_session_test histogram",
		"# TYPE serve_http histogram",
		"serve_errors_4xx 1",
		"# TYPE runtime_goroutines gauge",
		"runtime_heap_inuse_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metricsz missing %q:\n%s", want, out)
		}
	}

	// The per-kind histograms counted: 3 pointsto (2 single + 1 batch;
	// the 404 lookup still evaluates nothing) -- assert counts via the
	// _count series rather than parsing buckets.
	if !strings.Contains(out, "serve_query_alias_count 3") {
		t.Errorf("alias count wrong (want 3 = 1 single + 2 batch):\n%s", out)
	}

	// Structural determinism: the set and order of series is identical
	// across scrapes once timing-valued lines are stripped.
	strip := func(s string) []string {
		var keys []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				keys = append(keys, line)
			}
		}
		return keys
	}
	again := get(t, h, "/metricsz").Body.String()
	if strings.Join(strip(out), "\n") != strings.Join(strip(again), "\n") {
		t.Errorf("metricsz family set changed between scrapes:\n%s\nvs\n%s", out, again)
	}
}

func TestStatszRuntimeHealth(t *testing.T) {
	s := newTestServer(t, 1)
	rec := get(t, s.Handler(), "/statsz")
	var stats struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Gauges["runtime.goroutines"] <= 0 {
		t.Errorf("runtime.goroutines = %d, want > 0", stats.Gauges["runtime.goroutines"])
	}
	if stats.Gauges["runtime.heap_inuse_bytes"] <= 0 {
		t.Errorf("runtime.heap_inuse_bytes = %d, want > 0", stats.Gauges["runtime.heap_inuse_bytes"])
	}
	for _, name := range []string{"runtime.gc_pause_total_ns", "runtime.gc_cycles"} {
		if _, ok := stats.Gauges[name]; !ok {
			t.Errorf("statsz missing gauge %s", name)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for access-log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogJSONL(t *testing.T) {
	var logBuf syncBuffer
	reg := NewRegistry()
	reg.Add(openTestSession(t, 1))
	s := NewServer(reg, ServerConfig{Jobs: 1, AccessLog: &logBuf})
	h := s.Handler()

	get(t, h, "/v1/pointsto?name=p")
	get(t, h, "/v1/pointsto?name=nosuch")
	get(t, h, "/healthz")

	lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log lines = %d, want 3:\n%s", len(lines), logBuf.String())
	}
	statuses := map[int]int{}
	for i, line := range lines {
		var rec struct {
			Time   string `json:"ts"`
			ID     string `json:"id"`
			Method string `json:"method"`
			Path   string `json:"path"`
			Status int    `json:"status"`
			DurNS  int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if rec.ID == "" || rec.Method != "GET" || rec.Path == "" || rec.Time == "" {
			t.Errorf("line %d incomplete: %+v", i, rec)
		}
		statuses[rec.Status]++
	}
	if statuses[200] != 2 || statuses[404] != 1 {
		t.Errorf("statuses = %v, want 2x200 + 1x404", statuses)
	}
}

func TestAccessLogSamplingAndSlow(t *testing.T) {
	var logBuf syncBuffer
	reg := NewRegistry()
	reg.Add(openTestSession(t, 1))
	// Sample 1-in-1000 so only slow requests get through.
	s := NewServer(reg, ServerConfig{Jobs: 1, AccessLog: &logBuf,
		LogSample: 1000, SlowQuery: 1}) // 1ns: everything is slow
	h := s.Handler()
	get(t, h, "/v1/pointsto?name=p")
	get(t, h, "/v1/pointsto?name=p")
	lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow bypass logged %d lines, want 2:\n%s", len(lines), logBuf.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, `"slow":true`) {
			t.Errorf("slow line unflagged: %s", line)
		}
	}

	// With sampling only (no slow threshold), 1-in-2 of 10 requests logs 5.
	var buf2 syncBuffer
	s2 := NewServer(reg, ServerConfig{Jobs: 1, AccessLog: &buf2, LogSample: 2})
	for i := 0; i < 10; i++ {
		get(t, s2.Handler(), "/healthz")
	}
	n := strings.Count(buf2.String(), "\n")
	if n != 5 {
		t.Errorf("1-in-2 sampling of 10 requests logged %d, want 5", n)
	}
}

// TestConcurrentInstrumentedTraffic hammers the instrumented handler
// from many goroutines; under -race this covers the histogram
// registry, the access logger and the middleware counters.
func TestConcurrentInstrumentedTraffic(t *testing.T) {
	var logBuf syncBuffer
	reg := NewRegistry()
	reg.Add(openTestSession(t, 2))
	s := NewServer(reg, ServerConfig{Jobs: 2, AccessLog: &logBuf, SlowQuery: time.Millisecond})
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/pointsto?name=p", nil))
				if rec.Code != 200 {
					t.Errorf("status = %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	rec := get(t, h, "/metricsz")
	if !strings.Contains(rec.Body.String(), "serve_query_pointsto_count 160") {
		t.Errorf("pointsto count after concurrent traffic:\n%s", rec.Body.String())
	}
	for _, line := range strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved access-log line: %s", line)
		}
	}
}

// --- session lifecycle (PR 10) ---

func doReq(t *testing.T, h http.Handler, method, url string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, url, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, url, nil)
	}
	h.ServeHTTP(rec, req)
	return rec
}

// rewriteUnit swaps b.c so copy() stores &extra instead of p: the
// points-to set of r changes observably across the refresh.
func rewriteUnit(t *testing.T, dir string) {
	t.Helper()
	edited := `extern int *p;
int *r;
int extra;
void copy(void) { r = &extra; }
void work(void) { copy(); }
void (*fp)(void);
void install(void) { fp = copy; }
void dispatch(void) { fp(); }
`
	if err := os.WriteFile(filepath.Join(dir, "b.c"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLifecycleREST(t *testing.T) {
	dir := writeTestDir(t)
	s := NewServer(NewRegistry(), ServerConfig{Jobs: 1, Session: Config{Jobs: 1}})
	h := s.Handler()

	// Create.
	body := marshal(t, sessionCreateBody{Name: "live", Path: dir})
	rec := doReq(t, h, "POST", "/v1/sessions", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d %q", rec.Code, rec.Body.String())
	}
	var info SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "live" || info.Kind != "dir" || info.Generation != 1 ||
		!info.Refreshable || info.Stale || info.Syms == 0 {
		t.Fatalf("create info = %+v", info)
	}

	// Duplicate name conflicts.
	if rec := doReq(t, h, "POST", "/v1/sessions", body); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create = %d, want 409", rec.Code)
	}

	// Batched queries report the pinned generation.
	qbody := marshal(t, Request{Session: "live", Queries: []Query{{Kind: "pointsto", Name: "r"}}})
	rec = doReq(t, h, "POST", "/v1/query", qbody)
	if rec.Code != 200 {
		t.Fatalf("query = %d %q", rec.Code, rec.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 1 {
		t.Fatalf("response generation = %d, want 1", resp.Generation)
	}
	if len(resp.Results[0].Objects) != 1 || resp.Results[0].Objects[0].Name != "g" {
		t.Fatalf("pointsto(r) gen 1 = %+v, want {g}", resp.Results[0].Objects)
	}

	// Edit the tree: the info endpoint flags staleness before a refresh.
	rewriteUnit(t, dir)
	rec = doReq(t, h, "GET", "/v1/sessions/live", nil)
	if rec.Code != 200 {
		t.Fatalf("info = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Stale || len(info.Changed) == 0 || info.Generation != 1 {
		t.Fatalf("post-edit info = %+v, want stale at generation 1", info)
	}

	// Refresh swaps in generation 2 and the new answer.
	rec = doReq(t, h, "POST", "/v1/sessions/live/refresh", nil)
	if rec.Code != 200 {
		t.Fatalf("refresh = %d %q", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 || info.Stale {
		t.Fatalf("post-refresh info = %+v, want clean generation 2", info)
	}
	rec = doReq(t, h, "POST", "/v1/query", qbody)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 {
		t.Fatalf("post-refresh response generation = %d, want 2", resp.Generation)
	}
	if len(resp.Results[0].Objects) != 1 || resp.Results[0].Objects[0].Name != "extra" {
		t.Fatalf("pointsto(r) gen 2 = %+v, want {extra}", resp.Results[0].Objects)
	}

	// Single-query endpoints echo the generation as a header.
	rec = doReq(t, h, "GET", "/v1/pointsto?name=r&session=live", nil)
	if got := rec.Header().Get("X-Cla-Generation"); got != "2" {
		t.Fatalf("X-Cla-Generation = %q, want 2", got)
	}

	// Delete retires the session; queries and info then 404.
	if rec := doReq(t, h, "DELETE", "/v1/sessions/live", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete = %d", rec.Code)
	}
	if rec := doReq(t, h, "GET", "/v1/sessions/live", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("info after delete = %d, want 404", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/query", qbody); rec.Code != http.StatusNotFound {
		t.Fatalf("query after delete = %d, want 404", rec.Code)
	}
	if rec := doReq(t, h, "DELETE", "/v1/sessions/live", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete = %d, want 404", rec.Code)
	}
}

// TestRefreshNotSupported: object- and memory-backed sessions reject
// refresh with a usage error instead of silently serving stale data.
func TestRefreshNotSupported(t *testing.T) {
	sess := openTestSession(t, 1)
	prog := sess.Eval().Prog
	claPath := filepath.Join(t.TempDir(), "prog.cla")
	if err := objfile.WriteFile(claPath, prog); err != nil {
		t.Fatal(err)
	}
	obj, err := Open(context.Background(), "obj", claPath, Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := obj.Refresh(context.Background()); err == nil {
		t.Fatal("object session accepted Refresh")
	}
	if obj.Refreshable() || obj.Kind != "object" {
		t.Fatalf("object session: refreshable=%v kind=%q", obj.Refreshable(), obj.Kind)
	}
}

// TestAcquirePinsGeneration: a query holding a generation keeps
// answering from it while a refresh swaps the session forward.
func TestAcquirePinsGeneration(t *testing.T) {
	dir := writeTestDir(t)
	sess, err := Open(context.Background(), "pin", dir, Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, release, err := sess.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if st.Gen != 1 {
		t.Fatalf("acquired generation = %d", st.Gen)
	}

	rewriteUnit(t, dir)
	if _, changed, err := sess.Refresh(context.Background()); err != nil || !changed {
		t.Fatalf("refresh: changed=%v err=%v", changed, err)
	}
	if sess.Generation() != 2 {
		t.Fatalf("session generation = %d, want 2", sess.Generation())
	}
	// The pinned state still answers from generation 1.
	r := st.Eval.Eval(context.Background(), Query{Kind: "pointsto", Name: "r"})
	if len(r.Objects) != 1 || r.Objects[0].Name != "g" {
		t.Fatalf("pinned pointsto(r) = %+v, want the generation-1 {g}", r.Objects)
	}
	release()

	// After close, Acquire fails.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Acquire(); err == nil {
		t.Fatal("Acquire succeeded on a closed session")
	}
}

// TestSessionWatchSwapsGeneration drives the server-side watch loop:
// an edited unit is picked up by polling alone and the serving
// generation advances without any explicit refresh call.
func TestSessionWatchSwapsGeneration(t *testing.T) {
	dir := writeTestDir(t)
	sess, err := Open(context.Background(), "w", dir, Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.StartWatch(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sess.StartWatch(20 * time.Millisecond); err == nil {
		t.Fatal("double StartWatch accepted")
	}
	if !sess.Watching() {
		t.Fatal("session not watching")
	}

	time.Sleep(30 * time.Millisecond) // let the baseline scan land
	rewriteUnit(t, dir)
	deadline := time.Now().Add(5 * time.Second)
	for sess.Generation() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("watch never advanced the generation (still %d)", sess.Generation())
		}
		time.Sleep(10 * time.Millisecond)
	}
	r := sess.Eval().Eval(context.Background(), Query{Kind: "pointsto", Name: "r"})
	if len(r.Objects) != 1 || r.Objects[0].Name != "extra" {
		t.Fatalf("watched pointsto(r) = %+v, want {extra}", r.Objects)
	}
	sess.StopWatch()
	if sess.Watching() {
		t.Fatal("session still watching after StopWatch")
	}
}
