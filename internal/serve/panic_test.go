package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cla/internal/incr"
	"cla/internal/obs"
	"cla/internal/prim"
	"cla/internal/pts"
)

// panicResult is a solved result whose every points-to query panics.
type panicResult struct{ pts.Result }

func (panicResult) PointsTo(prim.SymID) []prim.SymID { panic("injected query fault") }

// TestQueryPanicLogsStackOnce: a query that panics fails with its
// message only, while the server's error log gets exactly one record
// carrying the stack, for a single GET and for a batch alike; the server
// keeps answering.
func TestQueryPanicLogsStackOnce(t *testing.T) {
	good := openTestSession(t, 1).Eval()
	bad := NewSession("bad", "", NewEvaluator(good.Prog, good.Src, panicResult{good.Res}, 2))
	reg := NewRegistry()
	reg.Add(bad)
	var logBuf syncBuffer
	s := NewServer(reg, ServerConfig{Jobs: 2, Session: Config{ErrorLog: obs.NewLogger(&logBuf)}})
	h := s.Handler()

	body := marshal(t, Request{Queries: []Query{{Kind: "pointsto", Name: "p"}}})
	for _, do := range []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder { return get(t, h, "/v1/pointsto?name=p") },
		func() *httptest.ResponseRecorder { return doReq(t, h, "POST", "/v1/query", body) },
	} {
		before := strings.Count(logBuf.String(), "\n")
		rec := do()
		if rec.Code < 400 || !strings.Contains(rec.Body.String(), "injected query fault") ||
			strings.Contains(rec.Body.String(), "goroutine") {
			t.Fatalf("response %d %q: want an error with the message and no stack", rec.Code, rec.Body.String())
		}
		lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
		if len(lines) != before+1 {
			t.Fatalf("error log has %d new records, want 1:\n%s", len(lines)-before, logBuf.String())
		}
		var r panicRecord
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if r.Event != "panic" || r.Op != "query" || r.Session != "bad" ||
			!strings.Contains(r.Error, "injected query fault") || !strings.Contains(r.Stack, "panicResult.PointsTo") {
			t.Fatalf("record %+v", r)
		}
	}
	if rec := get(t, h, "/healthz"); rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte("ok")) {
		t.Fatalf("healthz after panics = %d %q", rec.Code, rec.Body.String())
	}
}

// injectWatchFault is the panic a test's watch poll raises.
func injectWatchFault() { panic("injected watch fault") }

// TestWatchPanicLogsStackOnce: a panic in the watch loop's poll is
// contained — the error log gets one record carrying its stack — and
// the session keeps watching and picks up a later edit.
func TestWatchPanicLogsStackOnce(t *testing.T) {
	var scans atomic.Int32
	plain := trackedFiles
	defer func() { trackedFiles = plain }()
	trackedFiles = func(p *incr.Pipeline) []string {
		if scans.Add(1) == 2 {
			injectWatchFault()
		}
		return plain(p)
	}
	dir := writeTestDir(t)
	var logBuf syncBuffer
	sess, err := Open(context.Background(), "w", dir, Config{Jobs: 1, ErrorLog: obs.NewLogger(&logBuf)})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.StartWatch(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for logBuf.String() == "" {
		if time.Now().After(deadline) {
			t.Fatal("no error log record for the scan's panic")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rewriteUnit(t, dir)
	for sess.Generation() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("watch stopped after the panic (generation %d)", sess.Generation())
		}
		time.Sleep(10 * time.Millisecond)
	}
	sess.StopWatch()
	lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("error log has %d records, want 1:\n%s", len(lines), logBuf.String())
	}
	var r panicRecord
	if err := json.Unmarshal([]byte(lines[0]), &r); err != nil {
		t.Fatal(err)
	}
	if r.Event != "panic" || r.Op != "watch" || r.Session != "w" ||
		!strings.Contains(r.Error, "injected watch fault") || !strings.Contains(r.Stack, "injectWatchFault") {
		t.Fatalf("record %+v", r)
	}
}
