package cla

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func buildServeAnalysis(t *testing.T) *Analysis {
	t.Helper()
	db, err := CompileSource("serve.c", `
int g; int mirror;
int *p, *q;
void set(void) { p = &g; q = &g; }
void reflect(void) { mirror = g; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestAnalysisQuery(t *testing.T) {
	an := buildServeAnalysis(t)
	results, err := an.Query(context.Background(), []Query{
		{Kind: "pointsto", Name: "p"},
		{Kind: "alias", X: "p", Y: "q"},
		{Kind: "callgraph"},
		{Kind: "modref", Func: "set"},
		{Kind: "dependence", Target: "g"},
		{Kind: "lint"},
	})
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
	if len(results[4].Dependents) == 0 {
		t.Error("dependence(g) found no dependents")
	}
}

// TestAnalysisQueryFileBacked runs the same batch against an AnalyzeFileCtx
// analysis, which must materialize the program before serving so queries
// never race on the reader's demand-load state.
func TestAnalysisQueryFileBacked(t *testing.T) {
	an := buildServeAnalysis(t)
	path := filepath.Join(t.TempDir(), "serve.cla")
	if err := an.Database().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fan, err := AnalyzeFileCtx(context.Background(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fan.Close()
	results, err := fan.Query(context.Background(), []Query{
		{Kind: "pointsto", Name: "p"},
		{Kind: "lint"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || len(results[0].Objects) != 1 {
		t.Errorf("file-backed pointsto(p) = %+v", results[0])
	}
	if results[1].Err != nil {
		t.Errorf("file-backed lint: %s", results[1].Err.Message)
	}
}

func TestAnalysisQueryNotFound(t *testing.T) {
	an := buildServeAnalysis(t)
	results, err := an.Query(context.Background(), []Query{{Kind: "pointsto", Name: "nosuch"}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[0].Err.Status != http.StatusNotFound {
		t.Errorf("pointsto(nosuch) = %+v, want 404 error body", results[0].Err)
	}
}

// TestServeHTTP round-trips the public Serve API over a real TCP
// listener, then drains it gracefully.
func TestServeHTTP(t *testing.T) {
	an := buildServeAnalysis(t)
	srv, err := NewQueryServer(an, &ServeOptions{SessionName: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"session":"unit","queries":[{"kind":"alias","x":"p","y":"q"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Session string `json:"session"`
		Results []struct {
			Alias *bool `json:"alias"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.Session != "unit" || len(qr.Results) != 1 || qr.Results[0].Alias == nil || !*qr.Results[0].Alias {
		t.Fatalf("query response = %+v", qr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestCompileDirIncludeDirs is the regression test for CompileDirCtx
// dropping Options.IncludeDirs: a header outside the compile dir must be
// reachable through the option.
func TestCompileDirIncludeDirs(t *testing.T) {
	src := t.TempDir()
	inc := t.TempDir()
	if err := os.WriteFile(filepath.Join(inc, "ext.h"), []byte("extern int g;\nextern int *p;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code := "#include \"ext.h\"\nint g; int *p;\nvoid f(void) { p = &g; }\n"
	if err := os.WriteFile(filepath.Join(src, "main.c"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := CompileDirCtx(context.Background(), src, nil); err == nil {
		t.Fatal("compile without IncludeDirs should fail to find ext.h")
	}
	db, err := CompileDirCtx(context.Background(), src, &Options{IncludeDirs: []string{inc}})
	if err != nil {
		t.Fatalf("compile with IncludeDirs: %v", err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pts := an.PointsToName("p"); len(pts) != 1 || pts[0].Name() != "g" {
		t.Errorf("pts(p) = %v, want {g}", pts)
	}
}

func TestPublicCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.c"), []byte("int x;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CompileDirCtx(ctx, dir, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("CompileDirCtx(canceled) = %v, want context.Canceled", err)
	}

	db, err := CompileSource("c.c", "int v, *p;\nvoid f(void) { p = &v; }\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AnalyzeCtx(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeCtx(canceled) = %v, want context.Canceled", err)
	}
	if _, err := db.AnalyzeCtx(ctx, &AnalyzeOptions{Algorithm: WorklistAndersen}); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeCtx(canceled, worklist) = %v, want context.Canceled", err)
	}

	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Query(ctx, []Query{{Kind: "pointsto", Name: "p"}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Query(canceled) = %v, want context.Canceled", err)
	}
}

// TestTypedErrors pins the public error contract: phase classification
// via errors.As and sentinel matching via errors.Is.
func TestTypedErrors(t *testing.T) {
	_, err := CompileSource("bad.c", "int ;;;garbage(", nil)
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("compile error is %T, want *cla.Error", err)
	}
	if ce.Phase != PhaseCompile {
		t.Errorf("phase = %q, want %q", ce.Phase, PhaseCompile)
	}

	an := buildServeAnalysis(t)
	_, err = an.DependenceByName("nosuch", nil)
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("DependenceByName(nosuch) = %v, want ErrNotFound", err)
	}
	if !errors.As(err, &ce) || ce.Phase != PhaseQuery {
		t.Errorf("DependenceByName error phase = %v", err)
	}

	_, err = OpenFile(filepath.Join(t.TempDir(), "missing.cla"))
	if !errors.As(err, &ce) || ce.Phase != PhaseObject {
		t.Errorf("OpenFile(missing) = %v, want PhaseObject", err)
	}
}
