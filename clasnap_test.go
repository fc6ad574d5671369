package cla

// End-to-end tests of the clasnap binary and claserve's snapshot paths:
// build a snapshot from a source directory, inspect and verify it, serve
// it with -preload (which computes the checks report before READY), and
// confirm staleness is a distinct exit code.

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cla/internal/claerr"
)

func TestClasnapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clasnap", "claserve")
	work := t.TempDir()
	src := filepath.Join(work, "a.c")
	os.WriteFile(src,
		[]byte("int shared;\nint *sp, *tp;\nvoid init(void) { sp = &shared; tp = sp; }\n"), 0o644)
	snap := filepath.Join(work, "a.snap")

	out := run(t, tools["clasnap"], "-o", snap, work)
	if !strings.Contains(out, "symbols") {
		t.Fatalf("clasnap build output: %q", out)
	}
	info := run(t, tools["clasnap"], "-info", snap)
	for _, want := range []string{"solver      pre-transitive", "extmodel    unsound", "source      " + src} {
		if !strings.Contains(info, want) {
			t.Errorf("-info output missing %q:\n%s", want, info)
		}
	}
	if out := run(t, tools["clasnap"], "-verify", snap); !strings.Contains(out, "sources verified") {
		t.Fatalf("-verify output: %q", out)
	}

	// Serve it via -preload and query through the socket.
	sock := filepath.Join(t.TempDir(), "cla.sock")
	cmd := exec.Command(tools["claserve"], "-unix", sock, "-ready", "-preload", snap)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stdout)
	ready := make(chan bool, 1)
	go func() {
		for lines.Scan() {
			if strings.HasPrefix(lines.Text(), "READY") {
				ready <- true
				return
			}
		}
		ready <- false
	}()
	select {
	case ok := <-ready:
		if !ok {
			t.Fatal("claserve exited before READY")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for READY")
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			return net.Dial("unix", sock)
		},
	}}
	get := func(path string) string {
		t.Helper()
		resp, err := client.Get("http://claserve" + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, sb.String())
		}
		return sb.String()
	}
	if body := get("/v1/pointsto?name=sp"); !strings.Contains(body, "shared") {
		t.Errorf("pointsto(sp) over snapshot: %s", body)
	}
	if body := get("/metricsz"); !strings.Contains(body, "serve_snapshot_load_count") {
		t.Errorf("/metricsz missing serve_snapshot_load histogram:\n%s", body)
	}
	// -preload computes the checks report before READY, so the first
	// lint query is answered without a checks run.
	if body := get("/metricsz"); !strings.Contains(body, "serve_checks_count 1\n") {
		t.Errorf("-preload did not run the checks once before READY:\n%s", body)
	}
	get("/v1/lint")
	if body := get("/metricsz"); !strings.Contains(body, "serve_checks_count 1\n") {
		t.Errorf("first lint on a preloaded session ran the checks:\n%s", body)
	}
	cmd.Process.Kill()

	// Staleness: edit the source, expect exit code 3 from -verify and a
	// refused serve without -no-verify.
	os.WriteFile(src, []byte("int shared; int other;\nint *sp;\nvoid init(void) { sp = &shared; }\n"), 0o644)
	vc := exec.Command(tools["clasnap"], "-verify", snap)
	vout, verr := vc.CombinedOutput()
	if verr == nil {
		t.Fatalf("stale -verify succeeded: %s", vout)
	}
	if code := vc.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("stale -verify exit code = %d, want 3\n%s", code, vout)
	}
	sc := exec.Command(tools["claserve"], "-preload", snap)
	sout, serr := sc.CombinedOutput()
	if serr == nil {
		t.Fatalf("stale serve succeeded: %s", sout)
	}
	if code := sc.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("stale serve exit code = %d, want 3\n%s", code, sout)
	}
	if out := run(t, tools["clasnap"], "-o", snap+"2", "-solver", "bitvec", work); !strings.Contains(out, "symbols") {
		t.Fatalf("rebuild output: %q", out)
	}
}

// TestClasnapHeaderEditIsStale: a directory snapshot records the units'
// include closure, so editing a header alone makes it stale.
func TestClasnapHeaderEditIsStale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clasnap")
	src := t.TempDir()
	hdr := filepath.Join(src, "defs.h")
	files := map[string]string{
		hdr:                       "extern int G, H;\nextern int *p;\n",
		filepath.Join(src, "a.c"): "#include \"defs.h\"\nint G, H;\nint *p;\nvoid f(void) { p = &G; }\n",
		filepath.Join(src, "b.c"): "#include \"defs.h\"\nint *r;\nvoid g(void) { r = p; }\n",
	}
	for path, content := range files {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap := filepath.Join(t.TempDir(), "x.snap")
	run(t, tools["clasnap"], "-o", snap, src)
	if out := run(t, tools["clasnap"], "-verify", snap); !strings.Contains(out, "(3 recorded)") {
		t.Fatalf("-verify should record both units and the header: %q", out)
	}
	an, err := OpenSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	an.Close()

	if err := os.WriteFile(hdr, []byte(files[hdr]+"int *q = &H;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(snap, nil); !errors.Is(err, claerr.ErrStale) {
		t.Fatalf("OpenSnapshot after a header edit: got %v, want ErrStale", err)
	}
	vc := exec.Command(tools["clasnap"], "-verify", snap)
	vout, _ := vc.CombinedOutput()
	if code := vc.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("-verify after a header edit: exit %d, want 3\n%s", code, vout)
	}
}
