package cla

// End-to-end test of the clawatch binary: start it over a source
// directory, wait for the generation-1 lint pass, script an edit that
// introduces a finding, and expect a generation-2 pass that reports it.
// SIGTERM must exit cleanly. This is the watch-mode pipeline driven the
// way a user drives it — through the built CLI, over the real filesystem.

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestClawatchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clawatch")
	work := t.TempDir()
	clean := "int g;\nint *p;\nvoid init(void) { p = &g; }\n"
	if err := os.WriteFile(filepath.Join(work, "a.c"), []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(tools["clawatch"], "-interval", "50ms", work)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitFor := func(want string) string {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("clawatch exited before printing %q", want)
				}
				if strings.Contains(line, want) {
					return line
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %q", want)
			}
		}
	}

	if line := waitFor("generation 1"); !strings.Contains(line, "0 findings") {
		t.Errorf("generation 1 = %q, want 0 findings", line)
	}

	// Scripted edit: dereference a pointer that points at nothing. The
	// watcher must pick it up, rebuild, and re-lint. The file is saved
	// the way editors save, write-then-rename, so no poll can observe a
	// half-written file and report it as generation 2.
	dirty := clean + "int **nowhere;\nvoid crash(void) { *nowhere = p; }\n"
	tmp := filepath.Join(work, "a.c.tmp")
	if err := os.WriteFile(tmp, []byte(dirty), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(work, "a.c")); err != nil {
		t.Fatal(err)
	}
	if line := waitFor("generation 2"); strings.Contains(line, " 0 findings") {
		t.Errorf("generation 2 = %q, want a finding", line)
	}
	waitFor("[deref]")

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clawatch exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("clawatch did not exit after SIGTERM")
	}
}

// TestClawatchOnce covers the one-pass CI mode and its clalint-style
// exit codes: 0 when clean, 1 when any check fires.
func TestClawatchOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clawatch")

	clean := t.TempDir()
	if err := os.WriteFile(filepath.Join(clean, "a.c"),
		[]byte("int g;\nint *p;\nvoid init(void) { p = &g; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, tools["clawatch"], "-once", clean)
	if !strings.Contains(out, "generation 1: 0 findings") {
		t.Errorf("clean -once output = %q", out)
	}

	dirty := t.TempDir()
	if err := os.WriteFile(filepath.Join(dirty, "a.c"),
		[]byte("int *x;\nint **nowhere;\nvoid crash(void) { *nowhere = x; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(tools["clawatch"], "-once", dirty)
	b, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err == nil {
		t.Fatalf("dirty -once exited 0:\n%s", b)
	} else if ok := errors.As(err, &ee); !ok || ee.ExitCode() != 1 {
		t.Fatalf("dirty -once err = %v, want exit 1:\n%s", err, b)
	}
	if !strings.Contains(string(b), "[deref]") {
		t.Errorf("dirty -once output = %q, want a deref finding", b)
	}
}
