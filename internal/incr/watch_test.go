package incr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cla/internal/parallel"
)

// TestWatchContainsPanics: a panic in a poll's tracked-files callback
// reaches WatchLoop's callback once, as a *parallel.PanicError with its
// stack, and the loop keeps polling; a panic in the callback itself is
// handed back to the callback, and a later edit still lands.
func TestWatchContainsPanics(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}

	var scans, calls atomic.Int32
	got := make(chan watchOutcome, 16) // never fills: the test expects 3 callbacks
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	defer func() { cancel(); <-done }()
	go func() {
		defer close(done)
		WatchLoop(ctx, p, func() []string {
			if scans.Add(1) == 2 {
				panic("injected scan fault")
			}
			return p.TrackedFiles()
		}, 10*time.Millisecond, func(r *Result, _ RefreshStats, err error) {
			if calls.Add(1) == 2 {
				panic("injected callback fault")
			}
			got <- watchOutcome{r, err}
		})
	}()
	next := func() watchOutcome {
		t.Helper()
		select {
		case oc := <-got:
			return oc
		case <-time.After(5 * time.Second):
			t.Fatal("the loop stopped")
		}
		return watchOutcome{}
	}
	var pe *parallel.PanicError
	if oc := next(); !errors.As(oc.err, &pe) || pe.Value != "injected scan fault" ||
		!strings.Contains(string(pe.Stack), "TestWatchContainsPanics") {
		t.Fatalf("callback got %v, want the scan's contained panic with its stack", oc.err)
	}
	for scans.Load() < 4 {
		time.Sleep(5 * time.Millisecond)
	}

	// The first edit's outcome panics in the callback and comes back as
	// that panic; the second lands as generation 3.
	for i, want := range []string{"injected callback fault", ""} {
		time.Sleep(20 * time.Millisecond) // let mtime move
		edit(t, dir, "main.c", baseTree["main.c"]+fmt.Sprintf("int pad%d;\n", i))
		oc := next()
		if want != "" {
			if !errors.As(oc.err, &pe) || pe.Value != want {
				t.Fatalf("callback got %v, want its own contained panic", oc.err)
			}
			continue
		}
		if oc.err != nil || oc.res == nil || oc.res.Gen != 3 {
			t.Fatalf("edit after the panics = %+v, %v; want generation 3", oc.res, oc.err)
		}
	}
	select {
	case oc := <-got:
		t.Fatalf("unexpected callback %+v, %v", oc.res, oc.err)
	default:
	}
}
