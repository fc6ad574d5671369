package incr

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cla/internal/parallel"
)

// chanWatcher is a Watcher a test feeds by hand.
type chanWatcher struct {
	events chan Event
	errs   chan error
}

func (w chanWatcher) Events() <-chan Event { return w.events }
func (w chanWatcher) Errors() <-chan error { return w.errs }
func (w chanWatcher) Close() error         { return nil }

// TestWatchContainsPanics: a panic in the poll watcher's scan arrives on
// Errors as a *parallel.PanicError and the watcher keeps scanning; a
// panic in WatchLoop's callback is handed back to the callback as a
// *parallel.PanicError and the loop keeps refreshing.
func TestWatchContainsPanics(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}

	var scans atomic.Int32
	w := NewPollWatcher(dir, func() []string {
		if scans.Add(1) == 2 {
			panic("injected scan fault")
		}
		return p.TrackedFiles()
	}, 10*time.Millisecond)
	var pe *parallel.PanicError
	select {
	case err := <-w.Errors():
		if !errors.As(err, &pe) || pe.Value != "injected scan fault" {
			t.Fatalf("Errors delivered %v, want the scan's contained panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the scan's panic never arrived on Errors")
	}
	for scans.Load() < 4 {
		time.Sleep(5 * time.Millisecond)
	}
	w.Close()

	cw := chanWatcher{events: make(chan Event, 1), errs: make(chan error)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan error, 4)
	var calls atomic.Int32
	go WatchLoop(ctx, p, cw, time.Millisecond, func(_ *Result, _ RefreshStats, err error) {
		if calls.Add(1) == 1 {
			panic("injected callback fault")
		}
		got <- err
	})
	for _, want := range []string{"injected callback fault", ""} {
		cw.events <- Event{Path: dir + "/main.c", Op: OpWrite}
		select {
		case err := <-got:
			if want == "" && err != nil {
				t.Fatalf("refresh after the panic: %v", err)
			}
			if want != "" && (!errors.As(err, &pe) || pe.Value != want) {
				t.Fatalf("callback got %v, want its own contained panic", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the loop stopped")
		}
	}
}
