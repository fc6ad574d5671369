package incr

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"sync"
	"time"

	"cla/internal/driver"
	"cla/internal/parallel"
)

// Op classifies a watcher event.
type Op uint8

const (
	// OpWrite: a tracked file's content looks changed.
	OpWrite Op = 1 + iota
	// OpCreate: a new .c unit appeared in the workspace directory.
	OpCreate
	// OpRemove: a tracked file disappeared.
	OpRemove
	// OpRescan: the watcher lost events (channel overflow) and the
	// consumer should do a full Refresh instead of a hinted Update.
	OpRescan
)

func (op Op) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpCreate:
		return "create"
	case OpRemove:
		return "remove"
	case OpRescan:
		return "rescan"
	}
	return "op?"
}

// Event is one observed file-system change.
type Event struct {
	Path string // empty for OpRescan
	Op   Op
}

// Watcher is the fsnotify-shaped event source the watch loop consumes.
// The polling implementation below is the portable default; an
// inotify/kqueue-backed implementation can drop in behind the same
// interface without touching the pipeline.
type Watcher interface {
	// Events delivers change events until Close.
	Events() <-chan Event
	// Errors delivers scan failures, a panicking scan's as a
	// *parallel.PanicError (the watcher keeps running).
	Errors() <-chan error
	// Close stops the watcher and closes both channels.
	Close() error
}

// PollWatcher watches by periodic stat scans: every interval it stats
// the tracked file set (provided by a callback so it follows the
// pipeline's include closure across generations) and re-lists the
// workspace directory for added units. Stat-level drift (size or mtime)
// raises OpWrite; the consumer's Update re-hashes, so a touch that
// didn't change bytes converges to a no-op generation. A scan that
// panics — in the stat code or the tracked callback — is contained and
// delivered on Errors as a *parallel.PanicError.
type PollWatcher struct {
	dir      string
	tracked  func() []string
	interval time.Duration

	events chan Event
	errs   chan error
	done   chan struct{}
	once   sync.Once

	stamps  map[string]stamp
	units   map[string]bool
	dropped bool
}

// NewPollWatcher starts a poll watcher over dir. tracked returns the
// full file set to stat each tick (typically Pipeline.TrackedFiles);
// the first tick establishes the baseline without emitting events.
func NewPollWatcher(dir string, tracked func() []string, interval time.Duration) *PollWatcher {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	w := &PollWatcher{
		dir:      dir,
		tracked:  tracked,
		interval: interval,
		events:   make(chan Event, 64),
		errs:     make(chan error, 1),
		done:     make(chan struct{}),
		stamps:   map[string]stamp{},
		units:    map[string]bool{},
	}
	w.containedScan(true)
	go w.run()
	return w
}

// Events implements Watcher.
func (w *PollWatcher) Events() <-chan Event { return w.events }

// Errors implements Watcher.
func (w *PollWatcher) Errors() <-chan error { return w.errs }

// Close implements Watcher.
func (w *PollWatcher) Close() error {
	w.once.Do(func() { close(w.done) })
	return nil
}

func (w *PollWatcher) run() {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			close(w.events)
			close(w.errs)
			return
		case <-t.C:
			w.containedScan(false)
		}
	}
}

// containedScan runs one scan and delivers its panic, if any, on Errors;
// it waits for room there, unless the watcher closes.
func (w *PollWatcher) containedScan(baseline bool) {
	err := parallel.Contain(func() error {
		w.scan(baseline)
		return nil
	})
	if err != nil {
		select {
		case w.errs <- err:
		case <-w.done:
		}
	}
}

// emit queues ev without ever blocking the scan loop; on overflow it
// degrades to a single pending rescan so no change is silently lost.
func (w *PollWatcher) emit(ev Event) {
	if w.dropped {
		return // a rescan is already owed; individual events are moot
	}
	select {
	case w.events <- ev:
	default:
		w.dropped = true
	}
}

func (w *PollWatcher) scan(baseline bool) {
	// Retry the owed rescan first: until it is delivered, per-file
	// events stay suppressed.
	if w.dropped {
		select {
		case w.events <- Event{Op: OpRescan}:
			w.dropped = false
		default:
			return
		}
	}

	next := make(map[string]stamp)
	for _, path := range w.tracked() {
		fi, err := os.Stat(path)
		if err != nil {
			if _, had := w.stamps[path]; had && !baseline {
				w.emit(Event{Path: path, Op: OpRemove})
			}
			continue
		}
		st := stamp{size: fi.Size(), mtime: fi.ModTime().UnixNano()}
		if prev, had := w.stamps[path]; !baseline && (!had || prev != st) {
			w.emit(Event{Path: path, Op: OpWrite})
		}
		next[path] = st
	}
	w.stamps = next

	units := make(map[string]bool)
	// A directory with no units is not a scan error; an unreadable one is.
	listed, err := driver.Units(w.dir)
	if errors.As(err, new(*fs.PathError)) {
		select {
		case w.errs <- err:
		default:
		}
		return
	}
	for _, path := range listed {
		units[path] = true
		if !baseline && !w.units[path] {
			w.emit(Event{Path: path, Op: OpCreate})
		}
	}
	w.units = units
}

// WatchLoop drives p from w until ctx is done: events are coalesced for
// one settle interval (so a multi-file save triggers one rebuild), then
// the pipeline refreshes — a hinted Update normally, a full Refresh
// after watcher overflow — and fn is called with the outcome. fn also
// receives scan and refresh errors (with a nil Result); the loop keeps
// running, since a syntax error mid-edit is a normal watch-mode state.
// A panic in the loop's staleness probe, in a refresh or in fn itself is
// contained and handed to fn as a *parallel.PanicError; a panic in fn
// while it handles that is dropped.
func WatchLoop(ctx context.Context, p *Pipeline, w Watcher, settle time.Duration, fn func(*Result, RefreshStats, error)) {
	if settle <= 0 {
		settle = 100 * time.Millisecond
	}
	report := func(res *Result, st RefreshStats, err error) {
		if fn == nil {
			return
		}
		perr := parallel.Contain(func() error {
			fn(res, st, err)
			return nil
		})
		if perr != nil {
			parallel.Contain(func() error {
				fn(nil, RefreshStats{}, perr)
				return nil
			})
		}
	}
	timer := time.NewTimer(settle)
	if !timer.Stop() {
		<-timer.C
	}
	var pending []string
	rescan := false
	// Catch-up probe: an edit that lands between the pipeline's last
	// build and the watcher's baseline scan is invisible to the watcher
	// (its baseline already has the new stamps), so re-hash against the
	// pipeline's recorded content before trusting the event stream. The
	// probe may catch a save mid-write, so what it finds settles like
	// any watcher event instead of rebuilding at once.
	var (
		stale   bool
		changed []string
	)
	if err := parallel.Contain(func() error {
		stale, changed = p.Stale()
		return nil
	}); err != nil {
		report(nil, RefreshStats{}, err)
	} else if stale {
		pending = changed
		timer.Reset(settle)
	}
	for {
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case err, ok := <-w.Errors():
			if !ok {
				return
			}
			report(nil, RefreshStats{}, err)
		case ev, ok := <-w.Events():
			if !ok {
				return
			}
			if ev.Op == OpRescan {
				rescan = true
			} else {
				pending = append(pending, ev.Path)
			}
			timer.Reset(settle)
		case <-timer.C:
			var (
				res *Result
				st  RefreshStats
				err error
			)
			err = parallel.Contain(func() (err error) {
				if rescan {
					res, st, err = p.Refresh(ctx)
				} else {
					res, st, err = p.Update(ctx, pending...)
				}
				return err
			})
			pending, rescan = nil, false
			report(res, st, err)
		}
	}
}
