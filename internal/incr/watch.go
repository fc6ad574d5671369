package incr

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"slices"
	"time"

	"cla/internal/driver"
	"cla/internal/parallel"
)

// scan is one stat-level look at a workspace: the stamp of every tracked
// file that exists, and the units its directory lists.
type scan struct {
	stamps map[string]stamp
	units  map[string]bool
}

// drift stats tracked and re-lists dir's units, and returns that scan
// with the paths that differ from prev, sorted: a stamp that moved (the
// consumer's Update re-hashes, so a touch that changed no bytes converges
// to a no-op generation), a file that appeared or vanished, a unit that
// was added. A tracked file prev has no stamp of is compared against
// base, the stamps the last refresh recorded: a header that refresh
// newly read is tracked from then on, and unchanged since, it is not a
// change. A directory with no units is not an error; an unreadable one
// is, and the returned scan then keeps prev's units.
func drift(dir string, tracked []string, prev scan, base map[string]stamp) (scan, []string, error) {
	next := scan{stamps: make(map[string]stamp, len(tracked)), units: prev.units}
	var changed []string
	for _, path := range tracked {
		old, had := prev.stamps[path]
		if !had {
			old, had = base[path]
		}
		fi, err := os.Stat(path)
		if err != nil {
			if had {
				changed = append(changed, path)
			}
			continue
		}
		st := stampOf(fi)
		if !had || old != st {
			changed = append(changed, path)
		}
		next.stamps[path] = st
	}
	listed, err := driver.Units(dir)
	if !errors.As(err, new(*fs.PathError)) {
		err = nil
		next.units = make(map[string]bool, len(listed))
		for _, path := range listed {
			next.units[path] = true
			if !prev.units[path] {
				changed = append(changed, path)
			}
		}
	}
	slices.Sort(changed)
	return next, slices.Compact(changed), err
}

// committed is the scan the last refresh recorded: the stamps it took of
// the files its compile read, and its units.
func (p *Pipeline) committed() scan {
	p.mu.Lock()
	defer p.mu.Unlock()
	units := make(map[string]bool, len(p.units))
	for path := range p.units {
		units[path] = true
	}
	return scan{stamps: p.stamps, units: units}
}

// committedStamps returns the stamps the last refresh recorded. A
// refresh replaces the map rather than writing it.
func (p *Pipeline) committedStamps() map[string]stamp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stamps
}

// Stale probes for drift without rebuilding: one drift check of the
// tracked files and the unit directory against the scan the last refresh
// recorded. It returns the paths that look changed (stat drift, removal,
// or a new unit). A false result is cheap — one stat per tracked file
// and one ReadDir.
func (p *Pipeline) Stale() (bool, []string) {
	c := p.committed()
	_, changed, _ := drift(p.cfg.Dir, p.TrackedFiles(), c, c.stamps)
	return len(changed) > 0, changed
}

// WatchLoop polls p's workspace every interval in the caller's goroutine
// until ctx is done. Each poll is one drift check of the files tracked
// returns (typically p.TrackedFiles) and of the unit directory against
// the previous poll; the first compares against the scan p's last
// refresh recorded, so an edit made before the loop started is found,
// and every poll compares a file it tracks newly (a header an edit
// started to include) against the stamp that refresh took of it, so
// the refresh that read it is not followed by a second one.
// What a poll finds settles for half an interval, so a multi-file save
// triggers one rebuild and a save caught mid-write is picked up again by
// the next poll; then a hinted Update runs and fn is called with the
// outcome. fn also receives poll and refresh errors (with a nil Result);
// the loop keeps running, since a syntax error mid-edit is a normal
// watch-mode state, and a failed refresh is not retried until its files
// change again. A panic in a poll (tracked included), a refresh or fn
// itself is contained and handed to fn as a *parallel.PanicError; a
// panic in fn while it handles that is dropped.
func WatchLoop(ctx context.Context, p *Pipeline, tracked func() []string, interval time.Duration, fn func(*Result, RefreshStats, error)) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
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
	last := p.committed()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		var changed []string
		if err := parallel.Contain(func() (err error) {
			last, changed, err = drift(p.cfg.Dir, tracked(), last, p.committedStamps())
			return err
		}); err != nil {
			report(nil, RefreshStats{}, err)
		}
		if len(changed) > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(interval / 2):
			}
			var (
				res *Result
				st  RefreshStats
			)
			err := parallel.Contain(func() (err error) {
				res, st, err = p.Update(ctx, changed...)
				return err
			})
			report(res, st, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
