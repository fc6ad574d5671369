// Package parallel is the concurrency toolkit threading the CLA pipeline
// across cores: bounded index-parallel loops, contiguous sharding with
// per-worker state, and level-synchronous rounds. Every helper preserves
// deterministic output ordering — workers communicate only through
// index-addressed slots, never through shared accumulators — so running
// with -j 1 and -j N produces identical results. A task's panic is
// contained where it ran and comes back as that task's *PanicError, so a
// fault in one task cannot kill the process that started the batch.
// That makes the returned error the only sign of a bug in a task, so no
// caller may discard it.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cla/internal/obs"
)

// Workers normalizes a -j style job count: values <= 0 select
// runtime.GOMAXPROCS(0).
func Workers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// poolObs holds pre-resolved pool counters so an instrumented batch pays
// one atomic pointer load, not a registry lookup.
type poolObs struct {
	batches *obs.Counter // parallel batches started
	tasks   *obs.Counter // total indexes dispatched
	workers *obs.Gauge   // widest worker fan-out
	queue   *obs.Gauge   // largest batch (queue depth high-water mark)
}

var observer atomic.Pointer[poolObs]

// SetObserver routes pool utilization (batches, tasks, worker fan-out,
// queue depth) into o's pool.* registry entries. Pass nil to detach. The
// pool counters depend on the -j setting by construction, so they are
// deliberately excluded from determinism-sensitive reports.
func SetObserver(o *obs.Observer) {
	if o == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&poolObs{
		batches: o.Counter("pool.batches"),
		tasks:   o.Counter("pool.tasks"),
		workers: o.Gauge("pool.workers.max"),
		queue:   o.Gauge("pool.queue.max"),
	})
}

func (p *poolObs) note(j, n int) {
	if p == nil {
		return
	}
	p.batches.Inc()
	p.tasks.Add(int64(n))
	p.workers.Max(int64(j))
	p.queue.Max(int64(n))
}

// PanicError is a task that panicked: the panic was recovered in the
// worker that ran the task and became the task's error.
type PanicError struct {
	// Value is what the task panicked with.
	Value any
	// Stack is the worker's stack at the panic, panic site included.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task panicked: %v", e.Value)
}

func newPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// ForEach runs fn(0)..fn(n-1) on up to j workers (j <= 0 means
// GOMAXPROCS) and waits for all of them. Every index runs even when an
// earlier one fails, and the returned error is the lowest-indexed
// failure — the same error a sequential loop would have reported first,
// regardless of scheduling. A panicking index fails with a *PanicError
// under the same rule; on one worker it ends the loop like any error.
func ForEach(j, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), j, n, fn)
}

// ForEachCtx is ForEach under a context: each worker checks ctx before
// dispatching the next index, so a cancellation stops the batch promptly
// — indexes already running finish, undispatched ones never start. When
// the context fires, the returned error is the lowest-indexed real
// failure if one occurred, otherwise ctx.Err(). The background context
// adds one nil check per index.
func ForEachCtx(ctx context.Context, j, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	j = Workers(j)
	if j > n {
		j = n
	}
	observer.Load().note(j, n)
	if j == 1 {
		return sequential(ctx, n, fn)
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var canceled atomic.Bool
	// drain runs claimed indexes until none are left or the context
	// fires. Its one deferred recover turns a task's panic into that
	// index's *PanicError and reports true, so the worker drains again
	// for the indexes still unclaimed.
	drain := func() (panicked bool) {
		i := -1
		defer func() {
			if v := recover(); v != nil {
				errs[i] = newPanicError(v)
				panicked = true
			}
		}()
		for {
			if ctx.Err() != nil {
				canceled.Store(true)
				return false
			}
			i = int(next.Add(1))
			if i >= n {
				return false
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for drain() {
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if canceled.Load() {
		return ctx.Err()
	}
	return nil
}

// sequential is ForEachCtx on the calling goroutine: it stops at the
// first failure, a recovered panic included.
func sequential(ctx context.Context, n int, fn func(i int) error) error {
	return Contain(func() error {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// Contain runs fn on the calling goroutine and returns its error, or its
// panic as a *PanicError: the pool's containment, for code that runs
// outside the pool.
func Contain(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(v)
		}
	}()
	return fn()
}

// Shard partitions [0, n) into at most j near-equal contiguous ranges and
// runs fn(worker, lo, hi) for each range on its own goroutine. The worker
// index lets fn own per-worker scratch (epoch arrays, accumulators) that
// is merged deterministically by the caller afterwards. The returned
// error is the lowest-worker failure.
func Shard(j, n int, fn func(worker, lo, hi int) error) error {
	return ShardCtx(context.Background(), j, n, fn)
}

// ShardCtx is Shard under a context; a cancellation stops undispatched
// shards (see ForEachCtx).
func ShardCtx(ctx context.Context, j, n int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	j = Workers(j)
	if j > n {
		j = n
	}
	per := n / j
	rem := n % j
	bounds := make([]int, j+1)
	for w, lo := 0, 0; w < j; w++ {
		hi := lo + per
		if w < rem {
			hi++
		}
		bounds[w], bounds[w+1] = lo, hi
		lo = hi
	}
	return ForEachCtx(ctx, j, j, func(w int) error {
		return fn(w, bounds[w], bounds[w+1])
	})
}

// LevelsCtx runs a sequence of barrier-synchronized levels: for each
// level l in [0, levels), fn is sharded across up to j workers over
// [0, size(l)), and only after every shard of the level returns does the
// optional after(l) hook run on the calling goroutine — the place the
// wave solver merges per-worker buffers in a deterministic order before the
// next level starts. Each level's shard checks ctx (see ShardCtx), and a
// failed level — worker error, after-hook error or cancellation — stops
// before the next level begins. The returned error is the failing
// level's lowest-worker error. A shard's panic is contained as in
// ForEachCtx; one in the after hook, which runs on the calling
// goroutine, is not.
func LevelsCtx(ctx context.Context, j, levels int, size func(level int) int, fn func(level, worker, lo, hi int) error, after func(level int) error) error {
	for l := 0; l < levels; l++ {
		level := l
		err := ShardCtx(ctx, j, size(level), func(w, lo, hi int) error {
			return fn(level, w, lo, hi)
		})
		if err != nil {
			return err
		}
		if after != nil {
			if err := after(level); err != nil {
				return err
			}
		}
	}
	return nil
}
