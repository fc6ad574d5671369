package linker

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cla/internal/obs"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/srchash"
)

// This file implements the incremental relink: the same pairwise tree
// merge as LinkParallel, but with every internal node of the tree
// memoized by the content keys of the units below it. When one unit of
// an N-unit workspace recompiles, only the O(log N) merges on its
// root path re-run; every clean subtree is reused by pointer from the
// previous generation. The output is byte-identical to a from-scratch
// link because Link is deterministic and a memoized node caches exactly
// the merge of its (unchanged) inputs.

// MergeCache memoizes subtree merges across generations of an
// incremental relink. It is double-buffered: each LinkTreeMemo call
// records the nodes of its own tree (reused or fresh) into a new
// generation and drops the one before the previous, so memory stays
// bounded by two link trees regardless of edit history. Cached programs
// are shared across generations and must be treated as immutable — the
// pipeline clones before mutating (extern models), matching the rest of
// the toolkit's post-link contract. Safe for concurrent use.
type MergeCache struct {
	mu   sync.Mutex
	prev map[uint64]*prim.Program
	next map[uint64]*prim.Program
}

// NewMergeCache returns an empty merge cache.
func NewMergeCache() *MergeCache {
	return &MergeCache{prev: map[uint64]*prim.Program{}}
}

func (c *MergeCache) get(key uint64) (*prim.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.next[key]; ok {
		return p, true
	}
	p, ok := c.prev[key]
	return p, ok
}

func (c *MergeCache) put(key uint64, p *prim.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next[key] = p
}

// begin opens a new generation; rotate commits it.
func (c *MergeCache) begin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next = make(map[uint64]*prim.Program)
}

func (c *MergeCache) rotate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prev, c.next = c.next, nil
}

// TreeStats reports one LinkTreeMemo call's work split.
type TreeStats struct {
	// Merges is the number of pairwise merges actually performed;
	// Reused is the number served from the cache.
	Merges, Reused int
}

// mergeKey derives an internal node's identity from its children's.
// The constant seed separates a merge node from a leaf or passthrough
// carrying the same key.
func mergeKey(l, r uint64) uint64 {
	h := srchash.FoldU64(srchash.Offset(), 0x6d65726765) // "merge"
	h = srchash.FoldU64(h, l)
	return srchash.FoldU64(h, r)
}

// LinkTreeMemo is the pairwise tree merge behind LinkParallel, the
// driver's link and the incremental relink. Its output is byte-identical
// to the sequential left fold of Link. With a cache, subtree merges whose
// inputs carry unchanged content keys are served from it: keys[i] must
// identify units[i]'s full content (the incremental pipeline derives it
// from the unit's source hash, include closure and compile options), and
// equal keys across calls promise equal databases. A nil cache takes nil
// keys and merges everything.
//
// Pairs within a round merge on up to jobs workers. Under an observer
// the whole merge runs inside a "link" span, and each fresh pairwise
// merge gets its own span on a track keyed by the merge's position in
// its round — not by which worker ran it — so the recorded span
// structure is identical at every jobs setting; cache hits are not
// traced, as they do no work. Uncached, unobserved links of two or fewer
// units, or on one worker, take the sequential fold directly.
func LinkTreeMemo(units []*prim.Program, keys []uint64, jobs int,
	cache *MergeCache, o *obs.Observer) (*prim.Program, TreeStats, error) {
	var st TreeStats
	if cache != nil && len(units) != len(keys) {
		return nil, st, fmt.Errorf("linker: %d units with %d keys", len(units), len(keys))
	}
	sp := o.Start("link")
	defer sp.End()
	o.SetCounter("link.units", int64(len(units)))
	if cache == nil && (len(units) <= 2 || (o == nil && parallel.Workers(jobs) == 1)) {
		p, err := Link(units)
		return p, st, err
	}
	if cache != nil {
		cache.begin()
		defer cache.rotate()
	}
	merges := o.Counter("link.merges")
	var done, reused atomic.Int64
	cur := append([]*prim.Program(nil), units...)
	ck := make([]uint64, len(units)) // all zero without a cache
	copy(ck, keys)
	for round := 0; len(cur) > 1; round++ {
		next := make([]*prim.Program, (len(cur)+1)/2)
		nk := make([]uint64, len(next))
		r := round
		err := parallel.ForEach(jobs, len(next), func(i int) error {
			if 2*i+1 >= len(cur) {
				// Odd tail: carried up unchanged, key and all.
				next[i], nk[i] = cur[2*i], ck[2*i]
				return nil
			}
			key := mergeKey(ck[2*i], ck[2*i+1])
			nk[i] = key
			if cache != nil {
				if p, ok := cache.get(key); ok {
					cache.put(key, p)
					next[i] = p
					reused.Add(1)
					return nil
				}
			}
			msp := o.StartTrack(i+1, fmt.Sprintf("merge r%d.%d", r, i))
			defer msp.End()
			p, err := Link([]*prim.Program{cur[2*i], cur[2*i+1]})
			if err != nil {
				return err
			}
			merges.Inc()
			done.Add(1)
			if cache != nil {
				cache.put(key, p)
			}
			next[i] = p
			return nil
		})
		st.Merges, st.Reused = int(done.Load()), int(reused.Load())
		if err != nil {
			return nil, st, err
		}
		cur, ck = next, nk
	}
	if len(cur) == 1 && len(units) > 1 {
		return cur[0], st, nil
	}
	// Zero or one unit: the plain link normalizes (and copies) it, so
	// callers never alias a unit database as the linked program.
	p, err := Link(cur)
	return p, st, err
}
