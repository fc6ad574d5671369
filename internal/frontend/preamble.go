package frontend

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cla/internal/cc"
	"cla/internal/cpp"
	"cla/internal/ctypes"
	"cla/internal/prim"
)

// Preambles memoizes the leading includes of a workspace's units: an
// #include reached before the unit's own text has produced any token,
// like the shared header every unit of a project starts with. The first
// unit to reach a header preprocesses and parses it once; every later
// unit that reaches it in the same state restores the preprocessor's
// state after it and starts its translation unit with the header's
// shared, read-only top-level declarations, parsing only its own text.
// The entry also holds the header's checked file scope and its lowered
// prefix, so the unit type-checks only its own declarations from that
// scope and lowers them as the prefix's continuation, reading the
// prefix in place and laying out only the entries it uses. A unit that
// writes header state the header's own lowering reads (keepsPrefix,
// CheckFrom's tag rule) is checked and lowered over the whole
// declaration list instead. Either way the programs are identical to CompileSource's.
//
// An entry is keyed by the previous leading include's key (so a second
// leading include is keyed after the first), the preprocessor's state
// at the #include (which holds the options' defines) and the loads the
// #include made to resolve the header: each name tried, and the path it
// resolved to or its failure. Units whose quoted #include probes
// different directories first thus get a slot each. A memo serves one
// workspace, whose #include search path is fixed. A hit is valid only
// if every load the header made — the include's own resolution, nested
// includes and failed probes alike — gives the same result through the
// unit's own loader, in order, and the entry was built on the unit's
// previous entry. Only a header that preprocesses
// cleanly and parses into whole declarations is stored; any other
// compiles exactly as CompileSource does.
//
// A Preambles is safe for concurrent use. Each key is filled once;
// units needing it meanwhile wait for the fill. A stale entry (a header
// edit) is replaced. An entry no unit but its filler has used yet is
// unshared: the memo keeps only the maxUnshared latest of those, so a
// workspace whose units each start with their own header holds a few
// headers' declarations, not one per unit. Sweep drops the keys no
// compile has used since the previous Sweep and the unshared entries,
// so such a workspace keeps nothing between compiles.
type Preambles struct {
	mu    sync.Mutex
	slots map[preambleKey]*slot
	epoch uint64 // Sweep count; a slot records the epoch it was last used in
	// unshared lists the published cells that may still be unshared,
	// oldest first.
	unshared []filled

	hits, misses, rechecks atomic.Int64
}

// maxUnshared bounds the unshared entries the memo keeps. A shared
// header's entry stays unshared only until its second unit looks it up,
// so a few slots cover the units compiling at once.
const maxUnshared = 4

// filled is a published cell of a slot.
type filled struct {
	s *slot
	c *cell
}

// NewPreambles returns an empty memo.
func NewPreambles() *Preambles {
	return &Preambles{slots: map[preambleKey]*slot{}}
}

// Counts returns how many leading includes were served from the memo
// (hits) and how many were preprocessed (misses) so far, and how many
// units that used the memo were checked and lowered over their whole
// declaration list because they wrote header state (rechecks).
func (m *Preambles) Counts() (hits, misses, rechecks int64) {
	return m.hits.Load(), m.misses.Load(), m.rechecks.Load()
}

// Sweep drops every key that no compile has looked up since the last
// Sweep, and every key whose entries served no unit but their filler, so
// the memo holds what the latest compiles shared. It is meant for
// between compiles: a key it drops while a compile uses it is only
// filled again.
func (m *Preambles) Sweep() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, s := range m.slots {
		if s.used != m.epoch || !s.shared.Load() {
			delete(m.slots, k)
		}
	}
	m.unshared = nil
	m.epoch++
}

type preambleKey struct {
	parent  *slot  // the previous leading include's slot; nil for the first
	state   string // cpp.Preprocessor.StateKey at the #include
	include string // the #include's own loads, by includeKey
}

// slot holds one key's current cell.
type slot struct {
	cur  *cell // nil while no fill is published or running
	used uint64
	// shared records that an entry of the slot was found valid by a unit
	// other than the one that filled it.
	shared atomic.Bool
}

// cell is one fill of a key. done closes when e is published; a nil e
// means the fill was abandoned (it panicked).
type cell struct {
	done chan struct{}
	e    *preamble
}

// preamble is one immutable memo entry.
type preamble struct {
	parent *preamble // the entry this one's state and scope start from
	loads  []load    // the loader calls the header made, in order
	// ok reports that the header was stored: it preprocessed cleanly and
	// parsed into whole declarations. An entry that is not ok only saves
	// later units the attempt.
	ok      bool
	state   *cpp.State    // the preprocessor's state after the header
	decls   []cc.ExtDecl  // the declarations of the chain up to this header
	scope   cc.Scope      // the parser's file scope after them
	checked *ctypes.Scope // the checker's file scope after them
	lowered *builder      // their lowered prefix
	fp      uint64        // the chain's content fingerprint (chainFingerprint)
}

// load is one call of a cpp.Loader and its result.
type load struct {
	name, path, content string
	failed              bool
}

// recLoader records the calls made through it.
type recLoader struct {
	inner cpp.Loader
	loads []load
}

func (l *recLoader) Load(name string) (string, string, error) {
	content, path, err := l.inner.Load(name)
	l.loads = append(l.loads, load{name: name, path: path, content: content, failed: err != nil})
	return content, path, err
}

// errNoPreamble aborts a compile whose leading include was preprocessed
// for the memo but cannot be stored; the unit is then compiled without
// the memo.
var errNoPreamble = errors.New("frontend: leading include not memoizable")

// lookup returns the key's slot and current cell, creating a cell for
// the caller to fill when there is none (fill is true).
func (m *Preambles) lookup(k preambleKey) (s *slot, c *cell, fill bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s = m.slots[k]
	if s == nil {
		s = &slot{}
		m.slots[k] = s
	}
	s.used = m.epoch
	if s.cur == nil {
		s.cur = &cell{done: make(chan struct{})}
		return s, s.cur, true
	}
	return s, s.cur, false
}

// replace swaps the stale cell for a new one for the caller to fill,
// unless another unit replaced it already: then it returns that cell.
func (m *Preambles) replace(s *slot, stale *cell) (c *cell, fill bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.cur == stale || s.cur == nil {
		s.cur = &cell{done: make(chan struct{})}
		return s.cur, true
	}
	return s.cur, false
}

// publish completes a fill with e, or abandons it when e is nil.
func (m *Preambles) publish(s *slot, c *cell, e *preamble) {
	m.mu.Lock()
	if e == nil {
		if s.cur == c {
			s.cur = nil
		}
	} else {
		m.unshared = append(m.unshared, filled{s, c})
		m.trim()
	}
	m.mu.Unlock()
	c.e = e
	close(c.done)
}

// trim forgets the cells that became shared or were replaced, and drops
// the oldest unshared entries beyond maxUnshared; their keys are filled
// again when next used.
func (m *Preambles) trim() {
	live := m.unshared[:0]
	for _, f := range m.unshared {
		if f.s.cur == f.c && !f.s.shared.Load() {
			live = append(live, f)
		}
	}
	if n := len(live) - maxUnshared; n > 0 {
		for _, f := range live[:n] {
			f.s.cur = nil
		}
		live = append(live[:0], live[n:]...)
	}
	clear(m.unshared[len(live):])
	m.unshared = live
}

// preambleRun is one unit's use of the memo: the preprocessor's Leading
// hook and the chain of entries the unit's leading includes matched.
type preambleRun struct {
	m    *Preambles
	pp   *cpp.Preprocessor
	opts Options
	rec  *recLoader
	mark int // loads made before the current #include
	slot *slot
	// entry is the last leading include's entry, nil before the first.
	entry *preamble
	stop  bool // a leading include was preprocessed as usual
}

func newPreambleRun(m *Preambles, pp *cpp.Preprocessor, opts Options) *preambleRun {
	r := &preambleRun{m: m, pp: pp, opts: opts, rec: &recLoader{inner: pp.Loader}}
	pp.Loader = r.rec
	pp.Leading = r.include
	return r
}

// include is the Leading hook. It serves the header from the memo, or
// fills the memo with it, or declines it; after one declined leading
// include it declines the rest.
func (r *preambleRun) include(path, content string) (bool, error) {
	if r.stop {
		return false, nil
	}
	resolved := len(r.rec.loads) // the #include's own loads end here
	k := preambleKey{parent: r.slot, state: r.pp.StateKey(), include: includeKey(r.rec.loads[r.mark:])}
	s, c, fill := r.m.lookup(k)
	for try := 0; ; try++ {
		// Forget the loads a failed validation replayed, so a fill
		// records each of the header's loads once.
		r.rec.loads = r.rec.loads[:resolved]
		if fill {
			return r.fill(s, c, k.state, path, content)
		}
		<-c.done
		if e := c.e; e != nil && r.valid(e) {
			s.shared.Store(true)
			if !e.ok {
				break
			}
			r.m.hits.Add(1)
			r.pp.SetState(e.state)
			r.use(s, e)
			return true, nil
		}
		if try == 1 {
			break
		}
		c, fill = r.m.replace(s, c)
	}
	r.m.misses.Add(1)
	r.stop = true
	return false, nil
}

// includeKey renders an #include's loads for preambleKey: each name
// tried and the path it resolved to, or its failure. The content is not
// part of it; valid compares that.
func includeKey(loads []load) string {
	var b strings.Builder
	for _, l := range loads {
		b.WriteString(l.name)
		if l.failed {
			b.WriteString("\x00!\x00")
		} else {
			b.WriteString("\x00=" + l.path + "\x00")
		}
	}
	return b.String()
}

// valid reports whether e holds for this unit: it was built on the
// unit's previous entry, and its loads give the same results through the
// unit's loader — the ones this #include made already, then the rest
// in order. It stops at the first load that differs, so it makes only
// calls that preprocessing the header would make too.
func (r *preambleRun) valid(e *preamble) bool {
	if e.parent != r.entry {
		return false
	}
	made := r.rec.loads[r.mark:]
	if len(made) > len(e.loads) || !slices.Equal(made, e.loads[:len(made)]) {
		return false
	}
	for _, want := range e.loads[len(made):] {
		r.rec.Load(want.name)
		if r.rec.loads[len(r.rec.loads)-1] != want {
			return false
		}
	}
	return true
}

// fill preprocesses, parses, checks and lowers the header for the memo
// and publishes the entry. The check and the lowering run over the
// chain's whole declaration list, with the filler's options. A header
// that cannot be stored is published as an entry that is not ok, and
// the unit's compile starts over without the memo. state is the
// preprocessor's StateKey at the #include.
func (r *preambleRun) fill(s *slot, c *cell, state, path, content string) (bool, error) {
	r.m.misses.Add(1)
	var e *preamble
	defer func() { r.m.publish(s, c, e) }()
	f := &preamble{parent: r.entry}
	var (
		scope cc.Scope
		decls []cc.ExtDecl
	)
	if r.entry != nil {
		scope, decls = r.entry.scope, r.entry.decls
	}
	toks, err := r.pp.Header(path, content)
	f.loads = slices.Clone(r.rec.loads[r.mark:])
	var unit *cc.TranslationUnit
	if err == nil {
		unit, f.scope, err = cc.ParseTokensFrom(path, toks, scope)
	}
	if err != nil {
		e = f
		return false, errNoPreamble
	}
	f.ok = true
	f.fp = chainFingerprint(r.chain(), state, f.loads)
	f.state = r.pp.State()
	f.decls = slices.Clip(append(decls, unit.Decls...))
	ck := ctypes.Check(&cc.TranslationUnit{Name: path, Decls: f.decls})
	f.checked, f.lowered = ck.Scope(), lowerPrefix(ck, r.opts)
	e = f
	r.use(s, e)
	return true, nil
}

func (r *preambleRun) use(s *slot, e *preamble) {
	r.slot, r.entry, r.mark = s, e, len(r.rec.loads)
}

// chain returns the content fingerprint of the unit's memoized leading
// includes, 0 for none.
func (r *preambleRun) chain() uint64 {
	if r == nil || r.entry == nil {
		return 0
	}
	return r.entry.fp
}

// parse parses the unit's own tokens after its memoized leading
// includes.
func (r *preambleRun) parse(name string, toks []cc.Token) (*cc.TranslationUnit, error) {
	if r == nil || r.entry == nil {
		return cc.ParseTokens(name, toks)
	}
	unit, _, err := cc.ParseTokensFrom(name, toks, r.entry.scope)
	return unit, err
}

// compile type-checks and lowers the unit's own declarations, as the
// continuation of its memoized leading includes: from their checked
// scope and their lowered prefix, read in place. A unit whose options lower
// differently from the prefix's, or that writes header state the
// header's own check or lowering reads (a recheck), is checked and
// lowered over the whole list, the includes' declarations first.
func (r *preambleRun) compile(unit *cc.TranslationUnit, opts Options) *prim.Program {
	if r == nil || r.entry == nil {
		return Compile(ctypes.Check(unit), opts)
	}
	e := r.entry
	if sameLowering(e.lowered.opts, opts) {
		ck, ok := ctypes.CheckFrom(unit, e.checked)
		if ok && e.lowered.keepsPrefix(ck.Copies) {
			b := e.lowered.extend(ck)
			b.lower()
			return b.program()
		}
		r.m.rechecks.Add(1)
	}
	decls := make([]cc.ExtDecl, 0, len(e.decls)+len(unit.Decls))
	whole := &cc.TranslationUnit{Name: unit.Name, Decls: append(append(decls, e.decls...), unit.Decls...)}
	return Compile(ctypes.Check(whole), opts)
}
