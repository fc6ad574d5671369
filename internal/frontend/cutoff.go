package frontend

import (
	"encoding/binary"
	"hash/maphash"
	"sort"

	"cla/internal/cc"
	"cla/internal/prim"
)

// Compiled is one compile of a unit by (*Preambles).CompileSource: its
// program and the fingerprint of everything that parsing, checking and
// lowering it read. Passed back to the unit's next compile, it lets that
// compile stop after preprocessing when the fingerprint is unchanged.
type Compiled struct {
	Prog *prim.Program
	fp   uint64
}

// seed keys every fingerprint. Fingerprints live only in memory, so one
// seed per process serves.
var seed = maphash.MakeSeed()

// fingerprint hashes what parse, check and lower read when they build a
// unit's program from its preprocessed tokens: the unit name, the
// options that change lowering, the content fingerprint of the unit's
// memoized leading includes (chain, 0 for none) and every token of the
// unit's own stream, EOF included, by kind, text, file and line. A token
// carries no column, so an edit that changes only comments or spacing
// within lines keeps the fingerprint; one that moves a line does not,
// because locations are part of the program.
//
// Each token costs one word and its text, hashed in blocks (maphash);
// a token's line and file are written only where they differ from the
// previous token's.
func fingerprint(name string, opts Options, chain uint64, toks []cc.Token) uint64 {
	w := newHashWriter()
	w.str(name)
	var flags uint64
	if opts.ModelStrings {
		flags = 1
	}
	w.word(uint64(opts.Mode))
	w.word(flags)
	w.word(chain)
	if opts.Allocators != nil {
		names := make([]string, 0, len(opts.Allocators))
		for a, on := range opts.Allocators {
			if on {
				names = append(names, a)
			}
		}
		sort.Strings(names)
		w.word(uint64(len(names)))
		for _, a := range names {
			w.str(a)
		}
	}
	// A token is one word — two flag bits, its kind and its text's
	// length — and the text. Bit 0 says the line changes, bit 1 that the
	// file does; either puts the line word before the text, and a file
	// change its name after the line word.
	file, line := "\x00", -1 // no token's
	for i := range toks {
		t := &toks[i]
		tag := uint64(0)
		if t.Pos.Line != line {
			tag, line = 1, t.Pos.Line
		}
		head := tag | uint64(t.Kind)<<2 | uint64(len(t.Text))<<10
		if t.Pos.File != file || len(t.Text) > len(w.buf)/2 {
			if t.Pos.File != file {
				tag, file = 2, t.Pos.File
				head |= 2
			}
			w.word(head)
			if tag != 0 {
				w.word(uint64(line))
			}
			if tag == 2 {
				w.str(file)
			}
			w.text(t.Text)
			continue
		}
		// The common token, written in place.
		if w.n+16+len(t.Text) > len(w.buf) {
			w.flush()
		}
		b := w.buf[w.n:]
		binary.LittleEndian.PutUint64(b, head)
		n := 8
		if tag != 0 {
			binary.LittleEndian.PutUint64(b[8:], uint64(line))
			n = 16
		}
		w.n += n + copy(b[n:], t.Text)
	}
	return w.sum()
}

// chainFingerprint is the content fingerprint of a leading-include
// entry: that of the entry before it (0 for the first), the
// preprocessor's state at the #include and every load the header made,
// contents included. Two fills of one header from the same state give
// the same value, so a unit keeps its fingerprint across a memo Sweep
// that drops and refills its entry.
func chainFingerprint(parent uint64, state string, loads []load) uint64 {
	w := newHashWriter()
	w.word(parent)
	w.str(state)
	for _, l := range loads {
		w.str(l.name)
		w.str(l.path)
		w.str(l.content)
		if l.failed {
			w.word(1)
		} else {
			w.word(0)
		}
	}
	return w.sum()
}

// hashWriter feeds words and strings to a maphash.Hash through a block
// buffer, so the hash runs over whole blocks rather than per call.
type hashWriter struct {
	h   maphash.Hash
	n   int
	buf [2048]byte
}

func newHashWriter() *hashWriter {
	w := &hashWriter{}
	w.h.SetSeed(seed)
	return w
}

func (w *hashWriter) word(v uint64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

// text writes s; its length must be written before it.
func (w *hashWriter) text(s string) {
	if len(s) > len(w.buf)-w.n {
		w.flush()
		if len(s) > len(w.buf) {
			w.h.WriteString(s)
			return
		}
	}
	w.n += copy(w.buf[w.n:], s)
}

// str writes s's length and s.
func (w *hashWriter) str(s string) {
	w.word(uint64(len(s)))
	w.text(s)
}

func (w *hashWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *hashWriter) sum() uint64 {
	w.flush()
	return w.h.Sum64()
}
