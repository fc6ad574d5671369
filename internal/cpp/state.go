package cpp

import (
	"maps"
	"sort"
	"strconv"
	"strings"
)

// State is what preprocessing a file leaves for the text after it: the
// macro table and the #pragma once set. A State never changes; a
// Preprocessor takes a copy of it.
type State struct {
	macros map[string]*macro
	once   map[string]bool
}

// State returns a copy of p's current state. Macro definitions are
// never changed once made, so the copy shares them.
func (p *Preprocessor) State() *State {
	return &State{macros: maps.Clone(p.macros), once: maps.Clone(p.once)}
}

// SetState replaces p's state with a copy of s.
func (p *Preprocessor) SetState(s *State) {
	p.macros = maps.Clone(s.macros)
	p.once = maps.Clone(s.once)
}

// StateKey returns a canonical encoding of p's state: preprocessors with
// equal keys preprocess any later text alike. A macro body's source
// lines are left out, because expansion gives every body token the line
// of the invocation.
func (p *Preprocessor) StateKey() string {
	var b strings.Builder
	num := func(n int) {
		b.WriteString(strconv.Itoa(n))
		b.WriteByte(';')
	}
	str := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	names := sortedKeys(p.macros)
	num(len(names))
	for _, name := range names {
		m := p.macros[name]
		str(name)
		var flags byte
		if m.funcLike {
			flags |= 1
		}
		if m.variadic {
			flags |= 2
		}
		b.WriteByte('0' + flags)
		num(len(m.params))
		for _, prm := range m.params {
			str(prm)
		}
		num(len(m.body))
		for _, t := range m.body {
			kind := byte('a' + t.kind)
			if t.spaceBefore {
				kind -= 'a' - 'A'
			}
			b.WriteByte(kind)
			str(t.text)
		}
	}
	once := sortedKeys(p.once)
	num(len(once))
	for _, f := range once {
		str(f)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
