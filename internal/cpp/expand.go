package cpp

import (
	"fmt"
	"strings"
)

// maxExpandDepth bounds recursive macro expansion as a safety net beyond
// the hide-set mechanism.
const maxExpandDepth = 512

// expand performs macro expansion over toks. hidden is the set of macro
// names not eligible for expansion (painted blue) in this context.
func (p *Preprocessor) expand(toks []token, hidden map[string]bool) ([]token, error) {
	p.expandDep++
	defer func() { p.expandDep-- }()
	if p.expandDep > maxExpandDepth {
		return nil, fmt.Errorf("cpp: macro expansion too deep")
	}

	var out []token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind != tokIdent || hidden[t.text] {
			out = append(out, t)
			continue
		}
		// Positional builtins expand from the token's own position.
		switch t.text {
		case "__LINE__":
			out = append(out, token{kind: tokNumber, text: fmt.Sprint(t.line),
				line: t.line, spaceBefore: t.spaceBefore})
			continue
		case "__FILE__":
			out = append(out, token{kind: tokString, text: fmt.Sprintf("%q", p.curFile),
				line: t.line, spaceBefore: t.spaceBefore})
			continue
		}
		m, ok := p.macros[t.text]
		if !ok {
			out = append(out, t)
			continue
		}
		if m.funcLike {
			// Needs a '(' to trigger; otherwise the name passes through.
			j := i + 1
			if j >= len(toks) || !(toks[j].kind == tokPunct && toks[j].text == "(") {
				out = append(out, t)
				continue
			}
			args, next, err := collectArgs(toks, j, t.line)
			if err != nil {
				return nil, err
			}
			body, err := p.substitute(m, args, hidden, t.line)
			if err != nil {
				return nil, err
			}
			sub := map[string]bool{m.name: true}
			for k := range hidden {
				sub[k] = true
			}
			rescanned, err := p.expand(body, sub)
			if err != nil {
				return nil, err
			}
			setLeadSpace(rescanned, t.spaceBefore)
			out = append(out, rescanned...)
			i = next
			continue
		}
		// Object-like macro.
		sub := map[string]bool{m.name: true}
		for k := range hidden {
			sub[k] = true
		}
		rescanned, err := p.expand(cloneAtLine(m.body, t.line), sub)
		if err != nil {
			return nil, err
		}
		setLeadSpace(rescanned, t.spaceBefore)
		out = append(out, rescanned...)
	}
	return out, nil
}

// setLeadSpace forces the spaceBefore flag of the first token so that a
// substituted sequence inherits the spacing of the token it replaces.
func setLeadSpace(toks []token, space bool) {
	if len(toks) > 0 {
		toks[0].spaceBefore = space
	}
}

func cloneAtLine(body []token, line int) []token {
	out := make([]token, len(body))
	for i, t := range body {
		t.line = line
		out[i] = t
	}
	return out
}

// collectArgs gathers the comma-separated arguments of a function-like
// macro invocation starting at the '(' at index open. It returns the
// arguments and the index of the closing ')'.
func collectArgs(toks []token, open, line int) ([][]token, int, error) {
	var args [][]token
	var cur []token
	depth := 0
	i := open
	for ; i < len(toks); i++ {
		t := toks[i]
		if t.kind == tokPunct {
			switch t.text {
			case "(":
				depth++
				if depth == 1 {
					continue
				}
			case ")":
				depth--
				if depth == 0 {
					if len(cur) > 0 || len(args) > 0 {
						args = append(args, cur)
					}
					return args, i, nil
				}
			case ",":
				if depth == 1 {
					args = append(args, cur)
					cur = nil
					continue
				}
			}
		}
		if depth >= 1 {
			cur = append(cur, t)
		}
	}
	return nil, 0, fmt.Errorf("cpp: line %d: unterminated macro argument list", line)
}

// substitute builds the replacement list for a function-like macro call,
// handling parameter substitution, # stringizing and ## pasting.
func (p *Preprocessor) substitute(m *macro, args [][]token, hidden map[string]bool, line int) ([]token, error) {
	argFor := func(name string) ([]token, bool) {
		for pi, pn := range m.params {
			if pn == name {
				if pi < len(args) {
					return args[pi], true
				}
				if m.variadic && pn == "__VA_ARGS__" {
					// Missing variadic args: empty.
					return nil, true
				}
				return nil, true
			}
		}
		return nil, false
	}
	if !m.variadic && len(args) > len(m.params) {
		// Extra args are an error unless the macro takes none and the
		// single arg is empty.
		if !(len(m.params) == 0 && len(args) == 1 && len(args[0]) == 0) {
			return nil, fmt.Errorf("cpp: line %d: macro %s expects %d args, got %d",
				line, m.name, len(m.params), len(args))
		}
	}
	// Variadic macros fold all trailing args into __VA_ARGS__.
	if m.variadic && len(args) > len(m.params) {
		fixed := len(m.params) - 1
		var rest []token
		for ai := fixed; ai < len(args); ai++ {
			if ai > fixed {
				rest = append(rest, token{kind: tokPunct, text: ",", line: line})
			}
			rest = append(rest, args[ai]...)
		}
		args = append(args[:fixed:fixed], rest)
	}

	var out []token
	body := m.body
	for i := 0; i < len(body); i++ {
		t := body[i]
		// # param → stringize
		if t.kind == tokPunct && t.text == "#" && i+1 < len(body) && body[i+1].kind == tokIdent {
			if arg, ok := argFor(body[i+1].text); ok {
				out = append(out, token{kind: tokString, text: stringize(arg), line: line, spaceBefore: t.spaceBefore})
				i++
				continue
			}
		}
		// token ## token → paste
		if i+1 < len(body) && body[i+1].kind == tokPunct && body[i+1].text == "##" && i+2 < len(body) {
			left := expandOne(t, argFor, line)
			right := expandOne(body[i+2], argFor, line)
			pasted := pasteTokens(left, right, line)
			out = append(out, pasted...)
			i += 2
			// Allow chains: a ## b ## c.
			for i+1 < len(body) && body[i+1].kind == tokPunct && body[i+1].text == "##" && i+2 < len(body) {
				nxt := expandOne(body[i+2], argFor, line)
				if len(out) > 0 {
					last := out[len(out)-1]
					out = out[:len(out)-1]
					out = append(out, pasteTokens([]token{last}, nxt, line)...)
				} else {
					out = append(out, nxt...)
				}
				i += 2
			}
			continue
		}
		if t.kind == tokIdent {
			if arg, ok := argFor(t.text); ok {
				// Arguments are fully expanded before substitution.
				ex, err := p.expand(arg, hidden)
				if err != nil {
					return nil, err
				}
				sub := cloneAtLine(ex, line)
				setLeadSpace(sub, t.spaceBefore)
				out = append(out, sub...)
				continue
			}
		}
		tt := t
		tt.line = line
		out = append(out, tt)
	}
	return out, nil
}

// expandOne resolves a body token to its argument tokens (unexpanded, per
// the ## rules) or itself.
func expandOne(t token, argFor func(string) ([]token, bool), line int) []token {
	if t.kind == tokIdent {
		if arg, ok := argFor(t.text); ok {
			return cloneAtLine(arg, line)
		}
	}
	tt := t
	tt.line = line
	return []token{tt}
}

// pasteTokens concatenates the last token of left with the first of right.
func pasteTokens(left, right []token, line int) []token {
	if len(left) == 0 {
		return right
	}
	if len(right) == 0 {
		return left
	}
	l := left[len(left)-1]
	r := right[0]
	glued := l.text + r.text
	relexed := lexLine(nil, glued, line)
	var out []token
	out = append(out, left[:len(left)-1]...)
	out = append(out, relexed...)
	out = append(out, right[1:]...)
	return out
}

// stringize renders argument tokens as a C string literal.
func stringize(toks []token) string {
	s := joinTokens(toks)
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}
