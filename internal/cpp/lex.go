package cpp

import "strings"

// tokenKind classifies preprocessor tokens.
type tokenKind uint8

const (
	tokIdent tokenKind = iota
	tokNumber
	tokString // "..." or '...'
	tokPunct
)

type token struct {
	kind        tokenKind
	text        string
	line        int
	spaceBefore bool
}

// stripComments removes /* */ and // comments (replacing them with a single
// space) and splices backslash-newline continuations, preserving newlines
// inside block comments so line numbers stay correct.
func stripComments(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\\' && i+1 < n && src[i+1] == '\n':
			b.WriteByte(' ')
			// keep the newline count consistent by emitting nothing; the
			// logical line continues. We drop the newline entirely and
			// compensate in splitLogicalLines via the contLines count
			// encoded as \x01 markers.
			b.WriteByte('\x01')
			i += 2
		case c == '\\' && i+2 < n && src[i+1] == '\r' && src[i+2] == '\n':
			b.WriteByte(' ')
			b.WriteByte('\x01')
			i += 3
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i < n {
				if src[i] == '*' && i+1 < n && src[i+1] == '/' {
					i += 2
					break
				}
				if src[i] == '\n' {
					b.WriteByte('\n')
				}
				i++
			}
			b.WriteByte(' ')
		case c == '"' || c == '\'':
			quote := c
			b.WriteByte(c)
			i++
			for i < n && src[i] != quote {
				if src[i] == '\\' && i+1 < n {
					b.WriteByte(src[i])
					i++
				}
				if i < n {
					b.WriteByte(src[i])
					i++
				}
			}
			if i < n {
				b.WriteByte(quote)
				i++
			}
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

type logicalLine struct {
	text string
	line int // starting physical line
}

// splitLogicalLines splits comment-stripped text into logical lines,
// accounting for \x01 continuation markers produced by stripComments.
// A line without continuations is a substring of src.
func splitLogicalLines(src string) []logicalLine {
	out := make([]logicalLine, 0, strings.Count(src, "\n")+1)
	line := 1
	for src != "" {
		text, rest, more := strings.Cut(src, "\n")
		start := line
		if n := strings.Count(text, "\x01"); n > 0 {
			line += n // swallowed newlines from continuations
			text = strings.ReplaceAll(text, "\x01", "")
		}
		if more || text != "" {
			out = append(out, logicalLine{text: text, line: start})
		}
		line++
		src = rest
	}
	return out
}

// isIdentStart accepts '$' in identifiers, as cc's lexer does.
func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// multi-character punctuators, longest first.
var puncts = []string{
	"...", "<<=", ">>=",
	"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##",
}

// punctByFirst indexes puncts by first byte, keeping their longest-first
// order.
var punctByFirst = func() (t [256][]string) {
	for _, p := range puncts {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

// lexLine appends the tokens of one logical line, for macro processing,
// to toks.
func lexLine(toks []token, s string, line int) []token {
	i := 0
	n := len(s)
	space := false
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			space = true
			i++
		case isIdentStart(c):
			j := i + 1
			for j < n && isIdentChar(s[j]) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: s[i:j], line: line, spaceBefore: space})
			space = false
			i = j
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(s[i+1])):
			j := i + 1
			for j < n && (isIdentChar(s[j]) || s[j] == '.' ||
				((s[j] == '+' || s[j] == '-') && (s[j-1] == 'e' || s[j-1] == 'E' || s[j-1] == 'p' || s[j-1] == 'P'))) {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: s[i:j], line: line, spaceBefore: space})
			space = false
			i = j
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			for j < n && s[j] != quote {
				if s[j] == '\\' && j+1 < n {
					j++
				}
				j++
			}
			if j < n {
				j++
			}
			toks = append(toks, token{kind: tokString, text: s[i:j], line: line, spaceBefore: space})
			space = false
			i = j
		default:
			matched := false
			for _, p := range punctByFirst[c] {
				if strings.HasPrefix(s[i:], p) {
					toks = append(toks, token{kind: tokPunct, text: p, line: line, spaceBefore: space})
					i += len(p)
					matched = true
					break
				}
			}
			if !matched {
				toks = append(toks, token{kind: tokPunct, text: string(c), line: line, spaceBefore: space})
				i++
			}
			space = false
		}
	}
	return toks
}

// firstIdent returns the leading identifier of s, or "".
func firstIdent(s string) string {
	s = strings.TrimSpace(s)
	if s == "" || !isIdentStart(s[0]) {
		return ""
	}
	i := 1
	for i < len(s) && isIdentChar(s[i]) {
		i++
	}
	return s[:i]
}

// joinTokens renders tokens back to text with minimal separating spaces.
func joinTokens(toks []token) string {
	return string(appendJoined(nil, toks))
}

// appendJoined appends the text joinTokens renders to b.
func appendJoined(b []byte, toks []token) []byte {
	for i, t := range toks {
		if i > 0 && (t.spaceBefore || needSpace(toks[i-1], t)) {
			b = append(b, ' ')
		}
		b = append(b, t.text...)
	}
	return b
}

// needSpace reports whether a space must separate a and b to avoid
// accidentally gluing them into a different token.
func needSpace(a, b token) bool {
	if a.kind == tokIdent || a.kind == tokNumber {
		return b.kind == tokIdent || b.kind == tokNumber
	}
	if a.kind == tokPunct && b.kind == tokPunct {
		// Conservative: separate any punctuation pair that could merge.
		glued := a.text + b.text
		for _, p := range punctByFirst[glued[0]] {
			if strings.HasPrefix(glued, p) && len(p) > len(a.text) {
				return true
			}
		}
		switch glued[:min(2, len(glued))] {
		case "//", "/*", "--", "++", "<<", ">>":
			return true
		}
	}
	return false
}
