// Package cc implements a C lexer, abstract syntax tree and parser for the
// realistic C subset consumed by the CLA compile phase: the full expression
// and statement grammar, declarations with arbitrarily nested declarators,
// structs, unions, enums, typedefs, initializer lists and old-style as well
// as prototype function definitions.
//
// The parser reads a token stream: ParseTokens takes the tokens
// internal/cpp produces, each already at its position in the original
// source files, and LexLine is the scanner cpp produces them with. Parse
// and Tokenize serve raw text, which may hold GCC-style line markers.
package cc

import (
	"fmt"
	"strconv"
	"strings"
)

// TokKind classifies lexical tokens.
type TokKind uint8

// Token kinds.
const (
	EOF TokKind = iota
	Ident
	Keyword
	IntLit
	FloatLit
	CharLit
	StringLit
	Punct
)

func (k TokKind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "identifier"
	case Keyword:
		return "keyword"
	case IntLit:
		return "integer"
	case FloatLit:
		return "float"
	case CharLit:
		return "character"
	case StringLit:
		return "string"
	case Punct:
		return "punctuation"
	}
	return "token"
}

// Pos is a position in an original (pre-preprocessing) source file.
type Pos struct {
	File string
	Line int
}

func (p Pos) String() string {
	if p.File == "" {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d", p.File, p.Line)
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind == EOF {
		return "EOF"
	}
	return t.Text
}

var keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true, "const": true,
	"continue": true, "default": true, "do": true, "double": true,
	"else": true, "enum": true, "extern": true, "float": true, "for": true,
	"goto": true, "if": true, "int": true, "long": true, "register": true,
	"return": true, "short": true, "signed": true, "sizeof": true,
	"static": true, "struct": true, "switch": true, "typedef": true,
	"union": true, "unsigned": true, "void": true, "volatile": true,
	"while": true, "inline": true, "restrict": true,
	// common extensions accepted and (mostly) ignored
	"__inline": true, "__inline__": true, "__restrict": true,
	"__const": true, "__signed__": true, "__volatile__": true,
	"__extension__": true,
}

// lexer scans one line of preprocessed text.
type lexer struct {
	src  string
	pos  int
	at   Pos
	errs *ErrorList
}

// ErrorList accumulates parse errors; parsing continues after recoverable
// errors so one run reports as much as possible.
type ErrorList struct {
	Errs []error
	Max  int // stop after this many errors (default 20)
}

// Add appends an error.
func (l *ErrorList) Add(pos Pos, format string, args ...any) {
	max := l.Max
	if max == 0 {
		max = 20
	}
	if len(l.Errs) < max {
		l.Errs = append(l.Errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
	}
}

// Err returns the accumulated errors as one error, or nil.
func (l *ErrorList) Err() error {
	if len(l.Errs) == 0 {
		return nil
	}
	msgs := make([]string, len(l.Errs))
	for i, e := range l.Errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}

// Tokenize lexes preprocessed text that may hold GCC-style line markers
// (`# <line> "<file>"`, as `cpp -E` writes them), reporting positions
// from the markers; name is used until the first one.
func Tokenize(name, src string) ([]Token, error) {
	errs := &ErrorList{}
	var toks []Token
	pos := Pos{name, 1}
	for {
		line, rest, more := strings.Cut(src, "\n")
		if !more {
			// The last line has no newline to step past.
			var marker string
			toks, marker = scanLine(toks, pos, line, errs)
			if marker != "" {
				pos = markerPos(marker, pos)
			}
			break
		}
		toks, pos = LexLine(toks, pos, line, errs)
		src = rest
	}
	toks = append(toks, Token{Kind: EOF, Pos: pos})
	return toks, errs.Err()
}

// LexLine appends the tokens of one line of preprocessed text (without
// its newline) to dst, every one at pos, and reports unterminated
// literals to errs. A '#' outside a literal starts a line marker and
// ends the line. next is where the line after this one starts: the
// marker's position when it reads as `# <line> "<file>"`, else pos one
// line down. A stream of LexLine calls thus gives the tokens and
// positions Tokenize gives for the same lines.
func LexLine(dst []Token, pos Pos, text string, errs *ErrorList) (toks []Token, next Pos) {
	toks, marker := scanLine(dst, pos, text, errs)
	if marker != "" {
		return toks, markerPos(marker, pos)
	}
	return toks, Pos{pos.File, pos.Line + 1}
}

// scanLine appends the tokens of text to dst and returns the text from
// the first '#' outside a literal on ("" when there is none).
func scanLine(dst []Token, pos Pos, text string, errs *ErrorList) ([]Token, string) {
	lx := lexer{src: text, at: pos, errs: errs}
	for lx.pos < len(text) {
		switch c := text[lx.pos]; {
		case c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			lx.pos++
		case c == '#':
			return dst, text[lx.pos:]
		default:
			dst = append(dst, lx.scanToken())
		}
	}
	return dst, ""
}

// markerPos parses the line marker `# <line> "<file>"` in text. A text
// that is no marker is a skipped line: the result is pos one line down.
func markerPos(text string, pos Pos) Pos {
	fields := strings.SplitN(strings.TrimSpace(text[1:]), " ", 2)
	if len(fields) == 2 {
		if n, err := strconv.Atoi(strings.TrimSpace(fields[0])); err == nil {
			if f, err := strconv.Unquote(strings.TrimSpace(fields[1])); err == nil {
				return Pos{f, n}
			}
		}
	}
	return Pos{pos.File, pos.Line + 1}
}

func (lx *lexer) errorf(format string, args ...any) {
	lx.errs.Add(lx.at, format, args...)
}

func (lx *lexer) scanToken() Token {
	pos := lx.at
	src := lx.src
	i := lx.pos
	c := src[i]
	switch {
	case c == 'L' && i+1 < len(src) && (src[i+1] == '"' || src[i+1] == '\''):
		// A wide literal; ahead of the identifier case, which L starts.
		lx.pos++
		if src[lx.pos] == '"' {
			return lx.scanString(pos, '"', StringLit)
		}
		return lx.scanString(pos, '\'', CharLit)
	case isIdentStart(c):
		j := i + 1
		for j < len(src) && isIdentChar(src[j]) {
			j++
		}
		text := src[i:j]
		lx.pos = j
		kind := Ident
		if keywords[text] {
			kind = Keyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}
	case isDigit(c) || (c == '.' && i+1 < len(src) && isDigit(src[i+1])):
		return lx.scanNumber(pos)
	case c == '"':
		return lx.scanString(pos, '"', StringLit)
	case c == '\'':
		return lx.scanString(pos, '\'', CharLit)
	default:
		for _, p := range punctByFirst[c] {
			if strings.HasPrefix(src[i:], p) {
				lx.pos = i + len(p)
				return Token{Kind: Punct, Text: p, Pos: pos}
			}
		}
		lx.pos = i + 1
		return Token{Kind: Punct, Text: string(c), Pos: pos}
	}
}

// punct3 lists multi-byte punctuators longest-first.
var punct3 = []string{
	"...", "<<=", ">>=",
	"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
}

// punctByFirst indexes punct3 by first byte, keeping its longest-first
// order, so scanToken tries only the punctuators that can match.
var punctByFirst = func() (t [256][]string) {
	for _, p := range punct3 {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

func (lx *lexer) scanNumber(pos Pos) Token {
	src := lx.src
	i := lx.pos
	j := i
	isFloat := false
	if src[j] == '0' && j+1 < len(src) && (src[j+1] == 'x' || src[j+1] == 'X') {
		j += 2
		for j < len(src) && (isHexDigit(src[j])) {
			j++
		}
	} else {
		for j < len(src) && isDigit(src[j]) {
			j++
		}
		if j < len(src) && src[j] == '.' {
			isFloat = true
			j++
			for j < len(src) && isDigit(src[j]) {
				j++
			}
		}
		if j < len(src) && (src[j] == 'e' || src[j] == 'E') {
			k := j + 1
			if k < len(src) && (src[k] == '+' || src[k] == '-') {
				k++
			}
			if k < len(src) && isDigit(src[k]) {
				isFloat = true
				j = k
				for j < len(src) && isDigit(src[j]) {
					j++
				}
			}
		}
	}
	// suffixes
	for j < len(src) && strings.ContainsRune("uUlLfF", rune(src[j])) {
		if src[j] == 'f' || src[j] == 'F' {
			isFloat = true
		}
		j++
	}
	lx.pos = j
	kind := IntLit
	if isFloat {
		kind = FloatLit
	}
	return Token{Kind: kind, Text: src[i:j], Pos: pos}
}

func (lx *lexer) scanString(pos Pos, quote byte, kind TokKind) Token {
	src := lx.src
	i := lx.pos
	j := i + 1
	for j < len(src) && src[j] != quote {
		if src[j] == '\\' && j+1 < len(src) {
			j++
		}
		if src[j] == '\n' {
			lx.errorf("unterminated %s literal", kind)
			break
		}
		j++
	}
	if j < len(src) && src[j] == quote {
		j++
	} else if j >= len(src) {
		lx.errorf("unterminated %s literal", kind)
	}
	lx.pos = j
	return Token{Kind: kind, Text: src[i:j], Pos: pos}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
