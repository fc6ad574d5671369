// Package cpp implements a C preprocessor sufficient for the CLA compile
// phase: comments, line splicing, #include, object- and function-like
// macros with # and ## operators, conditional compilation with full
// constant-expression evaluation, #undef, #line, #error and #pragma.
//
// The output is the parser's token stream: each expanded line is lexed by
// cc.LexLine, so every token carries its position in the original
// sources. A Sink can take the output line by line instead.
package cpp

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"cla/internal/cc"
)

// Loader resolves #include paths to file contents.
type Loader interface {
	// Load returns the contents of the named file. The returned path is
	// the canonical name used in token positions and for nested relative
	// includes.
	Load(name string) (content string, path string, err error)
}

// MapLoader serves includes from an in-memory map, for tests and the
// synthetic workload generator.
type MapLoader map[string]string

// Load implements Loader.
func (m MapLoader) Load(name string) (string, string, error) {
	if c, ok := m[name]; ok {
		return c, name, nil
	}
	return "", "", fmt.Errorf("cpp: include %q not found", name)
}

// OSLoader serves includes from the file system: a relative name is
// tried against the process's working directory, then in each of Dirs.
type OSLoader struct {
	Dirs []string // include search path
}

// Load implements Loader.
func (l OSLoader) Load(name string) (string, string, error) {
	try := func(p string) (string, string, bool) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", "", false
		}
		return string(b), p, true
	}
	if filepath.IsAbs(name) {
		if c, p, ok := try(name); ok {
			return c, p, nil
		}
		return "", "", fmt.Errorf("cpp: include %q not found", name)
	}
	if c, p, ok := try(name); ok {
		return c, p, nil
	}
	for _, d := range l.Dirs {
		if c, p, ok := try(filepath.Join(d, name)); ok {
			return c, p, nil
		}
	}
	return "", "", fmt.Errorf("cpp: include %q not found", name)
}

// Error is a preprocessing error with a source position.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// macro is a stored macro definition.
type macro struct {
	name     string
	funcLike bool
	params   []string
	variadic bool
	body     []token // tokens of the replacement list
}

// Preprocessor holds macro state across files.
type Preprocessor struct {
	Loader    Loader
	MaxDepth  int // include nesting limit; 0 means default (64)
	macros    map[string]*macro
	sink      Sink
	condStack []condState
	expandDep int
	curFile   string          // file currently being expanded, for __FILE__
	once      map[string]bool // files guarded by #pragma once
	line      []token         // the current source line's tokens, reused
	joined    []byte          // the current output line's text, reused

	// Leading, when set, is offered each leading #include of the main
	// file: one reached before the main file's own lines have produced
	// any output. path and content are the resolved header. When it
	// returns true the preprocessor skips the header, and the hook must
	// have left the state that preprocessing it would (SetState); its
	// output is the hook's to account for.
	Leading func(path, content string) (bool, error)
	emitted bool // the main file's own lines have produced output
}

// Sink receives the preprocessor's output in order. Its calls match the
// lines of `cpp -E` output: Enter and Resume stand for the line markers
// written where a file starts and where it resumes after an #include.
type Sink interface {
	// Enter starts the text of a file of size bytes, at its line 1.
	Enter(file string, size int)
	// Resume continues the text of a file at pos after an #include.
	Resume(pos cc.Pos)
	// Line takes one expanded logical line, which starts at pos in the
	// sources.
	Line(pos cc.Pos, text string)
	// Marker takes the text after '#' of a directive that starts with a
	// digit: a `# <line> "<file>"` marker from already-preprocessed
	// input, passed through.
	Marker(text string)
}

// LexError reports the unterminated literals in the output of a
// successful Preprocess. Err holds up to 20 of them, one per line.
type LexError struct{ Err error }

func (e *LexError) Error() string { return e.Err.Error() }

// bytesPerToken is a little under the source bytes per output token of
// C code (3.6 on the generated programs); Preprocess sizes its token
// slice with it.
const bytesPerToken = 3

// tokenSink lexes each output line into the parser's tokens.
type tokenSink struct {
	toks []cc.Token
	next cc.Pos // where the text after the last line starts
	errs cc.ErrorList
	size int // bytes of the files entered so far
}

func (s *tokenSink) Enter(file string, size int) {
	s.size += size
	s.next = cc.Pos{File: file, Line: 1}
}

func (s *tokenSink) Resume(pos cc.Pos) { s.next = pos }

// Line lexes text into the tokens. A line has at most len(text) tokens;
// when they may not fit, the slice grows to hold the tokens of all files
// entered so far.
func (s *tokenSink) Line(pos cc.Pos, text string) {
	if cap(s.toks)-len(s.toks) < len(text) {
		s.toks = slices.Grow(s.toks, max(len(text), s.size/bytesPerToken-len(s.toks)))
	}
	s.toks, s.next = cc.LexLine(s.toks, pos, text, &s.errs)
}

// Marker lexes the line marker as one more output line: it moves the
// position the line after it starts at.
func (s *tokenSink) Marker(text string) {
	s.toks, s.next = cc.LexLine(s.toks, s.next, "# "+text, &s.errs)
}

type condState struct {
	// taken: some branch of this #if chain has been taken.
	taken bool
	// live: we are currently emitting in this branch.
	live bool
	// parentLive: the enclosing context was live.
	parentLive bool
	line       int
}

// New returns a Preprocessor reading includes through loader. The
// standard builtin macros __FILE__, __LINE__, __DATE__, __TIME__,
// __STDC__ and __STDC_VERSION__ are predefined (the first two expand
// positionally).
func New(loader Loader) *Preprocessor {
	p := &Preprocessor{Loader: loader, macros: map[string]*macro{}, once: map[string]bool{}}
	p.Define("__STDC__", "1")
	p.Define("__STDC_VERSION__", "199901L")
	// Fixed strings: builds must be reproducible, so no real clock.
	p.Define("__DATE__", `"Jan  1 2001"`)
	p.Define("__TIME__", `"00:00:00"`)
	return p
}

// Define installs an object-like macro, as if by -Dname=body.
func (p *Preprocessor) Define(name, body string) {
	toks := lexLine(nil, body, 1)
	p.macros[name] = &macro{name: name, body: toks}
}

// Preprocess runs the preprocessor over the named file's content and
// returns the parser's tokens, ending with an EOF token. A preprocessing
// error returns no tokens. Unterminated literals do not stop it: they
// come back as a *LexError with all the tokens.
func (p *Preprocessor) Preprocess(name, content string) ([]cc.Token, error) {
	s := &tokenSink{}
	if err := p.Run(name, content, s); err != nil {
		return nil, err
	}
	return s.finish()
}

// Header preprocesses a leading include of the main file — the resolved
// path and content the main file's #include would process — on its own:
// it returns the header's tokens, ending with an EOF token, as
// Preprocess does for a file, and leaves the state after the header in
// p. Those tokens are the ones the #include would have put in the main
// file's output.
func (p *Preprocessor) Header(path, content string) ([]cc.Token, error) {
	prev := p.sink
	s := &tokenSink{}
	p.sink = s
	defer func() { p.sink = prev }()
	if err := p.processFile(path, content, 1); err != nil {
		return nil, err
	}
	return s.finish()
}

// finish ends the token stream with an EOF token where the text after
// the last line starts, and reports its lex errors.
func (s *tokenSink) finish() ([]cc.Token, error) {
	toks := append(s.toks, cc.Token{Kind: cc.EOF, Pos: s.next})
	if err := s.errs.Err(); err != nil {
		return toks, &LexError{Err: err}
	}
	return toks, nil
}

// PreprocessFile loads and preprocesses the named file.
func (p *Preprocessor) PreprocessFile(name string) ([]cc.Token, error) {
	content, path, err := p.Loader.Load(name)
	if err != nil {
		return nil, err
	}
	return p.Preprocess(path, content)
}

// Run runs the preprocessor over the named file's content and hands its
// output to sink.
func (p *Preprocessor) Run(name, content string, sink Sink) error {
	p.sink = sink
	defer func() { p.sink = nil }()
	p.condStack = p.condStack[:0]
	p.emitted = false
	if err := p.processFile(name, content, 0); err != nil {
		return err
	}
	if len(p.condStack) != 0 {
		return &Error{File: name, Line: p.condStack[len(p.condStack)-1].line, Msg: "unterminated #if"}
	}
	return nil
}

func (p *Preprocessor) errf(file string, line int, format string, args ...any) error {
	return &Error{File: file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *Preprocessor) live() bool {
	for _, c := range p.condStack {
		if !c.live {
			return false
		}
	}
	return true
}

func (p *Preprocessor) processFile(name, content string, depth int) error {
	maxDepth := p.MaxDepth
	if maxDepth == 0 {
		maxDepth = 64
	}
	if depth > maxDepth {
		return p.errf(name, 1, "#include nesting too deep")
	}
	lines := splitLogicalLines(stripComments(content))
	p.sink.Enter(name, len(content))
	prevFile := p.curFile
	p.curFile = name
	defer func() { p.curFile = prevFile }()
	condBase := len(p.condStack)
	for _, ln := range lines {
		text := ln.text
		trimmed := strings.TrimSpace(text)
		if strings.HasPrefix(trimmed, "#") {
			if err := p.directive(name, ln.line, trimmed[1:], depth); err != nil {
				return err
			}
			continue
		}
		if !p.live() {
			continue
		}
		if trimmed == "" {
			continue
		}
		p.line = lexLine(p.line[:0], text, ln.line)
		toks := p.line
		if p.expandable(toks) {
			var err error
			if toks, err = p.expand(toks, nil); err != nil {
				return err
			}
		}
		p.joined = appendJoined(p.joined[:0], toks)
		p.sink.Line(cc.Pos{File: name, Line: ln.line}, string(p.joined))
		p.emitted = p.emitted || depth == 0
	}
	if len(p.condStack) != condBase {
		return p.errf(name, lines[len(lines)-1].line, "unterminated #if in %s", name)
	}
	return nil
}

// directive handles one preprocessor directive (text after '#').
func (p *Preprocessor) directive(file string, line int, text string, depth int) error {
	text = strings.TrimSpace(text)
	if text == "" { // null directive
		return nil
	}
	if text[0] >= '0' && text[0] <= '9' {
		// A GCC-style line marker (`# n "file"`) from already-preprocessed
		// input: pass it through so positions survive re-preprocessing.
		if p.live() {
			p.sink.Marker(text)
			p.emitted = p.emitted || depth == 0
		}
		return nil
	}
	name := text
	rest := ""
	for i, r := range text {
		if !isIdentChar(byte(r)) {
			name, rest = text[:i], strings.TrimSpace(text[i:])
			break
		}
	}

	switch name {
	case "ifdef", "ifndef":
		if !p.live() {
			p.condStack = append(p.condStack, condState{taken: true, live: false, parentLive: false, line: line})
			return nil
		}
		id := firstIdent(rest)
		if id == "" {
			return p.errf(file, line, "#%s expects an identifier", name)
		}
		_, defined := p.macros[id]
		val := defined
		if name == "ifndef" {
			val = !val
		}
		p.condStack = append(p.condStack, condState{taken: val, live: val, parentLive: true, line: line})
		return nil
	case "if":
		if !p.live() {
			p.condStack = append(p.condStack, condState{taken: true, live: false, parentLive: false, line: line})
			return nil
		}
		v, err := p.evalCond(rest, file, line)
		if err != nil {
			return err
		}
		p.condStack = append(p.condStack, condState{taken: v, live: v, parentLive: true, line: line})
		return nil
	case "elif":
		if len(p.condStack) == 0 {
			return p.errf(file, line, "#elif without #if")
		}
		c := &p.condStack[len(p.condStack)-1]
		if !c.parentLive || c.taken {
			c.live = false
			return nil
		}
		v, err := p.evalCond(rest, file, line)
		if err != nil {
			return err
		}
		c.live = v
		c.taken = v
		return nil
	case "else":
		if len(p.condStack) == 0 {
			return p.errf(file, line, "#else without #if")
		}
		c := &p.condStack[len(p.condStack)-1]
		c.live = c.parentLive && !c.taken
		c.taken = true
		return nil
	case "endif":
		if len(p.condStack) == 0 {
			return p.errf(file, line, "#endif without #if")
		}
		p.condStack = p.condStack[:len(p.condStack)-1]
		return nil
	}

	if !p.live() {
		return nil
	}

	switch name {
	case "define":
		return p.define(rest, file, line)
	case "undef":
		id := firstIdent(rest)
		if id == "" {
			return p.errf(file, line, "#undef expects an identifier")
		}
		delete(p.macros, id)
		return nil
	case "include":
		return p.include(rest, file, line, depth)
	case "error":
		return p.errf(file, line, "#error %s", rest)
	case "pragma":
		if strings.TrimSpace(rest) == "once" {
			p.once[file] = true
		}
		return nil
	case "warning", "ident":
		return nil
	case "line":
		// Accepted and ignored: tokens already carry their positions.
		return nil
	default:
		return p.errf(file, line, "unknown directive #%s", name)
	}
}

func (p *Preprocessor) include(rest, file string, line, depth int) error {
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "\"") && !strings.HasPrefix(rest, "<") {
		// A macro-expanded argument is expanded once, as C specifies; it
		// must then be a header name.
		expanded, err := p.expand(lexLine(nil, rest, line), nil)
		if err != nil {
			return err
		}
		rest = joinTokens(expanded)
	}
	var name string
	switch {
	case strings.HasPrefix(rest, "\""):
		end := strings.Index(rest[1:], "\"")
		if end < 0 {
			return p.errf(file, line, "malformed #include")
		}
		name = rest[1 : 1+end]
	case strings.HasPrefix(rest, "<"):
		end := strings.Index(rest, ">")
		if end < 0 {
			return p.errf(file, line, "malformed #include")
		}
		name = rest[1:end]
	default:
		return p.errf(file, line, "malformed #include")
	}
	content, path, err := p.load(name, file, strings.HasPrefix(rest, "\""))
	if err != nil {
		return p.errf(file, line, "%v", err)
	}
	if p.once[path] {
		return nil
	}
	handled := false
	if depth == 0 && !p.emitted && p.Leading != nil {
		if handled, err = p.Leading(path, content); err != nil {
			return err
		}
	}
	if !handled {
		if err := p.processFile(path, content, depth+1); err != nil {
			return err
		}
	}
	p.sink.Resume(cc.Pos{File: file, Line: line + 1})
	return nil
}

// load resolves an #include of name from file. A quoted include looks
// beside the including file first, then where an angle include looks.
func (p *Preprocessor) load(name, file string, quoted bool) (string, string, error) {
	if dir := filepath.Dir(file); quoted && dir != "." && !filepath.IsAbs(name) {
		if content, path, err := p.Loader.Load(filepath.Join(dir, name)); err == nil {
			return content, path, nil
		}
	}
	return p.Loader.Load(name)
}

// expandable reports whether expand could change toks: whether an
// identifier names a macro or a positional builtin.
func (p *Preprocessor) expandable(toks []token) bool {
	for _, t := range toks {
		if t.kind != tokIdent {
			continue
		}
		if _, ok := p.macros[t.text]; ok || t.text == "__LINE__" || t.text == "__FILE__" {
			return true
		}
	}
	return false
}

func (p *Preprocessor) define(rest, file string, line int) error {
	toks := lexLine(nil, rest, line)
	if len(toks) == 0 || toks[0].kind != tokIdent {
		return p.errf(file, line, "#define expects an identifier")
	}
	m := &macro{name: toks[0].text}
	i := 1
	// Function-like only if '(' immediately follows the name (no space).
	if i < len(toks) && toks[i].kind == tokPunct && toks[i].text == "(" && !toks[i].spaceBefore {
		m.funcLike = true
		i++
		for i < len(toks) && !(toks[i].kind == tokPunct && toks[i].text == ")") {
			t := toks[i]
			switch {
			case t.kind == tokIdent:
				m.params = append(m.params, t.text)
			case t.kind == tokPunct && t.text == "...":
				m.variadic = true
				m.params = append(m.params, "__VA_ARGS__")
			case t.kind == tokPunct && t.text == ",":
				// separator
			default:
				return p.errf(file, line, "bad macro parameter list for %s", m.name)
			}
			i++
		}
		if i >= len(toks) {
			return p.errf(file, line, "unterminated macro parameter list for %s", m.name)
		}
		i++ // skip ')'
	}
	m.body = toks[i:]
	p.macros[m.name] = m
	return nil
}

// evalCond evaluates a #if / #elif controlling expression.
func (p *Preprocessor) evalCond(expr, file string, line int) (bool, error) {
	toks := lexLine(nil, expr, line)
	// Handle defined(X) / defined X before macro expansion.
	var pre []token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind == tokIdent && t.text == "defined" {
			j := i + 1
			var id string
			if j < len(toks) && toks[j].kind == tokPunct && toks[j].text == "(" {
				if j+2 < len(toks) && toks[j+1].kind == tokIdent && toks[j+2].text == ")" {
					id = toks[j+1].text
					i = j + 2
				} else {
					return false, p.errf(file, line, "malformed defined()")
				}
			} else if j < len(toks) && toks[j].kind == tokIdent {
				id = toks[j].text
				i = j
			} else {
				return false, p.errf(file, line, "malformed defined")
			}
			v := "0"
			if _, ok := p.macros[id]; ok {
				v = "1"
			}
			pre = append(pre, token{kind: tokNumber, text: v, line: t.line})
			continue
		}
		pre = append(pre, t)
	}
	expanded, err := p.expand(pre, nil)
	if err != nil {
		return false, err
	}
	// Remaining identifiers evaluate to 0 per the C standard.
	for i := range expanded {
		if expanded[i].kind == tokIdent {
			expanded[i] = token{kind: tokNumber, text: "0", line: expanded[i].line}
		}
	}
	ev := condEval{toks: expanded, file: file, line: line, p: p}
	v, err := ev.parseExpr(0)
	if err != nil {
		return false, err
	}
	if ev.pos != len(ev.toks) {
		return false, p.errf(file, line, "trailing tokens in #if expression")
	}
	return v != 0, nil
}
