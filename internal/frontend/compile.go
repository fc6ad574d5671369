package frontend

import (
	"errors"
	"fmt"

	"cla/internal/cpp"
	"cla/internal/prim"
)

// CompileSource runs the full compile phase on one source text:
// preprocess, parse, type-check, lower. loader resolves #include (nil
// allows no includes). Parse errors abort; type diagnoses do not (legacy C
// tolerance), matching the paper's robustness requirement.
func CompileSource(name, src string, loader cpp.Loader, opts Options) (*prim.Program, error) {
	return compiledProgram((*Preambles)(nil).CompileSource(name, src, loader, opts, nil))
}

// CompileFile preprocesses and compiles the named file through loader.
func CompileFile(name string, loader cpp.Loader, opts Options) (*prim.Program, error) {
	return (*Preambles)(nil).CompileFile(name, loader, opts)
}

// CompileSource is the one compile of a unit: the package's
// CompileSource with the unit's leading includes served from and added
// to m (a nil m is no memo), cut off after preprocessing when it matches
// prev, the unit's previous compile (nil for none). The unit's tokens
// are fingerprinted (fingerprint); when the fingerprint equals prev's,
// parsing, checking and lowering would rebuild prev's program, so
// CompileSource returns prev itself. Otherwise it parses, checks and
// lowers. The program and error are the same with or without m and
// prev.
func (m *Preambles) CompileSource(name, src string, loader cpp.Loader, opts Options, prev *Compiled) (*Compiled, error) {
	if loader == nil {
		loader = cpp.MapLoader{}
	}
	pp := cpp.New(loader)
	for k, v := range opts.Defines {
		pp.Define(k, v)
	}
	var r *preambleRun
	if m != nil {
		r = newPreambleRun(m, pp, opts)
	}
	toks, err := pp.Preprocess(name, src)
	var lexErr *cpp.LexError
	switch {
	case errors.Is(err, errNoPreamble):
		return (*Preambles)(nil).CompileSource(name, src, loader, opts, prev)
	case errors.As(err, &lexErr):
		return nil, fmt.Errorf("parse %s: %w", name, lexErr.Err)
	case err != nil:
		return nil, fmt.Errorf("preprocess %s: %w", name, err)
	}
	fp := fingerprint(name, opts, r.chain(), toks)
	if prev != nil && prev.fp == fp {
		return prev, nil
	}
	unit, err := r.parse(name, toks)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	return &Compiled{Prog: r.compile(unit, opts), fp: fp}, nil
}

// CompileFile is the package's CompileFile through m.
func (m *Preambles) CompileFile(name string, loader cpp.Loader, opts Options) (*prim.Program, error) {
	content, path, err := loader.Load(name)
	if err != nil {
		return nil, err
	}
	return compiledProgram(m.CompileSource(path, content, loader, opts, nil))
}

func compiledProgram(c *Compiled, err error) (*prim.Program, error) {
	if err != nil {
		return nil, err
	}
	return c.Prog, nil
}

// FormatAssign renders an assignment with symbol names, for tests, tools
// and dependence-chain output.
func FormatAssign(p *prim.Program, a prim.Assign) string {
	dst := p.Sym(a.Dst).Name
	src := p.Sym(a.Src).Name
	switch a.Kind {
	case prim.Simple:
		return dst + " = " + src
	case prim.Base:
		return dst + " = &" + src
	case prim.StoreInd:
		return "*" + dst + " = " + src
	case prim.LoadInd:
		return dst + " = *" + src
	case prim.CopyInd:
		return "*" + dst + " = *" + src
	}
	return "?"
}
