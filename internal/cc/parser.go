package cc

import "slices"

// Parser turns a token stream into a TranslationUnit. It keeps a scope
// stack of typedef names (the classic lexer-feedback needed to parse C) and
// recovers from errors at statement/declaration boundaries so a single run
// reports multiple problems.
type Parser struct {
	toks []Token
	pos  int
	errs *ErrorList
	// scopes map names to "is a typedef" in the current lexical nesting;
	// a non-typedef declaration shadows an outer typedef.
	scopes []map[string]bool
}

// Parse tokenizes and parses preprocessed source text.
func Parse(name, src string) (*TranslationUnit, error) {
	toks, err := Tokenize(name, src)
	if err != nil {
		return nil, err
	}
	return ParseTokens(name, toks)
}

// Scope is the file-scope typedef table a run of top-level declarations
// leaves: which names denote typedefs. It is read-only, so parses on any
// goroutine may start from the same Scope. The zero Scope is the empty
// table at the start of a translation unit.
type Scope struct {
	// layers hold the file-scope names of successive parses, innermost
	// (latest) last; a later layer shadows an earlier one.
	layers []map[string]bool
}

// ParseTokens parses a token stream that ends with an EOF token.
func ParseTokens(name string, toks []Token) (*TranslationUnit, error) {
	unit, _, err := ParseTokensFrom(name, toks, Scope{})
	return unit, err
}

// ParseTokensFrom parses toks as the continuation of a translation unit
// whose earlier top-level declarations left scope: the result is what
// parsing those declarations' tokens followed by toks would give after
// them, when the earlier ones end where toks starts. It also returns the
// scope after toks, which shares scope's tables and never changes them.
func ParseTokensFrom(name string, toks []Token, scope Scope) (*TranslationUnit, Scope, error) {
	p := &Parser{toks: toks, errs: &ErrorList{}, scopes: slices.Clip(scope.layers)}
	p.pushScope()
	file := len(p.scopes)
	unit := &TranslationUnit{Name: name}
	for !p.at(EOF) {
		start := p.pos
		d := p.parseExternalDecl()
		if d != nil {
			unit.Decls = append(unit.Decls, d)
		}
		if p.pos == start {
			// No progress: skip a token to guarantee termination.
			p.errorf("unexpected token %q", p.tok().Text)
			p.pos++
		}
	}
	return unit, Scope{layers: slices.Clip(p.scopes[:file])}, p.errs.Err()
}

func (p *Parser) tok() Token { return p.toks[p.pos] }
func (p *Parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) at(k TokKind) bool { return p.tok().Kind == k }

func (p *Parser) atPunct(text string) bool {
	t := p.tok()
	return t.Kind == Punct && t.Text == text
}

func (p *Parser) atKeyword(text string) bool {
	t := p.tok()
	return t.Kind == Keyword && t.Text == text
}

func (p *Parser) next() Token {
	t := p.tok()
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *Parser) expect(text string) Token {
	if p.atPunct(text) || p.atKeyword(text) {
		return p.next()
	}
	p.errorf("expected %q, found %q", text, p.tok().Text)
	return Token{Kind: Punct, Text: text, Pos: p.tok().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs.Add(p.tok().Pos, format, args...)
}

func (p *Parser) pushScope() { p.scopes = append(p.scopes, map[string]bool{}) }
func (p *Parser) popScope()  { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *Parser) declareName(name string, isTypedef bool) {
	if name == "" {
		return
	}
	p.scopes[len(p.scopes)-1][name] = isTypedef
}

// isTypedefName reports whether name currently denotes a typedef.
func (p *Parser) isTypedefName(name string) bool {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i][name]; ok {
			return v
		}
	}
	return false
}

// typeSpecKeywords are keywords that can begin a type specifier.
var typeSpecKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "signed": true, "unsigned": true,
	"struct": true, "union": true, "enum": true,
}

var declSpecKeywords = map[string]bool{
	"typedef": true, "extern": true, "static": true, "auto": true,
	"register": true, "const": true, "volatile": true, "inline": true,
	"restrict": true, "__inline": true, "__inline__": true,
	"__restrict": true, "__const": true, "__signed__": true,
	"__volatile__": true, "__extension__": true,
}

// atDeclStart reports whether the current token can begin a declaration.
func (p *Parser) atDeclStart() bool {
	t := p.tok()
	switch t.Kind {
	case Keyword:
		return typeSpecKeywords[t.Text] || declSpecKeywords[t.Text]
	case Ident:
		return p.isTypedefName(t.Text)
	}
	return false
}

// atTypeStart reports whether the current token can begin a type-name
// (casts, sizeof, parameters).
func (p *Parser) atTypeStart() bool {
	t := p.tok()
	switch t.Kind {
	case Keyword:
		return typeSpecKeywords[t.Text] || t.Text == "const" || t.Text == "volatile"
	case Ident:
		return p.isTypedefName(t.Text)
	}
	return false
}

// ---------- Declarations ----------

// parseExternalDecl parses a function definition or top-level declaration.
func (p *Parser) parseExternalDecl() ExtDecl {
	if p.atPunct(";") {
		p.next()
		return nil
	}
	specs := p.parseDeclSpecs(true)
	if specs == nil {
		return nil
	}
	if p.atPunct(";") {
		p.next()
		// struct/union/enum definition or a vacuous declaration.
		return &Declaration{Specs: specs, Pos_: specs.Pos_}
	}
	first := p.parseDeclarator(false)
	if fd, body := p.tryFuncDef(specs, first); fd != nil {
		_ = body
		return fd
	}
	return p.finishDeclaration(specs, first)
}

// tryFuncDef checks whether the declarator begins a function definition and
// parses the body if so.
func (p *Parser) tryFuncDef(specs *DeclSpecs, d Declarator) (*FuncDef, bool) {
	fdecl := outermostFunc(d)
	if fdecl == nil {
		return nil, false
	}
	// K&R parameter declarations between declarator and body.
	var krDecls []*Declaration
	for p.atDeclStart() && !p.atPunct("{") {
		kd := p.parseDeclarationTail()
		if kd != nil {
			krDecls = append(krDecls, kd)
		}
	}
	if !p.atPunct("{") {
		if len(krDecls) > 0 {
			p.errorf("expected function body after parameter declarations")
		}
		return nil, false
	}
	name := d.DeclName()
	p.declareName(name, false)
	p.pushScope()
	// Parameter names become visible in the body scope.
	for _, pd := range fdecl.Params {
		if pd.Decl != nil {
			p.declareName(pd.Decl.DeclName(), false)
		}
	}
	for _, n := range fdecl.KRNames {
		p.declareName(n, false)
	}
	body := p.parseCompound()
	p.popScope()
	return &FuncDef{
		Specs:   specs,
		Decl:    &DeclaratorBox{D: d, Pos_: d.Position()},
		KRDecls: krDecls,
		Body:    body,
		Pos_:    specs.Pos_,
	}, true
}

// outermostFunc returns the FuncDecl applied directly to the declared
// identifier, meaning the declarator declares a function (possibly
// returning a pointer), or nil otherwise. The wrapper adjacent to the
// IdentDecl is the one applied first in type construction, so
// Ptr(Func(id)) declares a function returning a pointer while
// Func(Ptr(id)) declares a pointer-to-function variable.
func outermostFunc(d Declarator) *FuncDecl {
	for {
		switch v := d.(type) {
		case *FuncDecl:
			if _, ok := v.Inner.(*IdentDecl); ok {
				return v
			}
			d = v.Inner
		case *PointerDecl:
			d = v.Inner
		case *ArrayDecl:
			d = v.Inner
		default:
			return nil
		}
	}
}

// parseDeclarationTail parses a complete declaration starting at
// decl-specifiers (used for K&R params and block declarations).
func (p *Parser) parseDeclarationTail() *Declaration {
	specs := p.parseDeclSpecs(true)
	if specs == nil {
		return nil
	}
	if p.atPunct(";") {
		p.next()
		return &Declaration{Specs: specs, Pos_: specs.Pos_}
	}
	first := p.parseDeclarator(false)
	return p.finishDeclaration(specs, first)
}

// finishDeclaration parses the init-declarator list following the first
// declarator and the terminating semicolon.
func (p *Parser) finishDeclaration(specs *DeclSpecs, first Declarator) *Declaration {
	decl := &Declaration{Specs: specs, Pos_: specs.Pos_}
	add := func(d Declarator) {
		item := &InitDeclarator{Decl: &DeclaratorBox{D: d, Pos_: d.Position()}}
		p.declareName(d.DeclName(), specs.Storage == SCTypedef)
		if p.atPunct("=") {
			p.next()
			item.Init = p.parseInit()
		}
		decl.Items = append(decl.Items, item)
	}
	add(first)
	for p.atPunct(",") {
		p.next()
		add(p.parseDeclarator(false))
	}
	p.expect(";")
	return decl
}

// parseDeclSpecs parses declaration specifiers. allowStorage permits
// storage-class keywords (false inside type-names).
func (p *Parser) parseDeclSpecs(allowStorage bool) *DeclSpecs {
	specs := &DeclSpecs{Pos_: p.tok().Pos}
	seenType := false
	for {
		p.skipExtensions()
		t := p.tok()
		switch {
		case t.Kind == Keyword:
			switch t.Text {
			case "typedef", "extern", "static", "auto", "register":
				if !allowStorage {
					p.errorf("storage class %q not allowed here", t.Text)
				}
				sc := map[string]StorageClass{
					"typedef": SCTypedef, "extern": SCExtern,
					"static": SCStatic, "auto": SCAuto, "register": SCRegister,
				}[t.Text]
				if specs.Storage != SCNone && specs.Storage != sc {
					p.errorf("conflicting storage classes")
				}
				specs.Storage = sc
				p.next()
				continue
			case "const", "volatile", "inline", "restrict",
				"__inline", "__inline__", "__restrict", "__const",
				"__volatile__", "__extension__":
				p.next()
				continue
			case "__signed__":
				specs.Basic = append(specs.Basic, "signed")
				seenType = true
				p.next()
				continue
			case "void", "char", "short", "int", "long", "float",
				"double", "signed", "unsigned":
				specs.Basic = append(specs.Basic, t.Text)
				seenType = true
				p.next()
				continue
			case "struct", "union":
				specs.Struct = p.parseStructSpec()
				seenType = true
				continue
			case "enum":
				specs.Enum = p.parseEnumSpec()
				seenType = true
				continue
			}
			// Non-specifier keyword terminates the specifier list.
		case t.Kind == Ident:
			if !seenType && p.isTypedefName(t.Text) {
				specs.TypedefName = t.Text
				seenType = true
				p.next()
				continue
			}
		}
		break
	}
	if !seenType && specs.Storage == SCNone {
		return nil
	}
	return specs
}

func (p *Parser) parseStructSpec() *StructSpec {
	kw := p.next() // struct or union
	s := &StructSpec{Union: kw.Text == "union", Pos_: kw.Pos}
	if p.at(Ident) {
		s.Name = p.next().Text
	}
	if !p.atPunct("{") {
		if s.Name == "" {
			p.errorf("anonymous struct/union requires a definition")
		}
		return s
	}
	p.next()
	s.Defined = true
	for !p.atPunct("}") && !p.at(EOF) {
		if p.atPunct(";") {
			p.next()
			continue
		}
		fspecs := p.parseDeclSpecs(false)
		if fspecs == nil {
			p.errorf("expected field declaration, found %q", p.tok().Text)
			p.skipPast(";", "}")
			continue
		}
		// Unnamed field like `struct S { int; };` or anonymous inner
		// struct/union member.
		if p.atPunct(";") {
			p.next()
			s.Fields = append(s.Fields, &FieldDecl{Specs: fspecs, Pos_: fspecs.Pos_})
			continue
		}
		for {
			f := &FieldDecl{Specs: fspecs, Pos_: p.tok().Pos}
			if !p.atPunct(":") {
				f.Decl = p.parseDeclarator(false)
			}
			if p.atPunct(":") {
				p.next()
				f.Bits = p.parseCondExpr()
			}
			s.Fields = append(s.Fields, f)
			if !p.atPunct(",") {
				break
			}
			p.next()
		}
		p.expect(";")
	}
	p.expect("}")
	return s
}

func (p *Parser) parseEnumSpec() *EnumSpec {
	kw := p.next()
	e := &EnumSpec{Pos_: kw.Pos}
	if p.at(Ident) {
		e.Name = p.next().Text
	}
	if !p.atPunct("{") {
		return e
	}
	p.next()
	e.Defined = true
	for !p.atPunct("}") && !p.at(EOF) {
		if !p.at(Ident) {
			p.errorf("expected enumerator name")
			p.skipPast(",", "}")
			continue
		}
		it := EnumItem{Name: p.next().Text, Pos_: p.tok().Pos}
		if p.atPunct("=") {
			p.next()
			it.Value = p.parseCondExpr()
		}
		p.declareName(it.Name, false)
		e.Items = append(e.Items, it)
		if p.atPunct(",") {
			p.next()
		}
	}
	p.expect("}")
	return e
}

// skipPast advances past the next occurrence of any stop token (consuming
// it unless it is "}"), for error recovery.
func (p *Parser) skipPast(stops ...string) {
	for !p.at(EOF) {
		for _, s := range stops {
			if p.atPunct(s) {
				if s != "}" {
					p.next()
				}
				return
			}
		}
		p.next()
	}
}

// skipExtensions consumes GCC extension syntax that carries no analysis
// meaning: __attribute__((...)) and asm("...") annotations.
func (p *Parser) skipExtensions() {
	for {
		t := p.tok()
		isAttr := t.Kind == Ident && (t.Text == "__attribute__" || t.Text == "__attribute")
		isAsm := (t.Kind == Ident && (t.Text == "__asm__" || t.Text == "__asm")) ||
			(t.Kind == Keyword && t.Text == "asm")
		if !isAttr && !isAsm {
			return
		}
		p.next()
		if !p.atPunct("(") {
			continue
		}
		depth := 0
		for !p.at(EOF) {
			if p.atPunct("(") {
				depth++
			} else if p.atPunct(")") {
				depth--
				if depth == 0 {
					p.next()
					break
				}
			}
			p.next()
		}
	}
}

// parseDeclarator parses a (possibly abstract) declarator.
func (p *Parser) parseDeclarator(abstract bool) Declarator {
	if p.atPunct("*") {
		pos := p.next().Pos
		for p.atKeyword("const") || p.atKeyword("volatile") || p.atKeyword("restrict") || p.atKeyword("__restrict") {
			p.next()
		}
		inner := p.parseDeclarator(abstract)
		return &PointerDecl{Inner: inner, Pos_: pos}
	}
	return p.parseDirectDeclarator(abstract)
}

func (p *Parser) parseDirectDeclarator(abstract bool) Declarator {
	var d Declarator
	pos := p.tok().Pos
	switch {
	case p.at(Ident):
		d = &IdentDecl{Name: p.next().Text, Pos_: pos}
	case p.atPunct("(") && p.groupingParen():
		p.next()
		d = p.parseDeclarator(abstract)
		p.expect(")")
	default:
		// Abstract declarator spine.
		d = &IdentDecl{Pos_: pos}
		if !abstract && !p.atPunct("[") && !p.atPunct("(") {
			p.errorf("expected declarator, found %q", p.tok().Text)
		}
	}
	// Postfix: arrays and parameter lists, applied inner-to-outer.
	for {
		p.skipExtensions()
		switch {
		case p.atPunct("["):
			apos := p.next().Pos
			var size Expr
			if !p.atPunct("]") {
				size = p.parseAssignExpr()
			}
			p.expect("]")
			d = &ArrayDecl{Inner: d, Size: size, Pos_: apos}
		case p.atPunct("("):
			fpos := p.next().Pos
			f := &FuncDecl{Inner: d, Pos_: fpos}
			p.parseParamList(f)
			p.expect(")")
			d = f
		default:
			return d
		}
	}
}

// groupingParen decides whether '(' begins a parenthesized declarator
// (true) or a parameter list of an abstract function declarator (false).
func (p *Parser) groupingParen() bool {
	nxt := p.peek()
	switch nxt.Kind {
	case Punct:
		return nxt.Text == "*" || nxt.Text == "(" // (*p), ((x))
	case Keyword:
		return false // (int) → params
	case Ident:
		return !p.isTypedefName(nxt.Text)
	}
	return false
}

// parseParamList fills f.Params / f.Variadic / f.KRNames. The opening '('
// has been consumed; the caller consumes ')'.
func (p *Parser) parseParamList(f *FuncDecl) {
	if p.atPunct(")") {
		return // ()
	}
	// K&R identifier list: all plain identifiers that are not typedefs.
	if p.at(Ident) && !p.isTypedefName(p.tok().Text) {
		for {
			if !p.at(Ident) {
				p.errorf("expected parameter name")
				break
			}
			f.KRNames = append(f.KRNames, p.next().Text)
			if !p.atPunct(",") {
				break
			}
			p.next()
		}
		return
	}
	// Prototype parameters.
	for {
		if p.atPunct("...") {
			p.next()
			f.Variadic = true
			break
		}
		specs := p.parseDeclSpecs(true)
		if specs == nil {
			p.errorf("expected parameter declaration, found %q", p.tok().Text)
			p.skipPast(",", ")")
			if p.atPunct(")") || p.at(EOF) {
				break
			}
			continue
		}
		pd := &ParamDecl{Specs: specs, Pos_: specs.Pos_}
		if !p.atPunct(",") && !p.atPunct(")") {
			pd.Decl = p.parseDeclarator(true)
		}
		// `(void)` means no parameters.
		if !(len(specs.Basic) == 1 && specs.Basic[0] == "void" &&
			(pd.Decl == nil || pd.Decl.DeclName() == "" && isBareIdent(pd.Decl))) {
			f.Params = append(f.Params, pd)
		}
		if !p.atPunct(",") {
			break
		}
		p.next()
	}
}

func isBareIdent(d Declarator) bool {
	_, ok := d.(*IdentDecl)
	return ok
}

// parseTypeName parses a type-name (for casts and sizeof).
func (p *Parser) parseTypeName() *TypeName {
	pos := p.tok().Pos
	specs := p.parseDeclSpecs(false)
	if specs == nil {
		p.errorf("expected type name, found %q", p.tok().Text)
		specs = &DeclSpecs{Basic: []string{"int"}, Pos_: pos}
	}
	var d Declarator = &IdentDecl{Pos_: pos}
	if p.atPunct("*") || p.atPunct("(") || p.atPunct("[") {
		d = p.parseDeclarator(true)
	}
	return &TypeName{Specs: specs, Decl: d, Pos_: pos}
}

// parseInit parses an initializer.
func (p *Parser) parseInit() *Init {
	pos := p.tok().Pos
	if p.atPunct("{") {
		p.next()
		init := &Init{Pos_: pos}
		for !p.atPunct("}") && !p.at(EOF) {
			item := p.parseInitItem()
			init.List = append(init.List, item)
			if p.atPunct(",") {
				p.next()
			} else {
				break
			}
		}
		p.expect("}")
		if init.List == nil {
			init.List = []*Init{}
		}
		return init
	}
	return &Init{Expr: p.parseAssignExpr(), Pos_: pos}
}

func (p *Parser) parseInitItem() *Init {
	field := ""
	// Designators: `.name =`, `[expr] =` (index designators discarded).
	for {
		if p.atPunct(".") && p.peek().Kind == Ident {
			p.next()
			field = p.next().Text
			continue
		}
		if p.atPunct("[") {
			p.next()
			p.parseCondExpr()
			p.expect("]")
			continue
		}
		break
	}
	if field != "" || p.atPunct("=") {
		p.expect("=")
	}
	item := p.parseInit()
	item.Field = field
	return item
}
