package xpath

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// --- Lexer ---

type tokKind int

const (
	tEOF tokKind = iota
	tName
	tNumber
	tString
	tSym
	tVar // $name
)

type tok struct {
	kind tokKind
	text string
	num  float64
}

func lex(src string) ([]tok, error) {
	var toks []tok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"':
			q := c
			j := i + 1
			for j < len(src) && src[j] != q {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("xpath: unterminated string literal")
			}
			toks = append(toks, tok{kind: tString, text: src[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9'):
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			f, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("xpath: bad number %q", src[i:j])
			}
			toks = append(toks, tok{kind: tNumber, num: f})
			i = j
		case c == '$':
			j := nameEnd(src, i+1)
			if j == i+1 {
				return nil, fmt.Errorf("xpath: expected variable name after $")
			}
			toks = append(toks, tok{kind: tVar, text: src[i+1 : j]})
			i = j
		case isNameStart(firstRune(src[i:])):
			j := nameEnd(src, i)
			toks = append(toks, tok{kind: tName, text: src[i:j]})
			i = j
		default:
			switch {
			case strings.HasPrefix(src[i:], "<="):
				toks = append(toks, tok{kind: tSym, text: "<="})
				i += 2
			case strings.ContainsRune("/[](),+=", rune(c)):
				toks = append(toks, tok{kind: tSym, text: string(c)})
				i++
			default:
				return nil, fmt.Errorf("xpath: unexpected character %q", string(firstRune(src[i:])))
			}
		}
	}
	toks = append(toks, tok{kind: tEOF})
	return toks, nil
}

// firstRune decodes the character s starts with (utf8.RuneError for an
// invalid sequence); an ASCII byte is its own character.
func firstRune(s string) rune {
	r := rune(s[0])
	if r >= utf8.RuneSelf {
		r, _ = utf8.DecodeRuneInString(s)
	}
	return r
}

// nameEnd returns the end of the run of name characters at src[i:].
func nameEnd(src string, i int) int {
	for i < len(src) {
		r, n := rune(src[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(src[i:])
		}
		if !isNameChar(r) {
			break
		}
		i += n
	}
	return i
}

func isNameStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == ':' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// --- AST ---

type node interface {
	evalNode(ctx *Context) (Value, error)
}

type binaryOp struct {
	op   string
	l, r node
}

type literalStr struct{ s string }

type literalNum struct{ f float64 }

type varRef struct{ name string }

type funcCall struct {
	name string
	args []node
}

// pathExpr is a relative location path, optionally continuing a primary
// expression (e.g. $var/a/b or ora:processXSQL('p')/rowsAffected).
type pathExpr struct {
	base  node // nil for plain location paths
	steps []step
}

// step is a child step: the element children named name that pass every
// predicate.
type step struct {
	name  string
	preds []node
}

// --- Parser ---

type xparser struct {
	toks []tok
	pos  int
}

// Expr is a compiled XPath expression.
type Expr struct {
	root node
	src  string
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// Compile parses an XPath expression.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &xparser{toks: toks}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tEOF {
		return nil, fmt.Errorf("xpath: unexpected trailing tokens in %q", src)
	}
	return &Expr{root: n, src: src}, nil
}

// MustCompile compiles an expression and panics on error.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Eval evaluates the expression in the given context.
func (e *Expr) Eval(ctx *Context) (Value, error) { return e.root.evalNode(ctx) }

func (p *xparser) peek() tok { return p.toks[p.pos] }

func (p *xparser) peekAt(n int) tok {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *xparser) next() tok {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *xparser) acceptSym(s string) bool {
	if t := p.peek(); t.kind == tSym && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *xparser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return fmt.Errorf("xpath: expected %q near token %d", s, p.pos)
	}
	return nil
}

// parseExpr parses an equality expression, the lowest precedence level
// the language has.
func (p *xparser) parseExpr() (node, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tSym && t.text == "=" {
			p.pos++
			r, err := p.parseRelational()
			if err != nil {
				return nil, err
			}
			l = &binaryOp{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *xparser) parseRelational() (node, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tSym && t.text == "<=" {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &binaryOp{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *xparser) parseAdditive() (node, error) {
	l, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tSym && t.text == "+" {
			p.pos++
			r, err := p.parsePath()
			if err != nil {
				return nil, err
			}
			l = &binaryOp{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

// parsePath parses a PathExpr: a relative location path, or a primary
// expression optionally continued with /steps.
func (p *xparser) parsePath() (node, error) {
	t := p.peek()
	if t.kind == tString || t.kind == tNumber || t.kind == tVar ||
		(t.kind == tName && p.peekAt(1).kind == tSym && p.peekAt(1).text == "(") {
		base, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		// Continued path: $var/a/b
		if ts := p.peek(); ts.kind == tSym && ts.text == "/" {
			pe := &pathExpr{base: base}
			if err := p.parseMoreSteps(pe); err != nil {
				return nil, err
			}
			return pe, nil
		}
		return base, nil
	}
	if t.kind == tName {
		pe := &pathExpr{}
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, st)
		if err := p.parseMoreSteps(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}
	return nil, fmt.Errorf("xpath: unexpected token in path expression")
}

func (p *xparser) parseMoreSteps(pe *pathExpr) error {
	for p.acceptSym("/") {
		st, err := p.parseStep()
		if err != nil {
			return err
		}
		pe.steps = append(pe.steps, st)
	}
	return nil
}

func (p *xparser) parseStep() (step, error) {
	t := p.next()
	if t.kind != tName {
		return step{}, fmt.Errorf("xpath: expected step")
	}
	st := step{name: t.text}
	for p.acceptSym("[") {
		pred, err := p.parseExpr()
		if err != nil {
			return st, err
		}
		if err := p.expectSym("]"); err != nil {
			return st, err
		}
		// A variable's value is a string in the engine, which as a
		// predicate keeps every node; a position is [position() = $v].
		if v, ok := pred.(*varRef); ok {
			return st, fmt.Errorf("xpath: predicate [$%s] is a bare variable; write [position() = $%s]", v.name, v.name)
		}
		st.preds = append(st.preds, pred)
	}
	return st, nil
}

func (p *xparser) parsePrimary() (node, error) {
	t := p.next()
	switch t.kind {
	case tString:
		return &literalStr{s: t.text}, nil
	case tNumber:
		return &literalNum{f: t.num}, nil
	case tVar:
		return &varRef{name: t.text}, nil
	case tName:
		if p.acceptSym("(") {
			fc := &funcCall{name: t.text}
			if !p.acceptSym(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.args = append(fc.args, a)
					if !p.acceptSym(",") {
						break
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			// A prefixed function is resolved at evaluation; an unprefixed
			// one is a core function, position() or count(path).
			if strings.Contains(fc.name, ":") || fc.name == "position" && len(fc.args) == 0 {
				return fc, nil
			}
			if fc.name == "count" && len(fc.args) == 1 {
				if _, ok := fc.args[0].(*pathExpr); ok {
					return fc, nil
				}
			}
			return nil, fmt.Errorf("xpath: unknown function %s() of %d argument(s): the core functions are position() and count(path)", fc.name, len(fc.args))
		}
	}
	return nil, fmt.Errorf("xpath: unexpected token in primary expression")
}
