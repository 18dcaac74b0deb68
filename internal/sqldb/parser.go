package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
//
// Every placeholder is a positional slot. A `?` takes the next slot as it
// is met. A named placeholder (@name) is numbered after every
// `?` of the parse (numberNamed), in order of first appearance, and a
// repeated name — compared case-insensitively — reuses its slot; so a
// parameter vector carries the named values as its tail.
type parser struct {
	src    string
	toks   []token
	pos    int
	params int         // positional slots seen: ? placeholders
	names  []string    // named placeholders, in order of first appearance
	named  []*ParamRef // their references; Index is the name's ordinal until numberNamed
}

// Parse parses a single SQL statement.
func Parse(sql string) (Stmt, error) {
	stmts, _, err := parseScript(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqldb: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0].st, nil
}

// ParamNames returns the named placeholders of sql (@name, without the
// sigil) in slot order: named values bind, in this order,
// after the statement's `?` values. A name repeated in any letter case
// is one slot and is listed once, as first written.
func ParamNames(sql string) ([]string, error) {
	_, shape, err := parseScript(sql)
	return shape.names, err
}

// paramShape is a parse's slots: its `?`s, then its names.
type paramShape struct {
	positional int
	names      []string
}

// numberNamed moves each named placeholder past the parse's `?`s.
func (p *parser) numberNamed() paramShape {
	for _, r := range p.named {
		r.Index += p.params
	}
	return paramShape{positional: p.params, names: p.names}
}

// scriptStmt is one statement of a script with its source text: the
// span from its first token to its last, taken from token offsets —
// never by splitting on ';', which procedure bodies contain.
type scriptStmt struct {
	st   Stmt
	text string
}

// parseScript parses a script as one parse: its `?`s are numbered across
// the statements, and its named placeholders after all of them.
func parseScript(sql string) ([]scriptStmt, paramShape, error) {
	toks, err := newLexer(sql).lexAll()
	if err != nil {
		return nil, paramShape{}, err
	}
	p := &parser{src: sql, toks: toks}
	var stmts []scriptStmt
	for {
		for p.peekSym(";") {
			p.pos++
		}
		if p.peek().kind == tokEOF {
			break
		}
		first := p.peek().pos
		s, err := p.parseStmt()
		if err != nil {
			return nil, paramShape{}, err
		}
		stmts = append(stmts, scriptStmt{st: s, text: sql[first:p.toks[p.pos-1].end]})
		if !p.peekSym(";") && p.peek().kind != tokEOF {
			return nil, paramShape{}, p.errorf("expected ';' or end of input")
		}
	}
	if len(stmts) == 0 {
		return nil, paramShape{}, fmt.Errorf("sqldb: empty statement")
	}
	return stmts, p.numberNamed(), nil
}

// parseTokens parses a single statement from a pre-lexed token stream —
// the normalizer's slotted output (see normalizeStmt). src is the
// original text, kept for error offsets. Positional placeholder indexes
// are assigned in token order, so a stream whose literals were replaced
// by `?` tokens parses into a plan whose parameter numbering matches
// the normalizer's slot pattern exactly, and whose named placeholders
// follow every slot of that pattern.
func parseTokens(src string, toks []token) (Stmt, error) {
	p := &parser{src: src, toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	for p.peekSym(";") {
		p.pos++
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("expected ';' or end of input")
	}
	p.numberNamed()
	return st, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) peekKw(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) peekSym(s string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == s
}

func (p *parser) acceptKw(kw string) bool {
	if p.peekKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptSym(s string) bool {
	if p.peekSym(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errorf("expected %q", s)
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.peek()
	what := "end of input"
	if t.kind != tokEOF {
		what = fmt.Sprintf("%q", t.text)
		if t.kind == tokNumber {
			what = t.num.String()
		}
	}
	return fmt.Errorf("sqldb: parse error near %s (offset %d): %s", what, t.pos, fmt.Sprintf(format, args...))
}

// ident consumes an identifier; no keyword is one.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	return "", p.errorf("expected identifier")
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement keyword")
	}
	switch t.text {
	case "EXPLAIN":
		p.pos++
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: q}, nil
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "CALL":
		return p.parseCall()
	case "BEGIN":
		p.pos++
		return &BeginStmt{}, nil
	case "COMMIT":
		p.pos++
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.pos++
		return &RollbackStmt{}, nil
	}
	return nil, p.errorf("unsupported statement %s", t.text)
}

// parseSelect parses a SELECT, with its ORDER BY and LIMIT.
func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	var err error
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		if s.From, err = p.parseFrom(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseKey()
			if err != nil {
				return nil, err
			}
			if s.GroupBy = append(s.GroupBy, e); !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseKey()
			if err != nil {
				return nil, err
			}
			s.OrderBy = append(s.OrderBy, OrderItem{Expr: e, Desc: p.acceptKw("DESC")})
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		if s.Limit, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parseKey parses a GROUP BY or ORDER BY key, which does not begin with a
// literal or a parameter: a number there is no position in the select
// list. The normalizer makes every literal a parameter, so the error
// names the offset only, as both paths see it.
func (p *parser) parseKey() (Expr, error) {
	if t := p.peek(); t.kind == tokNumber || t.kind == tokString || t.kind == tokParam {
		return nil, fmt.Errorf("sqldb: parse error at offset %d: a GROUP BY or ORDER BY key is no constant", t.pos)
	}
	return p.parseExpr()
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSym("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if item.Alias, err = p.alias(); err != nil {
		return SelectItem{}, err
	}
	return item, nil
}

// notAliases are the words that begin a join or set operation the dialect
// refuses, and HAVING and OFFSET. None is an alias: taken as one, `FROM a
// LEFT JOIN b ON …` would run as an inner join of a aliased LEFT.
var notAliases = map[string]bool{
	"LEFT": true, "RIGHT": true, "FULL": true, "INNER": true, "OUTER": true,
	"NATURAL": true, "CROSS": true, "UNION": true, "INTERSECT": true,
	"EXCEPT": true, "ALL": true, "HAVING": true, "OFFSET": true,
}

// alias parses an optional alias, with or without AS.
func (p *parser) alias() (string, error) {
	as := p.acceptKw("AS")
	t := p.peek()
	if t.kind == tokIdent && notAliases[strings.ToUpper(t.text)] {
		return "", p.errorf("%s is not in the dialect", strings.ToUpper(t.text))
	}
	if !as && t.kind != tokIdent {
		return "", nil
	}
	return p.ident()
}

// parseExprList parses one or more comma-separated expressions.
func (p *parser) parseExprList() ([]Expr, error) {
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if list = append(list, e); !p.acceptSym(",") {
			return list, nil
		}
	}
}

// parseFrom parses what FROM ranges over: a table and its alias, then
// each JOIN's table, alias and ON condition.
func (p *parser) parseFrom() ([]Source, error) {
	var from []Source
	for {
		var src Source
		var err error
		if src.Table, err = p.ident(); err != nil {
			return nil, err
		}
		if src.Alias, err = p.alias(); err != nil {
			return nil, err
		}
		if len(from) > 0 {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			if src.On, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if from = append(from, src); !p.acceptKw("JOIN") {
			return from, nil
		}
	}
}

func (p *parser) parseInsert() (Stmt, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.acceptSym("(") {
		if ins.Columns, err = p.identList(); err != nil {
			return nil, err
		}
	}
	if p.peekKw("SELECT") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		row, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSym(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Sets = append(u.Sets, SetClause{Column: col, Value: e})
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = e
	}
	return u, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: table}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

func (p *parser) parseCreate() (Stmt, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.peekKw("TABLE"):
		p.pos++
		return p.parseCreateTable()
	case p.peekKw("INDEX"):
		p.pos++
		return p.parseCreateIndex()
	case p.peekKw("SEQUENCE"):
		p.pos++
		return p.parseCreateSequence()
	case p.peekKw("PROCEDURE"):
		p.pos++
		return p.parseCreateProcedure()
	}
	return nil, p.errorf("expected TABLE, INDEX, SEQUENCE or PROCEDURE after CREATE")
}

func (p *parser) parseCreateTable() (Stmt, error) {
	ct := &CreateTableStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct.Table = name
	if p.acceptKw("AS") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ct.AsQuery = q
		return ct, nil
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for {
		cd, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		if ct.Columns = append(ct.Columns, cd); !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	cd := ColumnDef{Name: name}
	t := p.next()
	if t.kind != tokKeyword {
		return ColumnDef{}, p.errorf("expected column type for %s", name)
	}
	switch t.text {
	case "INTEGER":
		cd.Type = TypeInteger
	case "FLOAT":
		cd.Type = TypeFloat
	case "VARCHAR":
		cd.Type = TypeVarchar
	case "BOOLEAN":
		cd.Type = TypeBoolean
	default:
		return ColumnDef{}, p.errorf("unsupported column type %s", t.text)
	}
	for {
		switch {
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return ColumnDef{}, err
			}
			cd.NotNull = true
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return ColumnDef{}, err
			}
			cd.PrimaryKey = true
			cd.NotNull = true
		default:
			return cd, nil
		}
	}
}

func (p *parser) parseCreateIndex() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cols, err := p.identList()
	if err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols}, nil
}

func (p *parser) parseCreateSequence() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cs := &CreateSequenceStmt{Name: name, Start: 1, Increment: 1}
	for {
		switch {
		case p.acceptKw("START"):
			if err := p.expectKw("WITH"); err != nil {
				return nil, err
			}
			n, err := p.parseSignedInt()
			if err != nil {
				return nil, err
			}
			cs.Start = n
		case p.acceptKw("INCREMENT"):
			if err := p.expectKw("BY"); err != nil {
				return nil, err
			}
			n, err := p.parseSignedInt()
			if err != nil {
				return nil, err
			}
			cs.Increment = n
		default:
			return cs, nil
		}
	}
}

func (p *parser) parseSignedInt() (int64, error) {
	neg := p.acceptSym("-")
	t := p.next()
	if t.kind != tokNumber || t.num.K != KindInt {
		return 0, p.errorf("expected integer")
	}
	if neg {
		return -t.num.I, nil
	}
	return t.num.I, nil
}

func (p *parser) parseCreateProcedure() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cp := &CreateProcedureStmt{Name: name}
	if err := p.parens(); err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokString {
		return nil, p.errorf("expected string literal procedure body")
	}
	cp.Body = t.text
	return cp, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	proc := p.acceptKw("PROCEDURE")
	if !proc {
		if err := p.expectKw("TABLE"); err != nil {
			return nil, p.errorf("expected TABLE or PROCEDURE after DROP")
		}
	}
	ifExists, err := p.parseIfExists()
	if err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if proc {
		return &DropProcedureStmt{Name: name, IfExists: ifExists}, nil
	}
	return &DropTableStmt{Table: name, IfExists: ifExists}, nil
}

// identList parses a non-empty comma-separated identifier list and its
// closing parenthesis: INSERT columns, index columns.
func (p *parser) identList() ([]string, error) {
	var names []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if names = append(names, name); !p.acceptSym(",") {
			return names, p.expectSym(")")
		}
	}
}

// parseIfExists consumes an optional IF EXISTS clause.
func (p *parser) parseIfExists() (bool, error) {
	if !p.acceptKw("IF") {
		return false, nil
	}
	if err := p.expectKw("EXISTS"); err != nil {
		return false, err
	}
	return true, nil
}

func (p *parser) parseCall() (Stmt, error) {
	if err := p.expectKw("CALL"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &CallStmt{Name: name}, p.parens()
}

// parens parses the empty argument list of a procedure: (). A procedure
// takes no parameters.
func (p *parser) parens() error {
	if err := p.expectSym("("); err != nil {
		return err
	}
	return p.expectSym(")")
}

// --- Expression parsing (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCompare()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseCompare()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

// The operator tables the expression parser reads: each holds the
// operator tokens of one precedence level.
var (
	compareOps  = []string{"=", "<>", "<", "<=", ">", ">="}
	additiveOps = []string{"+"}
)

func (p *parser) parseCompare() (Expr, error) {
	return p.parseLevel(compareOps, p.parseAdditive)
}

func (p *parser) parseAdditive() (Expr, error) {
	return p.parseLevel(additiveOps, p.parseUnary)
}

// parseLevel parses one left-associative precedence level: operands
// joined by the operators of ops.
func (p *parser) parseLevel(ops []string, operand func() (Expr, error)) (Expr, error) {
	l, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || !slices.Contains(ops, t.text) {
			return l, nil
		}
		p.pos++
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: t.text, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSym("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		return &Literal{Val: t.num}, nil
	case tokString:
		p.pos++
		return &Literal{Val: Str(t.text)}, nil
	case tokParam:
		p.pos++
		if t.text != "?" {
			// A named placeholder: its name's ordinal, made a slot by
			// numberNamed once the parse has counted its `?`s.
			i := slices.IndexFunc(p.names, func(n string) bool { return strings.EqualFold(n, t.text) })
			if i < 0 {
				i, p.names = len(p.names), append(p.names, t.text)
			}
			ref := &ParamRef{Index: i}
			p.named = append(p.named, ref)
			return ref, nil
		}
		idx := p.params
		p.params++
		return &ParamRef{Index: idx}, nil
	case tokSymbol:
		if p.acceptSym("(") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expectSym(")")
		}
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Literal{Val: Null()}, nil
		case "TRUE", "FALSE":
			p.pos++
			return &Literal{Val: Bool(t.text == "TRUE")}, nil
		case "COUNT", "SUM":
			p.pos++
			return p.parseFuncCall(t.text)
		}
	case tokIdent:
		return p.parseIdentExpr()
	}
	return nil, p.errorf("expected expression")
}

// parseIdentExpr parses a column reference (possibly qualified) or a scalar
// function call, starting at an identifier token.
func (p *parser) parseIdentExpr() (Expr, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// A call of a scalar function; the parser knows no other.
	if p.peekSym("(") {
		up := strings.ToUpper(name)
		if _, ok := scalarFuncs[up]; !ok {
			return nil, p.errorf("unknown function %s", up)
		}
		return p.parseFuncCall(up)
	}
	// Qualified reference "t.c".
	if p.acceptSym(".") {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Column: col}, nil
	}
	return &ColumnRef{Column: name}, nil
}

// parseFuncCall parses NAME(args) where the name token has been consumed.
func (p *parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.acceptSym("*") {
		fc.Star = true
		return fc, p.expectSym(")")
	}
	if name == "COUNT" && p.acceptKw("DISTINCT") {
		fc.Distinct = true
	}
	if !p.peekSym(")") {
		var err error
		if fc.Args, err = p.parseExprList(); err != nil {
			return nil, err
		}
	}
	return fc, p.expectSym(")")
}
