package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
//
// Every placeholder is a positional slot. A `?` takes the next slot as it
// is met. A named placeholder (:name or @name) is numbered after every
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
	st, _, err := parseOne(sql)
	return st, err
}

// parseOne parses a single statement and reports its parameter shape.
func parseOne(sql string) (Stmt, paramShape, error) {
	stmts, shape, err := parseScript(sql)
	if err != nil {
		return nil, shape, err
	}
	if len(stmts) != 1 {
		return nil, shape, fmt.Errorf("sqldb: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0].st, shape, nil
}

// ParamNames returns the named placeholders of sql (:name or @name,
// without the sigil) in slot order: named values bind, in this order,
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

// bindNamed builds a parse's parameter vector: its `?` values (surplus
// ones are never referenced and are dropped), then each name's value
// from the map, looked up case-insensitively.
func (sh paramShape) bindNamed(params []Value, named map[string]Value) ([]Value, error) {
	if len(params) < sh.positional {
		return nil, fmt.Errorf("sqldb: missing value for parameter %d", len(params)+1)
	}
	vals := append(make([]Value, 0, sh.positional+len(sh.names)), params[:sh.positional]...)
	for i, n := range sh.names {
		for k, v := range named {
			if strings.EqualFold(k, n) {
				vals = append(vals, v)
				break
			}
		}
		if len(vals) == sh.positional+i {
			return nil, fmt.Errorf("sqldb: unbound named parameter :%s", n)
		}
	}
	return vals, nil
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
func parseTokens(src string, toks []token) (Stmt, paramShape, error) {
	p := &parser{src: src, toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, paramShape{}, err
	}
	for p.peekSym(";") {
		p.pos++
	}
	if p.peek().kind != tokEOF {
		return nil, paramShape{}, p.errorf("expected ';' or end of input")
	}
	return st, p.numberNamed(), nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

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

// ident consumes an identifier (or unreserved keyword used as a name).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	// Allow a few keywords as identifiers in name position (e.g. a column
	// named "value" or "key").
	if t.kind == tokKeyword {
		switch t.text {
		case "VALUE", "KEY", "START", "WORK", "TEXT", "LANGUAGE":
			p.pos++
			return t.text, nil
		}
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
	case "TRUNCATE":
		p.pos++
		p.acceptKw("TABLE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &TruncateStmt{Table: name}, nil
	case "ALTER":
		return p.parseAlter()
	case "CALL":
		return p.parseCall()
	case "BEGIN":
		p.pos++
		p.acceptKw("TRANSACTION")
		p.acceptKw("WORK")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.pos++
		p.acceptKw("TRANSACTION")
		p.acceptKw("WORK")
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.pos++
		p.acceptKw("TRANSACTION")
		p.acceptKw("WORK")
		return &RollbackStmt{}, nil
	}
	return nil, p.errorf("unsupported statement %s", t.text)
}

// parseSelect parses a SELECT or a UNION chain of them. ORDER BY, LIMIT
// and OFFSET come once, after the last arm, and belong to the combined
// result: they are recorded on the first arm, the head of the chain.
func (p *parser) parseSelect() (*SelectStmt, error) {
	s, err := p.parseSelectArm()
	if err != nil {
		return nil, err
	}
	for arm := s; p.acceptKw("UNION"); arm = arm.Union {
		arm.UnionAll = p.acceptKw("ALL")
		if arm.Union, err = p.parseSelectArm(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				oi.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, oi)
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
	if p.acceptKw("OFFSET") {
		if s.Offset, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parseSelectArm parses one SELECT up to and including HAVING.
func (p *parser) parseSelectArm() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	// Select list.
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
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, tr)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		var err error
		if s.GroupBy, err = p.parseExprList(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSym("*") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: t.*
	if p.peek().kind == tokIdent &&
		p.peekAt(1).kind == tokSymbol && p.peekAt(1).text == "." &&
		p.peekAt(2).kind == tokSymbol && p.peekAt(2).text == "*" {
		tbl := p.next().text
		p.pos += 2
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
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

// parseSource parses what FROM and JOIN range over: a table (or view)
// name or a parenthesized subquery, and its alias.
func (p *parser) parseSource() (Source, error) {
	var src Source
	var err error
	if p.acceptSym("(") {
		if src.Subquery, err = p.parseSelect(); err == nil {
			err = p.expectSym(")")
		}
	} else {
		src.Table, err = p.ident()
	}
	if err != nil {
		return Source{}, err
	}
	if p.acceptKw("AS") {
		if src.Alias, err = p.ident(); err != nil {
			return Source{}, err
		}
	} else if p.peek().kind == tokIdent {
		src.Alias = p.next().text
	}
	if src.Subquery != nil && src.Alias == "" {
		return Source{}, p.errorf("derived table requires an alias")
	}
	return src, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	src, err := p.parseSource()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Source: src}
	for {
		var kind JoinKind
		switch {
		case p.peekKw("JOIN") || (p.peekKw("INNER") && p.peekAt(1).text == "JOIN"):
			p.acceptKw("INNER")
			p.acceptKw("JOIN")
			kind = JoinInner
		case p.peekKw("LEFT"):
			p.acceptKw("LEFT")
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return TableRef{}, err
			}
			kind = JoinLeft
		case p.peekKw("CROSS"):
			p.acceptKw("CROSS")
			if err := p.expectKw("JOIN"); err != nil {
				return TableRef{}, err
			}
			kind = JoinCross
		default:
			return tr, nil
		}
		jc := JoinClause{Kind: kind}
		if jc.Source, err = p.parseSource(); err != nil {
			return TableRef{}, err
		}
		if kind != JoinCross {
			if err := p.expectKw("ON"); err != nil {
				return TableRef{}, err
			}
			if jc.On, err = p.parseExpr(); err != nil {
				return TableRef{}, err
			}
		}
		tr.Joins = append(tr.Joins, jc)
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
	case p.peekKw("UNIQUE") || p.peekKw("INDEX"):
		unique := p.acceptKw("UNIQUE")
		if err := p.expectKw("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(unique)
	case p.peekKw("SEQUENCE"):
		p.pos++
		return p.parseCreateSequence()
	case p.peekKw("PROCEDURE"):
		p.pos++
		return p.parseCreateProcedure()
	case p.peekKw("VIEW"):
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		start := p.peek().pos
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		end := len(p.src)
		if t := p.peek(); t.kind != tokEOF {
			end = t.pos
		}
		return &CreateViewStmt{Name: name, Query: q, Src: strings.TrimSpace(p.src[start:end])}, nil
	}
	return nil, p.errorf("expected TABLE, INDEX, SEQUENCE, PROCEDURE, or VIEW after CREATE")
}

func (p *parser) parseCreateTable() (Stmt, error) {
	ct := &CreateTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
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
		// Table-level PRIMARY KEY (col, ...) constraint.
		if p.peekKw("PRIMARY") {
			p.pos++
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				found := false
				for i := range ct.Columns {
					if strings.EqualFold(ct.Columns[i].Name, c) {
						ct.Columns[i].PrimaryKey = true
						ct.Columns[i].NotNull = true
						found = true
					}
				}
				if !found {
					return nil, p.errorf("PRIMARY KEY references unknown column %s", c)
				}
				if !p.acceptSym(",") {
					break
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
		} else {
			cd, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, cd)
		}
		if !p.acceptSym(",") {
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
	case "INTEGER", "INT", "BIGINT":
		cd.Type = TypeInteger
	case "FLOAT", "REAL", "DOUBLE":
		cd.Type = TypeFloat
	case "VARCHAR", "TEXT", "CHAR":
		cd.Type = TypeVarchar
		// Optional length: VARCHAR(100)
		if p.acceptSym("(") {
			if p.peek().kind != tokNumber {
				return ColumnDef{}, p.errorf("expected length")
			}
			p.pos++
			if err := p.expectSym(")"); err != nil {
				return ColumnDef{}, err
			}
		}
	case "BOOLEAN", "BOOL":
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
		case p.acceptKw("DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return ColumnDef{}, err
			}
			cd.Default = e
		default:
			return cd, nil
		}
	}
}

func (p *parser) parseCreateIndex(unique bool) (Stmt, error) {
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
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols, Unique: unique}, nil
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
	if p.acceptSym("(") && !p.acceptSym(")") {
		if cp.Params, err = p.identList(); err != nil {
			return nil, err
		}
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
	for _, kind := range []string{"TABLE", "INDEX", "SEQUENCE", "PROCEDURE", "VIEW"} {
		if !p.acceptKw(kind) {
			continue
		}
		ifExists, err := p.parseIfExists()
		if err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch kind {
		case "TABLE":
			return &DropTableStmt{Table: name, IfExists: ifExists}, nil
		case "INDEX":
			return &DropIndexStmt{Name: name, IfExists: ifExists}, nil
		case "SEQUENCE":
			return &DropSequenceStmt{Name: name, IfExists: ifExists}, nil
		case "PROCEDURE":
			return &DropProcedureStmt{Name: name, IfExists: ifExists}, nil
		}
		return &DropViewStmt{Name: name, IfExists: ifExists}, nil
	}
	return nil, p.errorf("expected TABLE, INDEX, SEQUENCE, PROCEDURE, or VIEW after DROP")
}

func (p *parser) parseAlter() (Stmt, error) {
	if err := p.expectKw("ALTER"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptKw("ADD"):
		p.acceptKw("COLUMN")
		cd, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		return &AlterTableStmt{Table: table, Kind: AlterAddColumn, Column: cd}, nil
	case p.acceptKw("DROP"):
		p.acceptKw("COLUMN")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &AlterTableStmt{Table: table, Kind: AlterDropColumn, Name: name}, nil
	case p.acceptKw("RENAME"):
		if err := p.expectKw("TO"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &AlterTableStmt{Table: table, Kind: AlterRenameTable, Name: name}, nil
	}
	return nil, p.errorf("expected ADD, DROP, or RENAME after ALTER TABLE")
}

// identList parses a non-empty comma-separated identifier list and its
// closing parenthesis: INSERT columns, index columns, procedure
// parameters.
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
	c := &CallStmt{Name: name}
	if p.acceptSym("(") {
		if !p.peekSym(")") {
			var err error
			if c.Args, err = p.parseExprList(); err != nil {
				return nil, err
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	return c, nil
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
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peekKw("AND") {
		p.pos++
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

// parsePredicate handles comparison operators and SQL predicates
// (IS NULL, BETWEEN, IN, LIKE).
func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokSymbol && (t.text == "=" || t.text == "<" || t.text == "<=" ||
			t.text == ">" || t.text == ">=" || t.text == "<>" || t.text == "!="):
			p.pos++
			op := t.text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		case t.kind == tokKeyword && t.text == "IS":
			p.pos++
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: not}
		case t.kind == tokKeyword && (t.text == "BETWEEN" || t.text == "IN" || t.text == "LIKE" || t.text == "NOT"):
			not := false
			if t.text == "NOT" {
				// NOT BETWEEN / NOT IN / NOT LIKE
				nt := p.peekAt(1)
				if nt.kind != tokKeyword || (nt.text != "BETWEEN" && nt.text != "IN" && nt.text != "LIKE") {
					return l, nil
				}
				p.pos++
				not = true
				t = p.peek()
			}
			switch t.text {
			case "BETWEEN":
				p.pos++
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}
			case "IN":
				p.pos++
				if err := p.expectSym("("); err != nil {
					return nil, err
				}
				ie := &InExpr{X: l, Not: not}
				if p.peekKw("SELECT") {
					q, err := p.parseSelect()
					if err != nil {
						return nil, err
					}
					ie.Query = q
				} else {
					var err error
					if ie.List, err = p.parseExprList(); err != nil {
						return nil, err
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				l = ie
			case "LIKE":
				p.pos++
				r, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				var e Expr = &BinaryExpr{Op: "LIKE", L: l, R: r}
				if not {
					e = &UnaryExpr{Op: "NOT", X: e}
				}
				l = e
			}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.pos++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
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
	if p.acceptSym("+") {
		return p.parseUnary()
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
		if t.text == "(" {
			p.pos++
			if p.peekKw("SELECT") {
				q, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Query: q}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Literal{Val: Null()}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: Bool(false)}, nil
		case "EXISTS":
			p.pos++
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Query: q}, nil
		case "CASE":
			return p.parseCase()
		case "NEXT":
			// NEXT VALUE FOR seq
			p.pos++
			if err := p.expectKw("VALUE"); err != nil {
				return nil, err
			}
			if err := p.expectKw("FOR"); err != nil {
				return nil, err
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &NextValueExpr{Sequence: name}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.pos++
			return p.parseFuncCall(t.text)
		case "LEFT":
			// LEFT is a join keyword but also a string function.
			if p.peekAt(1).kind == tokSymbol && p.peekAt(1).text == "(" {
				p.pos++
				return p.parseFuncCall(t.text)
			}
		case "VALUE", "KEY", "START", "WORK", "TEXT", "LANGUAGE":
			// keywords usable as identifiers
			return p.parseIdentExpr()
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
	// Function call?
	if p.peekSym("(") {
		return p.parseFuncCall(strings.ToUpper(name))
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
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptKw("DISTINCT") {
		fc.Distinct = true
	}
	if !p.peekSym(")") {
		var err error
		if fc.Args, err = p.parseExprList(); err != nil {
			return nil, err
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.peekKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKw("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{When: w, Then: th})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
