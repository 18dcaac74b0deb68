package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// This file holds the executor the pull pipeline (select.go) replaced —
// materialize every table of FROM, nested-loop join them into one
// relation, filter it, bin it into groups, re-walk each bin per
// aggregate, project, sort — kept in the test tree as the slow obvious
// oracle, and the differential test that runs both over seeded random
// queries. The oracle scans heaps only (no index, no push-down, no hash
// table), evaluates every expression with the tree-walking interpreter
// (eval, compile_diff_test.go), and resolves names lazily, on the first
// row that reaches them.
// Aggregates, which eval no longer reaches on its own, are bound first:
// slowBind replaces each by the literal the oracle computed for the
// current group — eagerly, so the oracle may raise an error on a branch a
// short-circuit would have skipped. It never evaluates less than the
// pipeline.

type slowRel struct {
	cols []colMeta
	rows [][]Value
}

// slowOut is one output row with what ORDER BY may still need: the input
// environment it was projected from and, in a grouped SELECT, its group.
type slowOut struct {
	row   []Value
	e     *env
	group [][]Value
}

// slowSelect executes a SELECT: its rows, then its ORDER BY and LIMIT.
func (s *Session) slowSelect(q *SelectStmt, outer *env) (*Result, error) {
	outs, cols, err := s.slowRows(q, outer)
	if err != nil {
		return nil, err
	}
	if err := s.slowOrder(q, cols, outs); err != nil {
		return nil, err
	}
	res := &Result{Columns: cols}
	for _, o := range outs {
		res.Rows = append(res.Rows, o.row)
	}
	if q.Limit != nil {
		n, err := evalLimit(q.Limit, outer)
		if err != nil {
			return nil, err
		}
		res.Rows = res.Rows[:min(n, len(res.Rows))]
	}
	return res, nil
}

func appendRowKey(b []byte, row []Value) []byte {
	for _, v := range row {
		b = appendValueKey(b, v)
	}
	return b
}

// slowRows executes a SELECT up to its ORDER BY.
func (s *Session) slowRows(q *SelectStmt, outer *env) ([]slowOut, []string, error) {
	rel, err := s.slowFrom(q, outer.params)
	if err != nil {
		return nil, nil, err
	}
	makeEnv := func(row []Value) *env {
		return &env{cols: rel.cols, row: row, params: outer.params, session: s}
	}
	if q.Where != nil {
		filtered := rel.rows[:0:0]
		for _, row := range rel.rows {
			v, err := s.slowEval(q.Where, makeEnv(row), nil)
			if err != nil {
				return nil, nil, err
			}
			if v.Truth() {
				filtered = append(filtered, row)
			}
		}
		rel.rows = filtered
	}

	// Expand the projection, resolving stars by position.
	var items []Expr
	var colNames []string
	for _, it := range q.Items {
		if !it.Star {
			items = append(items, it.Expr)
			colNames = append(colNames, itemName(it))
			continue
		}
		if len(rel.cols) == 0 {
			return nil, nil, fmt.Errorf("sqldb: SELECT * with no FROM clause")
		}
		for i, c := range rel.cols {
			items = append(items, slowCol(i))
			colNames = append(colNames, c.name)
		}
	}

	var outs []slowOut
	project := func(e *env, group [][]Value) error {
		out := make([]Value, len(items))
		for i, x := range items {
			if out[i], err = s.slowEval(x, e, group); err != nil {
				return err
			}
		}
		outs = append(outs, slowOut{out, e, group})
		return nil
	}
	if len(q.GroupBy) > 0 || selectHasAggregate(q) {
		groups, err := s.slowGroups(q, rel, makeEnv)
		if err != nil {
			return nil, nil, err
		}
		for _, g := range groups {
			var first []Value
			if len(g) > 0 {
				first = g[0]
			} else {
				g = [][]Value{} // the empty group is still a group
			}
			if err := project(makeEnv(first), g); err != nil {
				return nil, nil, err
			}
		}
	} else {
		for _, row := range rel.rows {
			if err := project(makeEnv(row), nil); err != nil {
				return nil, nil, err
			}
		}
	}
	return outs, colNames, nil
}

// selectHasAggregate reports an aggregate call in the select list.
func selectHasAggregate(q *SelectStmt) bool {
	found := false
	find := func(x Expr) {
		walkExpr(x, func(n Expr) {
			if f, ok := n.(*FuncCall); ok && slices.Contains(aggregateNames, f.Name) {
				found = true
			}
		})
	}
	for _, it := range q.Items {
		find(it.Expr)
	}
	return found
}

// slowCol reads a fixed position of the current row: star expansion
// without name re-resolution.
type slowCol int

func (slowCol) exprNode() {}

// slowFrom assembles the working relation: every table of FROM scanned
// whole, each JOIN applied to the relation before it.
func (s *Session) slowFrom(q *SelectStmt, params []Value) (*slowRel, error) {
	rel := &slowRel{rows: [][]Value{nil}}
	for i, from := range q.From {
		r, err := s.slowSource(from)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			rel = r
		} else if rel, err = s.slowJoin(rel, r, from.On, params); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// slowSource produces the relation for one table of FROM: its visible
// rows.
func (s *Session) slowSource(from Source) (*slowRel, error) {
	tbl, err := s.db.table(from.Table)
	if err != nil {
		return nil, err
	}
	rel := &slowRel{cols: tableColMeta(tbl, from.Alias)}
	for _, r := range tbl.snapshotRows() {
		if s.rowVisible(r) {
			rel.rows = append(rel.rows, r.Values)
		}
	}
	return rel, nil
}

func (s *Session) slowJoin(l, r *slowRel, on Expr, params []Value) (*slowRel, error) {
	out := &slowRel{cols: append(append([]colMeta{}, l.cols...), r.cols...)}
	for _, lr := range l.rows {
		for _, rr := range r.rows {
			row := append(append([]Value{}, lr...), rr...)
			v, err := s.slowEval(on, &env{cols: out.cols, row: row, params: params, session: s}, nil)
			if err != nil {
				return nil, err
			}
			if v.Truth() {
				out.rows = append(out.rows, row)
			}
		}
	}
	return out, nil
}

// slowGroups partitions the relation by the GROUP BY key. With no GROUP
// BY all rows form one group — including the empty one, so that COUNT(*)
// over nothing is 0.
func (s *Session) slowGroups(q *SelectStmt, rel *slowRel, makeEnv func([]Value) *env) ([][][]Value, error) {
	if len(q.GroupBy) == 0 {
		return [][][]Value{rel.rows}, nil
	}
	idx := map[string]int{}
	var bins [][][]Value
	for _, row := range rel.rows {
		var kb []byte
		for _, x := range q.GroupBy {
			v, err := s.slowEval(x, makeEnv(row), nil)
			if err != nil {
				return nil, err
			}
			kb = appendValueKey(kb, v)
		}
		p, ok := idx[string(kb)]
		if !ok {
			p = len(bins)
			idx[string(kb)] = p
			bins = append(bins, nil)
		}
		bins[p] = append(bins[p], row)
	}
	return bins, nil
}

// slowOrder stably sorts outs by the ORDER BY keys: a bare name matching
// an output column sorts by that column, anything else is evaluated in
// the row's input environment.
func (s *Session) slowOrder(q *SelectStmt, colNames []string, outs []slowOut) error {
	keys := make([][]Value, len(outs))
	for i, o := range outs {
		for _, oi := range q.OrderBy {
			var v Value
			cr, isRef := oi.Expr.(*ColumnRef)
			col := -1
			if isRef && cr.Table == "" {
				col = slices.IndexFunc(colNames, func(n string) bool { return strings.EqualFold(n, cr.Column) })
			}
			if col >= 0 {
				v = o.row[col]
			} else {
				var err error
				if v, err = s.slowEval(oi.Expr, o.e, o.group); err != nil {
					return err
				}
			}
			keys[i] = append(keys[i], v)
		}
	}
	perm := make([]int, len(outs))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		for j, oi := range q.OrderBy {
			c := sortCompare(keys[a][j], keys[b][j])
			if oi.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	sorted := make([]slowOut, len(outs))
	for i, j := range perm {
		sorted[i] = outs[j]
	}
	copy(outs, sorted)
	return nil
}

// slowEval evaluates x in e with the interpreter, after binding what the
// interpreter cannot reach: aggregates over group (non-nil inside a
// grouped SELECT's output clauses).
func (s *Session) slowEval(x Expr, e *env, group [][]Value) (Value, error) {
	bound, err := s.slowBind(x, e, group)
	if err != nil {
		return Null(), err
	}
	return eval(bound, e)
}

// slowBind returns x with every aggregate (when group is non-nil) and
// star column replaced by its value as a literal. Untouched subtrees are
// shared, not copied.
func (s *Session) slowBind(x Expr, e *env, group [][]Value) (Expr, error) {
	bind := func(y Expr) (Expr, error) { return s.slowBind(y, e, group) }
	var err error
	switch t := x.(type) {
	case slowCol:
		if e.row == nil {
			return nil, fmt.Errorf("sqldb: column referenced outside row context")
		}
		return &Literal{Val: e.row[t]}, nil
	case *BinaryExpr:
		c := *t
		if c.L, err = bind(t.L); err == nil {
			c.R, err = bind(t.R)
		}
		return &c, err
	case *UnaryExpr:
		c := *t
		c.X, err = bind(t.X)
		return &c, err
	case *FuncCall:
		if slices.Contains(aggregateNames, t.Name) && group != nil {
			v, err := s.slowAggregate(t, e, group)
			return &Literal{Val: v}, err
		}
		c := *t
		c.Args = make([]Expr, len(t.Args))
		for i, a := range t.Args {
			if c.Args[i], err = bind(a); err != nil {
				return nil, err
			}
		}
		return &c, nil
	}
	return x, nil
}

// child is e's scope with another row, for an aggregate's argument.
func (e *env) child(cols []colMeta, row []Value) *env {
	return &env{cols: cols, row: row, params: e.params, session: e.session}
}

// slowAggregate re-walks the whole group for one aggregate call.
func (s *Session) slowAggregate(t *FuncCall, e *env, group [][]Value) (Value, error) {
	if t.Name == "COUNT" && t.Star {
		return Int(int64(len(group))), nil
	}
	if len(t.Args) != 1 {
		return Null(), fmt.Errorf("sqldb: aggregate %s requires one argument", t.Name)
	}
	var vals []Value
	seen := map[string]bool{}
	for _, row := range group {
		// The argument is a per-row expression: an aggregate inside it
		// is the misuse error, so it is bound with no group.
		v, err := s.slowEval(t.Args[0], e.child(e.cols, row), nil)
		if err != nil {
			return Null(), err
		}
		if k := string(appendValueKey(nil, v)); v.IsNull() || t.Distinct && seen[k] {
			continue
		} else {
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch {
	case t.Name == "COUNT":
		return Int(int64(len(vals))), nil
	case len(vals) == 0:
		return Null(), nil
	}
	allInt := true
	var fi int64
	var ff float64
	for _, v := range vals {
		f, ok := v.AsFloat()
		if !ok {
			return Null(), fmt.Errorf("sqldb: %s over non-numeric value", t.Name)
		}
		ff += f
		fi += v.I
		allInt = allInt && v.K == KindInt
	}
	if allInt {
		return Int(fi), nil
	}
	return Float(ff), nil
}

// --- the differential test ---

// The generated schema: ta has a primary key; the other indexes are drawn
// per seed, so the same join runs indexed and unindexed. k is INTEGER in
// ta and tb and FLOAT in tc (1 = 1.0 must join), s holds digits as
// strings (1 = '1' must not), every column but ta.id has NULLs.
var slowTables = []struct {
	name string
	ddl  string
	cols []string // name:kind, kind one of i f s b
}{
	{"ta", "CREATE TABLE ta (id INTEGER PRIMARY KEY, k INTEGER, f FLOAT, s VARCHAR, b BOOLEAN)", []string{"id:i", "k:i", "f:f", "s:s", "b:b"}},
	{"tb", "CREATE TABLE tb (id INTEGER, k INTEGER, f FLOAT, s VARCHAR)", []string{"id:i", "k:i", "f:f", "s:s"}},
	{"tc", "CREATE TABLE tc (n INTEGER, k FLOAT, s VARCHAR)", []string{"n:i", "k:f", "s:s"}},
}

var slowIndexes = []string{
	"CREATE INDEX ta_k ON ta (k)", "CREATE INDEX tb_k ON tb (k)", "CREATE INDEX tb_ks ON tb (k, s)",
	"CREATE INDEX tb_id ON tb (id)", "CREATE INDEX tc_k ON tc (k)", "CREATE INDEX tc_s ON tc (s)", "CREATE INDEX tc_n ON tc (n)",
}

// slowRef is a column in scope: alias.name and its kind letter.
type slowRef struct{ text, kind string }

func (g *exprGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

// slowLit draws a literal of the column kind from a domain small enough
// that joins and groups collide.
func (g *exprGen) slowLit(kind string, nulls bool) string {
	if nulls && g.oneIn(6) {
		return "NULL"
	}
	switch kind {
	case "i":
		return g.pick("0", "1", "2", "3")
	case "f":
		return g.pick("0.0", "0.5", "1.0", "2.0", "3.0")
	case "s":
		return g.pick("'a'", "'b'", "'1'", "'2'")
	}
	return g.pick("TRUE", "FALSE")
}

func (g *exprGen) ref(refs []slowRef, kinds string) slowRef {
	for {
		if r := refs[g.rng.Intn(len(refs))]; strings.Contains(kinds, r.kind) {
			return r
		}
	}
}

// slowCond draws one boolean conjunct over refs. Most shapes cannot
// fail; a negated string, or a number plus a boolean, can.
func (g *exprGen) slowCond(refs []slowRef, depth int) string {
	num := func() slowRef { return g.ref(refs, "if") }
	cmp := func() string { return g.pick("=", "<>", "<", "<=", ">", ">=") }
	switch n := g.rng.Intn(24); {
	case n < 10:
		r := g.ref(refs, "ifsb")
		return fmt.Sprintf("%s %s %s", r.text, g.pick("=", "=", "<>", "<", ">="), g.slowLit(r.kind, true))
	case n < 14:
		return fmt.Sprintf("%s %s %s", num().text, cmp(), num().text)
	case n < 18 && depth > 0:
		return fmt.Sprintf("(%s %s %s)", g.slowCond(refs, depth-1), g.pick("OR", "OR", "AND"), g.slowCond(refs, depth-1))
	case n == 18:
		return fmt.Sprintf("-%s %s 2", g.ref(refs, "s").text, cmp()) // an error on a row whose string is not NULL
	case n == 19:
		return fmt.Sprintf("%s + %s %s 2", num().text, g.ref(refs, "ifsb").text, cmp()) // a string concatenates, a boolean fails
	}
	return fmt.Sprintf("%s = %s", g.ref(refs, "i").text, g.slowLit("i", false))
}

// slowQuery draws one SELECT and reports whether it names a column that
// does not exist (the pipeline must reject it whatever the data) and
// whether its ORDER BY is total (results compare as lists).
func (g *exprGen) slowQuery() (sql string, badName, total bool) {
	var b strings.Builder
	var refs []slowRef // columns in scope
	var from []string
	aliases := []string{"a", "b", "c"}
	addTable := func(alias string) (string, []slowRef) {
		t := slowTables[g.rng.Intn(len(slowTables))]
		var rs []slowRef
		for _, c := range t.cols {
			name, kind, _ := strings.Cut(c, ":")
			rs = append(rs, slowRef{alias + "." + name, kind})
		}
		return t.name + " " + alias, rs
	}
	n := 1 + g.rng.Intn(3)
	if g.oneIn(3) {
		n = 1
	}
	for i := 0; i < n; i++ {
		text, rs := addTable(aliases[i])
		if i == 0 {
			from, refs = append(from, text), rs
			continue
		}
		// ON sees the tables up to its own, and holds a key: an equality of
		// an inner column and an error-free expression over the tables before.
		all := append(append([]slowRef{}, refs...), rs...)
		inner := func(kinds string) slowRef { return g.ref(rs, kinds) }
		outer := func(kinds string) slowRef { return g.ref(refs, kinds) }
		on := fmt.Sprintf("%s = %s", outer("if").text, inner("if").text) // int/float keys, either side
		switch g.rng.Intn(8) {
		case 0:
			on = fmt.Sprintf("%s = %s", inner("ifs").text, outer("ifs").text) // may be int = string: never equal
		case 1:
			on += " AND " + g.slowCond(all, 1)
		case 2:
			on += fmt.Sprintf(" AND %s = %s", outer("s").text, inner("s").text)
		case 3:
			on = fmt.Sprintf("%s + 1 = %s AND %s", outer("if").text, inner("if").text, on) // a key expression that can fail is no key
		case 4:
			on += fmt.Sprintf(" AND %s %s %s", outer("if").text, g.pick("<", ">=", "<>"), inner("if").text)
		case 5:
			on += fmt.Sprintf(" AND (%s = %s OR %s)", outer("if").text, inner("if").text, g.slowCond(all, 0))
		}
		from = append(from, "JOIN "+text+" ON "+on)
		refs = all
	}

	var where []string
	for i := g.rng.Intn(4); i > 0; i-- {
		where = append(where, g.slowCond(refs, 2))
	}
	if g.oneIn(12) {
		where = append(where, "a.nosuch = 1")
		badName = true
	}

	// names are the output columns' names when every item is named: then
	// the items as trailing keys make the order total, and only then may
	// LIMIT cut it.
	var items, names, order []string
	name := func(item, alias string) {
		items, names = append(items, item+" AS "+alias), append(names, alias)
	}
	star := g.oneIn(6)
	total = !star && g.oneIn(2)
	switch {
	case g.oneIn(3): // grouped
		var groupBy []string
		for i := g.rng.Intn(3); i > 0; i-- {
			r := g.ref(refs, "ifsb")
			name(r.text, fmt.Sprintf("g%d", len(items)))
			groupBy = append(groupBy, r.text)
		}
		var aggTexts []string
		for i := g.rng.Intn(3) + 1; i > 0; i-- {
			r := g.ref(refs, "ifs")
			agg := g.pick("COUNT(*)", "COUNT(%s)", "COUNT(DISTINCT %s)", "SUM(%s)", "SUM(%s + 1)")
			if strings.Contains(agg, "%s") {
				agg = fmt.Sprintf(agg, r.text)
			}
			aggTexts = append(aggTexts, agg)
			name(agg, fmt.Sprintf("agg%d", len(aggTexts)-1))
		}
		b.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + strings.Join(from, " "))
		if len(where) > 0 {
			b.WriteString(" WHERE " + strings.Join(where, " AND "))
		}
		if len(groupBy) > 0 {
			b.WriteString(" GROUP BY " + strings.Join(groupBy, ", "))
		}
		if g.oneIn(2) { // an aggregate, or an aggregate's alias, as a leading key
			order = append(order, g.pick(g.pick(aggTexts...), "agg0")+g.pick("", " DESC"))
		}
	default:
		if star {
			items = append(items, "*")
		}
		for i := g.rng.Intn(3) + 1; i > 0 && !(star && i == 1); i-- {
			r := g.ref(refs, "ifsb")
			item := g.pick(r.text, r.text, fmt.Sprintf("%s + 1", g.ref(refs, "ifs").text), fmt.Sprintf("%s = %s", r.text, g.slowLit(r.kind, false)))
			if total || g.oneIn(2) {
				name(item, fmt.Sprintf("c%d", i))
			} else {
				items = append(items, item)
			}
		}
		if g.oneIn(20) {
			items = append(items, "b.nosuch")
			badName, total = true, false
		}
		b.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + strings.Join(from, " "))
		if len(where) > 0 {
			b.WriteString(" WHERE " + strings.Join(where, " AND "))
		}
		if g.oneIn(2) { // an input column or expression the output may not hold as a leading key
			r := g.ref(refs, "ifsb")
			order = append(order, g.pick(r.text, r.text, "c1", fmt.Sprintf("%s = %s", r.text, g.slowLit(r.kind, false)))+g.pick("", " DESC"))
			if strings.HasPrefix(order[0], "c1") && !slices.Contains(names, "c1") {
				order = nil
			}
		}
	}
	if total {
		for _, n := range names {
			order = append(order, n+g.pick("", " DESC"))
		}
	}
	if len(order) > 0 {
		b.WriteString(" ORDER BY " + strings.Join(order, ", "))
	}
	if total && g.oneIn(2) {
		b.WriteString(" LIMIT " + g.pick("0", "1", "3", "10"))
	}
	return b.String(), badName, total
}

// TestPipelineMatchesMaterializingExecutor runs seeded random SELECTs —
// one to three tables, hash and index joins, pushable and non-pushable
// WHERE conjuncts, NULL and mixed-kind join keys, grouping and every
// aggregate, ORDER BY / LIMIT, indexed and unindexed inners —
// through the pipeline and through the materializing executor
// above, from a session holding uncommitted changes and from one that
// cannot see them. Results must be equal, as lists when the ORDER BY is
// total and as multisets otherwise. The pipeline evaluates no more than
// the oracle, so it may succeed where the oracle raises a data error
// (a negation on a row push-down removed), never the reverse; the one
// exception is a name that does not resolve, which the pipeline rejects
// when it plans and the oracle only when a row reaches it.
func TestPipelineMatchesMaterializingExecutor(t *testing.T) {
	const seeds, queriesPerSeed = 200, 12
	var same, bothErr, oracleOnlyErr, eagerName int
	for seed := int64(1); seed <= seeds; seed++ {
		g := &exprGen{rng: rand.New(rand.NewSource(seed))}
		db := Open("diff")
		for _, tbl := range slowTables {
			db.MustExec(tbl.ddl)
		}
		for _, ddl := range slowIndexes {
			if g.oneIn(2) {
				db.MustExec(ddl)
			}
		}
		insert := func(s *Session, tbl int, id int) {
			t.Helper()
			vals := []string{fmt.Sprint(id)}
			for _, c := range slowTables[tbl].cols[1:] {
				vals = append(vals, g.slowLit(c[len(c)-1:], true))
			}
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", slowTables[tbl].name, strings.Join(vals, ", "))); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		committed, pending := db.Session(), db.Session()
		for tbl := range slowTables {
			for id := g.rng.Intn(10); id > 0; id-- { // sometimes empty
				insert(committed, tbl, id)
			}
		}
		// pending sees its own uncommitted inserts, updates and deletes.
		pending.Exec("BEGIN")
		for tbl := range slowTables {
			insert(pending, tbl, 11+g.rng.Intn(3))
			if _, err := pending.Exec(fmt.Sprintf("UPDATE %s SET k = %s WHERE s = %s", slowTables[tbl].name, g.slowLit("i", true), g.slowLit("s", false))); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if _, err := pending.Exec("DELETE FROM tb WHERE id = " + g.slowLit("i", false)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// The oracle runs as a native procedure: inside the calling
		// session's statement, under its snapshot and open transaction.
		var q *SelectStmt
		db.RegisterProcedure("slow_oracle", func(s *Session) (*Result, error) {
			return s.slowSelect(q, &env{session: s})
		})
		for i := 0; i < queriesPerSeed; i++ {
			sql, badName, total := g.slowQuery()
			st, err := Parse(sql)
			if err != nil {
				t.Fatalf("seed %d: generated %s: %v", seed, sql, err)
			}
			q = st.(*SelectStmt)
			for _, s := range []*Session{pending, committed} {
				got, gotErr := s.Exec(sql)
				want, wantErr := s.Exec("CALL slow_oracle()")
				if _, err := s.Exec("EXPLAIN " + sql); err != nil && gotErr == nil {
					t.Fatalf("seed %d: EXPLAIN fails (%v) on a query that runs: %s", seed, err, sql)
				}
				unresolved := func(err error) bool { return err != nil && strings.Contains(err.Error(), "unknown column") }
				switch {
				case badName && !unresolved(gotErr):
					t.Fatalf("seed %d: unknown column not rejected (%v): %s", seed, gotErr, sql)
				case badName:
					eagerName++
				case gotErr != nil && wantErr == nil:
					t.Fatalf("seed %d: pipeline fails where the oracle succeeds: %v\n  %s", seed, gotErr, sql)
				case gotErr != nil:
					bothErr++
				case unresolved(wantErr):
					t.Fatalf("seed %d: oracle cannot resolve a generated name: %v\n  %s", seed, wantErr, sql)
				case wantErr != nil:
					oracleOnlyErr++ // a data error on a row or branch the pipeline never evaluated
				default:
					same++
					if diff := diffResults(got, want, total); diff != "" {
						plan, _ := s.Exec("EXPLAIN " + sql)
						t.Fatalf("seed %d: results differ: %s\n  %s\n  pipeline %v\n  oracle   %v\n  plan %v", seed, diff, sql, got.Rows, want.Rows, plan.Rows)
					}
				}
			}
		}
		pending.Rollback()
		for _, tbl := range slowTables {
			checkIndexes(t, db.tables[tbl.name])
		}
	}
	t.Logf("%d equal results, %d errors in both, %d data errors in the oracle only, %d names rejected at plan time", same, bothErr, oracleOnlyErr, eagerName)
	if all := same + bothErr + oracleOnlyErr + eagerName; same < all/2 || oracleOnlyErr == 0 || eagerName == 0 {
		t.Fatalf("degenerate generator")
	}
}

// diffResults compares two results, as lists or as multisets of rows.
func diffResults(got, want *Result, ordered bool) string {
	if !slices.Equal(got.Columns, want.Columns) {
		return fmt.Sprintf("columns %v vs %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows vs %d", len(got.Rows), len(want.Rows))
	}
	g, w := slices.Clone(got.Rows), slices.Clone(want.Rows)
	if !ordered {
		byKey := func(a, b []Value) int {
			return strings.Compare(string(appendRowKey(nil, a)), string(appendRowKey(nil, b)))
		}
		slices.SortFunc(g, byKey)
		slices.SortFunc(w, byKey)
	}
	for i := range g {
		if !slices.EqualFunc(g[i], w[i], sameValue) {
			return fmt.Sprintf("row %d: %v vs %v", i, g[i], w[i])
		}
	}
	return ""
}
