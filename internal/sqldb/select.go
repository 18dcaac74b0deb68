package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// A SELECT runs as one pull pipeline:
//
//	scan → filter → join → group/accumulate → project → distinct → sort → offset/limit
//
// next() pulls the next joined row out of the FROM entries (sources) by
// backtracking over them left to right; no intermediate relation is built
// and a row is copied only into the joined-row buffer and, once, into the
// output. A plan is built once per statement slot and re-bound per
// execution (slot.go); a statement without a slot plans per execution.
// DESIGN.md §14 has the planner's rules (push-down, join choice, reuse);
// EXPLAIN prints this plan (explain.go).

// joinStrategy is how a source after the first finds its matches.
type joinStrategy uint8

const (
	joinLoop  joinStrategy = iota // rescan the filtered inner rows: CROSS/comma, or no usable equality in ON
	joinHash                      // probe a hash table built once over the filtered inner rows
	joinIndex                     // probe the inner table's index per outer row
)

// source is one FROM entry, in join order.
type source struct {
	name       string // table or view name, or the derived table's alias
	tbl        *Table
	sub        *selectPlan // derived table or view body
	viewEnv    *env        // a view runs in its own scope, not the statement's
	off, width int         // its columns' span in the joined row
	group      int         // first source of its comma-separated FROM entry: the scope its ON resolves in

	filter []predFn // WHERE conjuncts pushed down to this source
	idx    *Index   // the index their equalities probe (nil: heap scan) ...
	key    []Value  // ... and the key; for an index join, the scratch key
	kind   JoinKind
	on     Expr

	// Run state. A streamed source (first base table, index join) walks
	// row versions, checking visibility and filter as it goes; the others
	// walk the rows that passed both when the source was materialized.
	stream  bool
	heap    []*Row
	vals    [][]Value
	pos     int
	matched bool
	*join   // nil for a first source that is a base table
}

// join is how a source after the first finds its matches, and the rows
// of a source that is read once.
type join struct {
	strategy joinStrategy
	keys     []evalFn // hash/index: key expressions over the sources before
	keyCols  []int    // hash: the inner columns they equal
	jidx     *Index   // index: the index whose columns they equal
	residual []predFn // ON conjuncts the keys do not cover
	fewer    bool     // hash/index: planned while fewer rows reached the join than the inner holds
	built    bool
	all      [][]Value
	hash     map[string]int // join key → its bucket
	buckets  [][][]Value
}

// getter reads a value off the input row: a plain column in place,
// anything else through its closure.
type getter struct {
	col int
	fn  evalFn // nil: col
}

type orderKey struct {
	col  int    // output column ...
	fn   evalFn // ... or an expression over the input row (nil: col)
	desc bool
}

// group is one GROUP BY bin: its first row, for columns read outside an
// aggregate, and one accumulator per aggregate call.
type group struct {
	row  []Value
	aggs []aggState
}

// selectPlan is one SELECT (and, through union, the arms after it) ready
// to run — again and again, for a correlated subquery.
type selectPlan struct {
	s    *Session
	q    *SelectStmt
	tree *planTree // what a slotted plan re-binds (nil: planned for one execution)
	env  env       // the environment every closure of the plan runs in
	srcs []source
	buf  []Value // the joined row, when there is more than one source

	where    []predFn // WHERE conjuncts not pushed down
	items    []evalFn // select list; UPDATE's SET values
	sets     []int    // UPDATE: the column each item assigns; INSERT: each value fills
	colNames []string
	grouped  bool
	groupBy  []getter
	aggs     []aggSpec
	having   predFn
	order    []orderKey
	union    *selectPlan
	offset   evalFn // OFFSET and LIMIT, read in the enclosing scope (nil: none)
	limit    evalFn
	cells    [][]cell // INSERT … VALUES: each row's cells; CALL: its arguments
	defaults []cell   // INSERT: the DEFAULTs of the columns the rows leave out

	level    int // deepest open source; levelNew, levelDone
	rows     [][]Value
	keys     []Value // ORDER BY keys of rows, len(order) each
	groups   []*group
	groupIdx map[string]*group
	seen     map[string]struct{} // DISTINCT
	kb       []byte
	nread    int64
}

const levelNew, levelDone = -1, -2

// execSelect runs a SELECT (or UNION chain) on the slot's plan, or on
// one planned for this execution; outer supplies the parameters.
func (s *Session) execSelect(q *SelectStmt, outer *env, slot *stmtSlot) (*Result, error) {
	p, err := s.lend(slot, q, outer)
	if err != nil {
		return nil, err
	}
	res, err := p.run(outer)
	slot.put(p)
	return res, err
}

// planSelect plans q; with a tree, what an execution re-binds is recorded
// in it.
func (s *Session) planSelect(q *SelectStmt, outer *env, tree *planTree) (*selectPlan, error) {
	p := &selectPlan{s: s, q: q, tree: tree, env: env{params: outer.params, session: s, outer: outer}}
	if tree != nil {
		tree.plans = append(tree.plans, p)
	}
	for _, tr := range q.From {
		g := len(p.srcs)
		if err := p.addSource(tr.Source, JoinCross, nil, g); err != nil {
			return nil, err
		}
		for _, jc := range tr.Joins {
			if err := p.addSource(jc.Source, jc.Kind, jc.On, g); err != nil {
				return nil, err
			}
		}
	}
	if len(p.srcs) > 1 {
		p.buf = make([]Value, len(p.env.cols))
	}
	c := newCompiler(&p.env, tree)
	c.srcs = p.srcs
	p.planWhere(&c, q.Where)
	p.planJoins(&c)
	c.cols, c.shift = p.env.cols, 0
	if err := p.planOutput(&c); err != nil {
		return nil, err
	}
	if c.err != nil {
		return nil, c.err
	}
	if q.Union != nil {
		u, err := s.planSelect(q.Union, outer, tree)
		if err != nil {
			return nil, err
		}
		if len(u.colNames) != len(p.colNames) {
			return nil, fmt.Errorf("sqldb: UNION arms have %d and %d columns", len(p.colNames), len(u.colNames))
		}
		p.union = u
	}
	// OFFSET and LIMIT are counts in the enclosing scope, read once per run.
	c = newCompiler(outer, tree)
	if q.Offset != nil {
		p.offset = c.compile(q.Offset)
	}
	if q.Limit != nil {
		p.limit = c.compile(q.Limit)
	}
	return p, c.err
}

// addSource appends one FROM entry: a base table, or a view or derived
// table, whose body is planned here and run when the source is opened.
func (p *selectPlan) addSource(from Source, kind JoinKind, on Expr, group int) error {
	s, alias := p.s, from.Alias
	src := source{name: alias, kind: kind, on: on, group: group}
	var cols []colMeta
	var err error
	if from.Subquery != nil {
		src.sub, err = s.planSelect(from.Subquery, p.env.outer, p.tree)
	} else if src.tbl, err = s.db.table(from.Table); err == nil {
		src.name = src.tbl.Name
		cols = tableColMeta(src.tbl, alias)
		p.tree.stamp(src.tbl)
	} else if v, ok := s.db.views[strings.ToLower(from.Table)]; ok {
		// Views see the database, not the referencing statement's rows.
		src.name = v.Name
		src.viewEnv = &env{session: s, params: p.env.params}
		if p.tree != nil {
			p.tree.views = append(p.tree.views, src.viewEnv)
		}
		if src.sub, err = s.planSelect(v.Query, src.viewEnv, p.tree); err != nil {
			err = fmt.Errorf("sqldb: view %s: %w", v.Name, err)
		}
		if alias == "" {
			alias = v.Name
		}
	}
	if err != nil {
		return err
	}
	if src.sub != nil {
		qual := strings.ToLower(alias)
		for _, n := range src.sub.colNames {
			cols = append(cols, colMeta{table: qual, name: n})
		}
	}
	// The first base table is streamed: its row versions are read,
	// checked and filtered as the pipeline pulls.
	src.off, src.width = len(p.env.cols), len(cols)
	if src.stream = src.tbl != nil && len(p.srcs) == 0; !src.stream {
		src.join = new(join)
	}
	if len(p.srcs) == 0 {
		p.env.cols = cols
	} else {
		p.env.cols = append(p.env.cols, cols...)
	}
	p.srcs = append(p.srcs, src)
	return nil
}

// splitAnd appends the conjuncts of x, in order.
func splitAnd(x Expr, out []Expr) []Expr {
	if b, ok := x.(*BinaryExpr); ok && b.Op == "AND" {
		return splitAnd(b.R, splitAnd(b.L, out))
	}
	if x != nil {
		out = append(out, x)
	}
	return out
}

// planWhere compiles WHERE conjunct by conjunct. One that reads a single
// source and cannot fail is pushed down to it — one that can (arithmetic,
// a function, a subquery) must not meet rows the written order would
// have kept from it, and a filter below a LEFT JOIN's inner side would
// turn its misses into NULL rows. With one source everything is its filter.
func (p *selectPlan) planWhere(c *compiler, where Expr) {
	var stack [8]Expr
	var eqStack [4]equalities
	eqs := eqStack[:] // per source
	if len(p.srcs) > len(eqs) {
		eqs = make([]equalities, len(p.srcs))
	}
	for _, cj := range splitAnd(where, stack[:0]) {
		c.reset()
		fn := c.pred(cj)
		k := 0
		if len(p.srcs) != 1 {
			if k = c.lo; c.lo != c.hi || c.unsafe || p.srcs[k].kind == JoinLeft {
				p.where = append(p.where, fn)
				continue
			}
		}
		src := &p.srcs[k]
		src.filter = append(src.filter, fn)
		eqs[k].note(c, cj, src.off)
	}
	for k := range p.srcs {
		if src := &p.srcs[k]; src.tbl != nil {
			src.idx, src.key = eqs[k].probe(c, src.tbl)
		}
	}
}

// equalities collects the `column = constant` conjuncts of one table's
// filter, the ones an index probe can answer.
type equalities struct {
	cols  []int // column positions in the table ...
	vals  []Value
	exprs []Expr // ... and, for a slotted plan, what each constant was folded from
}

// note records cj if it is such a conjunct; off is the table's position
// in the compiler's row.
func (q *equalities) note(c *compiler, cj Expr, off int) {
	if t, ok := cj.(*BinaryExpr); ok && t.Op == "=" {
		if col, v, kx, ok := c.colConst(t); ok {
			q.cols, q.vals = append(q.cols, col-off), append(q.vals, v)
			if c.tree != nil {
				q.exprs = append(q.exprs, kx)
			}
		}
	}
}

// probe picks the index the equalities bind (nil: scan) and orders their
// constants as its key.
func (q *equalities) probe(c *compiler, tbl *Table) (*Index, []Value) {
	idx := chooseIndex(tbl, q.cols)
	if idx == nil {
		return nil, nil
	}
	key := make([]Value, len(idx.colIdx))
	for i, ci := range idx.colIdx {
		j := slices.Index(q.cols, ci)
		key[i] = q.vals[j]
		if c.tree != nil {
			c.need(q.exprs[j], &key[i])
		}
	}
	return idx, key
}

// planJoins picks each join's strategy. estimate is the planner's guess
// at how many rows reach the join from the sources before it.
func (p *selectPlan) planJoins(c *compiler) {
	if len(p.srcs) < 2 {
		return
	}
	estimate := p.srcs[0].rowEstimate()
	for k := 1; k < len(p.srcs); k++ {
		src := &p.srcs[k]
		var stack [8]Expr
		conjuncts := splitAnd(src.on, stack[:0])
		c.shift = p.srcs[src.group].off
		c.cols = p.env.cols[c.shift : src.off+src.width]
		// An equality between an inner column and an error-free expression
		// over the sources before can serve as a join key.
		keyOf := make([]int, len(conjuncts)) // conjunct → its position in keys, or -1
		for i, cj := range conjuncts {
			keyOf[i] = -1
			t, ok := cj.(*BinaryExpr)
			if !ok || t.Op != "=" {
				continue
			}
			for _, side := range [2][2]Expr{{t.L, t.R}, {t.R, t.L}} {
				c.reset()
				col, ok := c.column(side[0])
				if !ok || c.lo != k {
					continue
				}
				c.reset()
				if fn := c.compile(side[1]); !c.unsafe && c.hi < k {
					keyOf[i] = len(src.keys)
					src.keys, src.keyCols = append(src.keys, fn), append(src.keyCols, col-src.off)
					break
				}
			}
		}
		if src.fewer = src.tbl != nil && estimate < src.tbl.RowCount(); src.fewer && len(src.keys) > 0 {
			src.jidx = chooseIndex(src.tbl, src.keyCols)
		}
		switch {
		case len(src.keys) == 0:
			estimate *= max(src.rowEstimate(), 1)
		case src.jidx != nil:
			// Probing per outer row reads less than scanning the inner once.
			// Keys follow the index's columns; an equality it does not use
			// stays in the join condition.
			src.strategy, src.stream = joinIndex, true
			keys := make([]evalFn, len(src.jidx.colIdx))
			for i, ki := range keyOf {
				if ki < 0 {
					continue
				}
				if j := slices.Index(src.jidx.colIdx, src.keyCols[ki]); j >= 0 && keys[j] == nil {
					keys[j] = src.keys[ki]
				} else {
					keyOf[i] = -1
				}
			}
			src.keys, src.keyCols, src.idx, src.key = keys, nil, nil, make([]Value, len(keys))
		default:
			src.strategy = joinHash
		}
		for i, cj := range conjuncts {
			if keyOf[i] < 0 {
				src.residual = append(src.residual, c.pred(cj))
			}
		}
	}
}

// joinsHold re-checks, for a re-bound plan, the comparison planJoins
// based each keyed join's choice on.
func (p *selectPlan) joinsHold() bool {
	if len(p.srcs) < 2 {
		return true
	}
	estimate := p.srcs[0].rowEstimate()
	for k := 1; k < len(p.srcs); k++ {
		src := &p.srcs[k]
		if src.strategy == joinLoop {
			estimate *= max(src.rowEstimate(), 1)
		} else if src.fewer != (src.tbl != nil && estimate < src.tbl.RowCount()) {
			return false
		}
	}
	return true
}

// rowEstimate bounds how many rows a source yields before its filter:
// the probed bucket's versions, a table's live rows, and for a derived
// table — unknown until it runs — more than any table holds.
func (src *source) rowEstimate() int {
	switch {
	case src.tbl == nil:
		return 1 << 30
	case src.idx != nil:
		return src.idx.count(src.key)
	}
	return src.tbl.RowCount()
}

// chooseIndex is the one index choice, shared by SELECT sources, join
// inners, UPDATE/DELETE (planRows) and, through the plan, EXPLAIN: the
// index whose columns are all among the bound ones, nil for a scan.
// Deterministic — most columns wins, smallest name breaks ties — so
// EXPLAIN cannot name one index and the next execution probe another.
func chooseIndex(tbl *Table, bound []int) *Index {
	var best *Index
	for _, idx := range tbl.indexes {
		covered := true
		for _, ci := range idx.colIdx {
			covered = covered && slices.Contains(bound, ci)
		}
		if covered && (best == nil || len(idx.Columns) > len(best.Columns) ||
			(len(idx.Columns) == len(best.Columns) && idx.Name < best.Name)) {
			best = idx
		}
	}
	return best
}

// planOutput compiles the select list, GROUP BY, HAVING and ORDER BY.
func (p *selectPlan) planOutput(c *compiler) error {
	q := p.q
	c.aggs = &p.aggs
	// Expand * and t.* by position.
	p.items = make([]evalFn, 0, len(q.Items)+len(p.env.cols))
	p.colNames = make([]string, 0, cap(p.items))
	for _, it := range q.Items {
		if !it.Star {
			p.items = append(p.items, c.compile(it.Expr))
			p.colNames = append(p.colNames, itemName(it))
			continue
		}
		qual := strings.ToLower(it.StarTable)
		matched := false
		for i, col := range p.env.cols {
			if qual != "" && col.table != qual {
				continue
			}
			matched = true
			p.items = append(p.items, func(e *env) (Value, error) {
				if e.row == nil {
					return Null(), fmt.Errorf("sqldb: column referenced outside row context")
				}
				return e.row[i], nil
			})
			p.colNames = append(p.colNames, col.name)
		}
		if !matched && qual == "" {
			return fmt.Errorf("sqldb: SELECT * with no FROM clause")
		} else if !matched {
			return fmt.Errorf("sqldb: unknown table %s in %s.*", it.StarTable, it.StarTable)
		}
	}
	if q.Having != nil {
		p.having = c.pred(q.Having)
	}
	// An aggregate in the select list or HAVING makes the SELECT grouped
	// (one group, without GROUP BY); only then are there slots to read.
	if p.grouped = len(q.GroupBy) > 0 || q.Having != nil || c.sawAgg; !p.grouped {
		c.aggs = nil
	}
	// ORDER BY <n> and a bare name matching an output column sort by that
	// output column; anything else is evaluated over the input row (the
	// group's, in a grouped SELECT). Over a UNION only the former exist.
	for _, oi := range q.OrderBy {
		k := orderKey{col: -1, desc: oi.Desc}
		if n, ok := ordinal(oi.Expr); ok {
			if k.col = n - 1; n < 1 || n > len(p.items) {
				return fmt.Errorf("sqldb: ORDER BY position %d out of range", n)
			}
		} else if cr, ok := oi.Expr.(*ColumnRef); ok && cr.Table == "" {
			k.col = slices.IndexFunc(p.colNames, func(n string) bool { return strings.EqualFold(n, cr.Column) })
		}
		if k.col < 0 && q.Union != nil {
			return fmt.Errorf("sqldb: ORDER BY over a UNION must name an output column")
		} else if k.col < 0 {
			k.fn = c.compile(oi.Expr)
		}
		p.order = append(p.order, k)
	}
	// GROUP BY keys are read per input row; <n> names a select-list item
	// (not one a star expands to, or one after a star).
	c.aggs = nil
	for _, x := range q.GroupBy {
		if n, ok := ordinal(x); ok {
			if n < 1 || n > len(q.Items) || slices.ContainsFunc(q.Items[:n], func(it SelectItem) bool { return it.Star }) {
				return fmt.Errorf("sqldb: GROUP BY position %d out of range", n)
			}
			x = q.Items[n-1].Expr
		}
		col, ok := c.column(x)
		if !ok {
			p.groupBy = append(p.groupBy, getter{fn: c.compile(x)})
			continue
		}
		p.groupBy = append(p.groupBy, getter{col: col})
	}
	return nil
}

// ordinal matches the integer literal of ORDER BY <n> / GROUP BY <n>.
func ordinal(x Expr) (int, bool) {
	lit, ok := x.(*Literal)
	if !ok || lit.Val.K != KindInt {
		return 0, false
	}
	return int(lit.Val.I), true
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch e := it.Expr.(type) {
	case *ColumnRef:
		return e.Column
	case *FuncCall:
		return e.Name
	}
	return "expr"
}

// --- running the plan ---

// run executes the plan with outer as the enclosing row environment.
// ORDER BY, OFFSET and LIMIT written after a UNION chain belong to the
// combined result; the chain is left-associative.
func (p *selectPlan) run(outer *env) (*Result, error) {
	offset, err := count(p.offset, outer, "OFFSET", 0)
	if err != nil {
		return nil, err
	}
	limit, err := count(p.limit, outer, "LIMIT", -1)
	if err != nil {
		return nil, err
	}
	stopAt := -1
	if limit >= 0 && len(p.order) == 0 && p.union == nil {
		stopAt = offset + limit // nothing downstream needs the rows past it
	}
	rows, err := p.runArm(outer, stopAt)
	if err != nil {
		return nil, err
	}
	keys := p.keys
	if p.union != nil {
		for arm := p; arm.union != nil; arm = arm.union {
			more, err := arm.union.runArm(outer, -1)
			if err != nil {
				return nil, err
			}
			rows = append(rows, more...)
			if !arm.q.UnionAll {
				seen := map[string]struct{}{}
				rows = slices.DeleteFunc(rows, func(row []Value) bool { return p.duplicate(seen, row) })
			}
		}
		keys = make([]Value, 0, len(rows)*len(p.order))
		for _, row := range rows {
			for _, k := range p.order {
				keys = append(keys, row[k.col])
			}
		}
	}
	if nk := len(p.order); nk > 0 {
		perm := make([]int, len(rows))
		for i := range perm {
			perm[i] = i
		}
		slices.SortStableFunc(perm, func(a, b int) int {
			for j, k := range p.order {
				if c := sortCompare(keys[a*nk+j], keys[b*nk+j]); c != 0 && k.desc {
					return -c
				} else if c != 0 {
					return c
				}
			}
			return 0
		})
		sorted := make([][]Value, len(rows))
		for i, j := range perm {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	rows = rows[min(offset, len(rows)):]
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return &Result{Columns: p.colNames, Rows: rows}, nil
}

// count reads an OFFSET or LIMIT count (def when there is none).
func count(fn evalFn, outer *env, what string, def int) (int, error) {
	if fn == nil {
		return def, nil
	}
	v, err := fn(outer)
	if err != nil {
		return 0, err
	}
	n, ok := v.AsInt()
	if !ok || n < 0 {
		return 0, fmt.Errorf("sqldb: %s must be a non-negative integer", what)
	}
	return int(n), nil
}

// runArm runs this SELECT alone, up to and including DISTINCT, leaving
// the ORDER BY keys of its rows in p.keys. stopAt >= 0 ends it once that
// many rows are out.
func (p *selectPlan) runArm(outer *env, stopAt int) ([][]Value, error) {
	e := &p.env
	e.outer, e.row, e.aggs = outer, p.buf, nil
	p.level, p.rows, p.keys, p.groups, p.groupIdx, p.seen = levelNew, nil, p.keys[:0], nil, nil, nil
	for k := range p.srcs {
		if j := p.srcs[k].join; j != nil {
			j.built = false
		}
	}
	if p.grouped && len(p.groupBy) == 0 {
		// No GROUP BY: one group, present even over no rows (COUNT(*) = 0).
		p.groups = []*group{{aggs: make([]aggState, len(p.aggs))}}
	}
	defer p.countRows()
	full := func() bool { return stopAt >= 0 && len(p.rows) >= stopAt }
	for !full() {
		if ok, err := p.next(); err != nil {
			return nil, err
		} else if !ok {
			break
		}
		if ok, err := allTrue(p.where, e); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		if !p.grouped {
			if err := p.emit(); err != nil {
				return nil, err
			}
			continue
		}
		g, err := p.groupOf()
		if err != nil {
			return nil, err
		}
		for i := range p.aggs {
			g.aggs[i].add(&p.aggs[i], e, &p.kb)
		}
	}
	for _, g := range p.groups {
		if full() {
			break
		}
		e.row, e.aggs = g.row, g.aggs
		if p.having != nil {
			if ok, err := p.having(e); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
		}
		if err := p.emit(); err != nil {
			return nil, err
		}
	}
	return p.rows, nil
}

// countRows books the rows the plan's scans and probes read — visible
// row versions, counted before any filter — to the statement and the
// database.
func (p *selectPlan) countRows() {
	p.s.db.rowsRead.Add(p.nread)
	p.s.rowsScanned += p.nread
	p.nread = 0
}

func allTrue(preds []predFn, e *env) (bool, error) {
	for _, pred := range preds {
		if ok, err := pred(e); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// next advances the join to its next row, left in the environment:
// advance the deepest open source, back up to the one before when it is
// exhausted, open the one after when it is not the last.
func (p *selectPlan) next() (bool, error) {
	k := p.level
	switch {
	case k == levelDone:
		return false, nil
	case k == levelNew && len(p.srcs) == 0:
		p.level = levelDone // a FROM-less SELECT has one empty input row
		return true, nil
	case k == levelNew:
		k = 0
		if err := p.open(0); err != nil {
			return false, err
		}
	}
	for k >= 0 {
		ok, err := p.advance(k)
		if err != nil {
			return false, err
		}
		if !ok {
			k--
			continue
		}
		if k == len(p.srcs)-1 {
			p.level = k
			return true, nil
		}
		k++
		if err := p.open(k); err != nil {
			return false, err
		}
	}
	p.level = levelDone
	return false, nil
}

// open positions source k before its first candidate for the row the
// sources before it currently hold.
func (p *selectPlan) open(k int) error {
	src := &p.srcs[k]
	src.pos, src.matched, src.heap, src.vals = 0, false, nil, nil
	if src.join == nil {
		src.heap = p.candidates(src)
		return nil
	}
	if !src.stream && !src.built {
		if err := p.materialize(src); err != nil {
			return err
		}
	}
	if src.strategy == joinLoop {
		src.vals = src.all
		return nil
	}
	kb := p.kb[:0]
	for i, fn := range src.keys {
		v, err := fn(&p.env)
		if err != nil {
			return err
		}
		if src.strategy == joinIndex {
			src.key[i] = v // a NULL finds nothing: lookup refuses it ...
		} else {
			kb = appendKey(kb, v) // ... and no hashed key holds one
		}
	}
	if p.kb = kb; src.strategy == joinIndex {
		src.heap = src.jidx.lookup(src.key)
	} else if i, ok := src.hash[string(kb)]; ok {
		src.vals = src.buckets[i]
	}
	return nil
}

// candidates fetches a base table's row versions: the probed index
// bucket or the heap snapshot (latch-free; versions are filtered through
// the statement's snapshot as they are read).
func (p *selectPlan) candidates(src *source) []*Row {
	p.s.notePlan(src.tbl, src.idx)
	if src.idx != nil {
		return src.idx.lookup(src.key)
	}
	return src.tbl.snapshotRows()
}

// place makes vals source src's part of the current row.
func (p *selectPlan) place(src *source, vals []Value) {
	if p.buf == nil {
		p.env.row = vals
	} else {
		copy(p.buf[src.off:], vals)
	}
}

// materialize reads a source that is rescanned or hashed once: its
// visible rows that pass its pushed-down filter, and for a hash join the
// table from key to rows.
func (p *selectPlan) materialize(src *source) error {
	src.built = true
	var rows [][]Value
	if src.sub != nil {
		outer := p.env.outer
		if src.viewEnv != nil {
			outer = src.viewEnv
		}
		res, err := src.sub.run(outer)
		if err != nil && src.viewEnv != nil {
			err = fmt.Errorf("sqldb: view %s: %w", src.name, err)
		}
		if err != nil {
			return err
		}
		rows = res.Rows
	} else {
		for _, r := range p.candidates(src) {
			if p.s.rowVisible(r) {
				rows = append(rows, r.Values)
			}
		}
		p.nread += int64(len(rows))
	}
	if len(src.filter) > 0 {
		kept := rows[:0]
		for _, vals := range rows {
			p.place(src, vals)
			if ok, err := allTrue(src.filter, &p.env); err != nil {
				return err
			} else if ok {
				kept = append(kept, vals)
			}
		}
		rows = kept
	}
	if src.all = rows; src.strategy != joinHash {
		return nil
	}
	src.hash, src.buckets = make(map[string]int, len(rows)), nil
rows:
	for _, vals := range rows {
		kb := p.kb[:0]
		for _, ci := range src.keyCols {
			if vals[ci].IsNull() {
				continue rows // NULL equals nothing
			}
			kb = appendKey(kb, vals[ci])
		}
		p.kb = kb
		i, ok := src.hash[string(kb)]
		if !ok {
			i = len(src.buckets)
			src.hash[string(kb)] = i
			src.buckets = append(src.buckets, nil)
		}
		src.buckets[i] = append(src.buckets[i], vals)
	}
	return nil
}

// advance moves source k to its next candidate that is visible and
// passes its filter and join condition, and makes it part of the current
// row. A LEFT JOIN's inner side that had none yields NULLs once.
func (p *selectPlan) advance(k int) (bool, error) {
	src, e := &p.srcs[k], &p.env
	for src.pos < max(len(src.heap), len(src.vals)) {
		var vals []Value
		if src.pos++; src.stream {
			r := src.heap[src.pos-1]
			if !p.s.rowVisible(r) {
				continue
			}
			p.nread++
			vals = r.Values
		} else {
			vals = src.vals[src.pos-1]
		}
		p.place(src, vals)
		if src.stream {
			if ok, err := allTrue(src.filter, e); err != nil {
				return false, err
			} else if !ok {
				continue
			}
		}
		if src.join != nil {
			if ok, err := allTrue(src.residual, e); err != nil {
				return false, err
			} else if !ok {
				continue
			}
		}
		src.matched = true
		return true, nil
	}
	if src.kind == JoinLeft && !src.matched {
		src.matched = true
		clear(p.buf[src.off : src.off+src.width])
		return true, nil
	}
	return false, nil
}

// groupOf finds or starts the current row's group.
func (p *selectPlan) groupOf() (*group, error) {
	e := &p.env
	if len(p.groupBy) == 0 {
		g := p.groups[0]
		if g.row == nil {
			g.row = p.stableRow()
		}
		return g, nil
	}
	kb := p.kb[:0]
	for _, k := range p.groupBy {
		if k.fn == nil {
			kb = appendValueKey(kb, e.row[k.col])
			continue
		}
		v, err := k.fn(e)
		if err != nil {
			return nil, err
		}
		kb = appendValueKey(kb, v)
	}
	p.kb = kb
	// Lookups convert the scratch key with string(kb), which the compiler
	// keeps off the heap — only a new group pays for a string copy.
	g, ok := p.groupIdx[string(kb)]
	if !ok {
		if p.groupIdx == nil {
			p.groupIdx = map[string]*group{}
		}
		g = &group{row: p.stableRow(), aggs: make([]aggState, len(p.aggs))}
		p.groupIdx[string(kb)] = g
		p.groups = append(p.groups, g)
	}
	return g, nil
}

// stableRow is the current row in a form that outlives the next one.
func (p *selectPlan) stableRow() []Value {
	if p.buf != nil {
		return slices.Clone(p.buf)
	}
	return p.env.row // a stored row version or a subquery's result row: never overwritten
}

// emit projects the current row (or group) into the output, unless
// DISTINCT has seen it, and computes its ORDER BY keys while the input
// is at hand.
func (p *selectPlan) emit() error {
	e := &p.env
	out := make([]Value, len(p.items))
	var err error
	for i, fn := range p.items {
		if out[i], err = fn(e); err != nil {
			return err
		}
	}
	if p.q.Distinct {
		if p.seen == nil {
			p.seen = map[string]struct{}{}
		}
		if p.duplicate(p.seen, out) {
			return nil
		}
	}
	for _, k := range p.order {
		if p.union != nil {
			break // a UNION's keys are read off the combined rows
		}
		v := Value{}
		if k.fn == nil {
			v = out[k.col]
		} else if v, err = k.fn(e); err != nil {
			return err
		}
		p.keys = append(p.keys, v)
	}
	p.rows = append(p.rows, out)
	return nil
}

// duplicate reports, and remembers, whether seen holds an equal row
// (DISTINCT, UNION).
func (p *selectPlan) duplicate(seen map[string]struct{}, row []Value) bool {
	kb := p.kb[:0]
	for _, v := range row {
		kb = appendValueKey(kb, v)
	}
	p.kb = kb
	if _, dup := seen[string(kb)]; dup {
		return true
	}
	seen[string(kb)] = struct{}{}
	return false
}

// appendValueKey appends one value's self-delimiting key segment for
// GROUP BY, DISTINCT and UNION, which — unlike an index probe — keep 1
// and 1.0 apart: the kind, then the index key encoding.
func appendValueKey(b []byte, v Value) []byte {
	return appendKey(append(b, '0'+byte(v.K)), v)
}
