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
	joinHash                      // probe a hash table built per run over the filtered inner rows
	joinIndex                     // probe the inner table's index per outer row
)

// source is one FROM entry, in join order.
type source struct {
	name       string // table name
	tbl        *Table
	off, width int // its columns' span in the joined row
	group      int // first source of its comma-separated FROM entry: the scope its ON resolves in

	filter []predFn // WHERE conjuncts pushed down to this source
	idx    *Index   // the index their equalities probe (nil: heap scan) ...
	key    []Value  // ... and the key; for an index join, the scratch key
	kind   JoinKind
	on     Expr

	// Run state. A streamed source (first base table, index join) walks
	// row versions, checking visibility and filter as it goes; the others
	// walk the rows that passed both when the source was materialized.
	stream bool
	heap   []*Row
	probe  []*Row // the source's copy of its index bucket, reused by every probe
	vals   [][]Value
	pos    int
	*join  // nil for the first source
}

// join is how a source after the first finds its matches, and the rows
// of a source that is read once per run (materialize).
type join struct {
	strategy joinStrategy
	keys     []evalFn // hash/index: key expressions over the sources before
	keyCols  []int    // hash: the inner columns they equal
	jidx     *Index   // index: the index whose columns they equal
	residual []predFn // ON conjuncts the keys do not cover
	fewer    bool     // hash/index: planned while fewer rows reached the join than the inner holds
	built    bool
	all      [][]Value
	hash     map[string]int // every join key seen → its bucket; an empty bucket is a miss
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

// groupTable numbers one run's GROUP BY bins in first-seen order. Bin g
// is an ordinal into two slabs: first, its first row (for columns read
// outside an aggregate), first[g*w:(g+1)*w] for rows w wide, and aggs,
// its len(p.aggs) aggStates. A plan keeps the table for every run of its
// slot: reset empties it, keeping its memory.
type groupTable struct {
	strs, keys map[string]int
	n          int
	first      []Value
	aggs       []aggState
}

// idleCap is the most entries an idle plan or session keeps a buffer's
// memory for — group bins, probe copies, sort permutations, write sets,
// latch sets, parameters; a statement that used more drops the buffer.
const idleCap = 1024

func (t *groupTable) reset() {
	clear(t.strs)
	clear(t.keys)
	clear(t.first)
	clear(t.aggs)
	t.n, t.first, t.aggs = 0, t.first[:0], t.aggs[:0]
}

// add starts bin t.n with a copy of its first row and na zeroed slots.
func (t *groupTable) add(row []Value, na int) {
	t.n++
	t.first = append(t.first, row...)
	t.aggs = slices.Grow(t.aggs, na)[:len(t.aggs)+na] // zero past len: reset cleared what a run used
}

// numberKey is number for a key encoded in kb (GROUP BY, DISTINCT and
// hash-join keys). The lookup converts kb without a copy: only a new
// key is copied.
func numberKey(m *map[string]int, kb []byte, n int) int {
	if g, ok := (*m)[string(kb)]; ok {
		return g
	}
	return number(m, string(kb), n)
}

// number finds k in *m, or numbers it n.
func number(m *map[string]int, k string, n int) int {
	g, ok := (*m)[k]
	if !ok {
		if *m == nil {
			*m = map[string]int{}
		}
		g, (*m)[k] = n, n
	}
	return g
}

// selectPlan is one SELECT ready to run — or the row filter of an
// UPDATE/DELETE, the rows of an INSERT, the arguments of a CALL.
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
	order    []orderKey
	offset   evalFn // OFFSET and LIMIT, read in the enclosing scope (nil: none)
	limit    evalFn
	query    *selectPlan // INSERT … SELECT: the rows
	cells    [][]cell    // INSERT … VALUES: each row's cells; CALL: its arguments
	defaults []cell      // INSERT: the DEFAULTs of the columns the rows leave out
	version  []Value     // INSERT, UPDATE: a new version's values, in table order

	level  int // deepest open source; levelNew, levelDone
	rows   [][]Value
	last   int     // rows the last run emitted: the next run's size hint
	keys   []Value // ORDER BY keys of rows, len(order) each
	perm   []int   // ORDER BY: the sorted order of rows
	groups groupTable
	out    []Value        // backing the next output rows are cut from
	seen   map[string]int // DISTINCT
	kb     []byte
	nread  int64
}

const levelNew, levelDone = -1, -2

// execSelect runs a SELECT on the slot's plan, or on
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
	p := &selectPlan{s: s, q: q, tree: tree, env: env{params: outer.params, session: s}}
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

// addSource appends one FROM entry, a base table. The first is streamed:
// its row versions are read, checked and filtered as the pipeline pulls.
func (p *selectPlan) addSource(from Source, kind JoinKind, on Expr, group int) error {
	tbl, err := p.s.db.table(from.Table)
	if err != nil {
		return err
	}
	p.tree.stamp(tbl)
	cols := tableColMeta(tbl, from.Alias)
	src := source{name: tbl.Name, tbl: tbl, kind: kind, on: on, group: group, off: len(p.env.cols), width: len(cols)}
	if src.stream = len(p.srcs) == 0; !src.stream {
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
// a function) must not meet rows the written order would have kept from
// it. With one source everything is its filter.
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
			if k = c.lo; c.lo != c.hi || c.unsafe {
				p.where = append(p.where, fn)
				continue
			}
		}
		src := &p.srcs[k]
		src.filter = append(src.filter, fn)
		eqs[k].note(c, cj, src.off)
	}
	for k := range p.srcs {
		src := &p.srcs[k]
		src.idx, src.key = eqs[k].probe(c, src.tbl)
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
		if src.fewer = estimate < src.tbl.RowCount(); src.fewer && len(src.keys) > 0 {
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
		} else if src.fewer != (estimate < src.tbl.RowCount()) {
			return false
		}
	}
	return true
}

// rowEstimate bounds how many rows a source yields before its filter:
// the probed bucket's versions, else the table's live rows.
func (src *source) rowEstimate() int {
	if src.idx != nil {
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

// planOutput compiles the select list, GROUP BY and ORDER BY.
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
	// An aggregate in the select list makes the SELECT grouped (one group,
	// without GROUP BY); only then are there slots to read.
	if p.grouped = len(q.GroupBy) > 0 || c.sawAgg; !p.grouped {
		c.aggs = nil
	}
	// ORDER BY <n> and a bare name matching an output column sort by that
	// output column; anything else is evaluated over the input row (the
	// group's, in a grouped SELECT).
	for _, oi := range q.OrderBy {
		k := orderKey{col: -1, desc: oi.Desc}
		if n, ok := ordinal(oi.Expr); ok {
			if k.col = n - 1; n < 1 || n > len(p.items) {
				return fmt.Errorf("sqldb: ORDER BY position %d out of range", n)
			}
		} else if cr, ok := oi.Expr.(*ColumnRef); ok && cr.Table == "" {
			k.col = slices.IndexFunc(p.colNames, func(n string) bool { return strings.EqualFold(n, cr.Column) })
		}
		if k.col < 0 {
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

// run executes the plan; outer is the statement's scope, which OFFSET and
// LIMIT are read in.
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
	if limit >= 0 && len(p.order) == 0 {
		stopAt = offset + limit // nothing downstream needs the rows past it
	}
	rows, err := p.runRows(stopAt)
	if err != nil {
		return nil, err
	}
	keys := p.keys
	if nk := len(p.order); nk > 0 {
		p.perm = p.perm[:0]
		for i := range rows {
			p.perm = append(p.perm, i)
		}
		slices.SortStableFunc(p.perm, func(a, b int) int {
			for j, k := range p.order {
				if c := sortCompare(keys[a*nk+j], keys[b*nk+j]); c != 0 && k.desc {
					return -c
				} else if c != 0 {
					return c
				}
			}
			return 0
		})
		permute(rows, p.perm)
	}
	rows = rows[min(offset, len(rows)):]
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return &Result{Columns: p.colNames, Rows: p.fit(rows)}, nil
}

// fit returns rows as they are if their slice and backing hold at most
// twice as many, else copied exact: a Result never holds more than twice
// its rows, whatever the size hint, filter or cut.
func (p *selectPlan) fit(rows [][]Value) [][]Value {
	n := len(rows)
	if n == 0 {
		return nil
	} else if 2*n >= cap(rows) {
		return rows
	}
	w := len(rows[0])
	out, fit := make([]Value, n*w), make([][]Value, n)
	for i, row := range rows {
		fit[i] = append(out[i*w:i*w:(i+1)*w], row...)
	}
	return fit
}

// permute reorders rows in place so that row i is the one perm[i] named,
// following each cycle of perm once; it spends perm.
func permute(rows [][]Value, perm []int) {
	for i := range perm {
		first, j := rows[i], i
		for k := perm[j]; k >= 0; k = perm[j] {
			if rows[j], perm[j] = rows[k], -1; k == i {
				rows[j] = first
			}
			j = k
		}
	}
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

// runRows runs the SELECT up to and including DISTINCT, leaving the ORDER
// BY keys of its rows in p.keys. stopAt >= 0 ends it once that many rows
// are out.
func (p *selectPlan) runRows(stopAt int) ([][]Value, error) {
	e := &p.env
	e.row, e.aggs = p.buf, nil
	p.level, p.rows, p.out, p.keys, p.seen = levelNew, nil, nil, p.keys[:0], nil
	t, na := &p.groups, len(p.aggs)
	t.reset()
	for k := range p.srcs {
		if j := p.srcs[k].join; j != nil {
			j.built = false
		}
	}
	if p.grouped && len(p.groupBy) == 0 {
		// No GROUP BY: one group, present even over no rows (COUNT(*) = 0).
		t.add(nil, na)
	} else if hint := int(min(uint(p.last), idleCap, uint(stopAt))); !p.grouped && hint > 0 {
		p.grow(hint) // as many rows as the last run emitted, within stopAt (< 0: none) and idleCap
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
		states := t.aggs[g*na:]
		for i := range p.aggs {
			states[i].add(&p.aggs[i], e, &p.kb)
		}
	}
	if p.grouped {
		p.grow(t.n)
	}
	for g, w := 0, len(e.cols); g < t.n && !full(); g++ {
		e.row, e.aggs = nil, t.aggs[g*na:(g+1)*na]
		if len(t.first) > 0 { // else no GROUP BY and no rows
			e.row = t.first[g*w : (g+1)*w : (g+1)*w]
		}
		if err := p.emit(); err != nil {
			return nil, err
		}
	}
	p.last = len(p.rows)
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
	src.pos, src.heap, src.vals = 0, nil, nil
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
		src.probe = src.jidx.appendLookup(src.probe[:0], src.key)
		src.heap = src.probe
	} else if i, ok := src.hash[string(kb)]; ok {
		src.vals = src.buckets[i]
	}
	return nil
}

// candidates fetches a base table's row versions: the probed index
// bucket, copied into src.probe, or the heap snapshot (latch-free;
// versions are filtered through the statement's snapshot as read).
func (p *selectPlan) candidates(src *source) []*Row {
	p.s.notePlan(src.tbl, src.idx)
	if src.idx != nil {
		src.probe = src.idx.appendLookup(src.probe[:0], src.key)
		return src.probe
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

// materialize reads a source that is rescanned or hashed once per run:
// its visible rows that pass its pushed-down filter into src.all, and for
// a hash join each into its key's bucket. The list, the buckets and the
// key dictionary are the plan's: every run truncates and refills them.
func (p *selectPlan) materialize(src *source) error {
	src.built = true
	src.all = src.all[:0]
	for _, r := range p.candidates(src) {
		if !p.s.rowVisible(r) {
			continue
		}
		p.nread++
		vals := r.Values
		if len(src.filter) > 0 {
			p.place(src, vals)
			if ok, err := allTrue(src.filter, &p.env); err != nil {
				return err
			} else if !ok {
				continue
			}
		}
		src.all = append(src.all, vals)
	}
	if src.strategy != joinHash {
		return nil
	}
	for i := range src.buckets {
		src.buckets[i] = src.buckets[i][:0]
	}
rows:
	for _, vals := range src.all {
		kb := p.kb[:0]
		for _, ci := range src.keyCols {
			if vals[ci].IsNull() {
				continue rows // NULL equals nothing
			}
			kb = appendKey(kb, vals[ci])
		}
		p.kb = kb
		if i := numberKey(&src.hash, kb, len(src.buckets)); i < len(src.buckets) {
			src.buckets[i] = append(src.buckets[i], vals)
		} else {
			src.buckets = append(src.buckets, [][]Value{vals})
		}
	}
	return nil
}

// advance moves source k to its next candidate that is visible and
// passes its filter and join condition, and makes it part of the current
// row.
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
		return true, nil
	}
	return false, nil
}

// groupOf finds or starts the current row's group: its ordinal. One
// VARCHAR key probes the table's strs, every other key its keys, encoded
// with appendValueKey.
func (p *selectPlan) groupOf() (int, error) {
	e, t := &p.env, &p.groups
	if len(p.groupBy) == 0 {
		if len(t.first) == 0 {
			t.first = append(t.first, e.row...)
		}
		return 0, nil
	}
	var v Value
	var err error
	g, kb := -1, p.kb[:0]
	for _, k := range p.groupBy {
		if k.fn == nil {
			v = e.row[k.col]
		} else if v, err = k.fn(e); err != nil {
			return 0, err
		}
		if len(p.groupBy) == 1 && v.K == KindString {
			g = number(&t.strs, v.S, t.n)
		} else {
			kb = appendValueKey(kb, v)
		}
	}
	if p.kb = kb; g < 0 {
		g = numberKey(&t.keys, kb, t.n)
	}
	if g == t.n {
		t.add(e.row, len(p.aggs))
	}
	return g, nil
}

// grow gives the run room for n more output rows: a backing for them and
// as much capacity in p.rows, exactly (fit reads the backings' size off it).
func (p *selectPlan) grow(n int) {
	rows := make([][]Value, len(p.rows), len(p.rows)+n)
	copy(rows, p.rows)
	p.out, p.rows = make([]Value, n*len(p.items)), rows
}

// emit projects the current row (or group) into the output, unless
// DISTINCT has seen it, and computes its ORDER BY keys while the input
// is at hand. Rows are cut from a backing, p.out, which a grouped run
// sizes for all its groups and any other run for the rows its plan
// emitted last time, doubling it past them.
func (p *selectPlan) emit() error {
	e, w := &p.env, len(p.items)
	if len(p.out) < w {
		p.grow(max(len(p.rows), 1))
	}
	out := p.out[:w:w]
	var err error
	for i, fn := range p.items {
		if out[i], err = fn(e); err != nil {
			return err
		}
	}
	if p.q.Distinct {
		if p.duplicate(&p.seen, out) {
			return nil
		}
	}
	for _, k := range p.order {
		v := Value{}
		if k.fn == nil {
			v = out[k.col]
		} else if v, err = k.fn(e); err != nil {
			return err
		}
		p.keys = append(p.keys, v)
	}
	p.rows, p.out = append(p.rows, out), p.out[w:]
	return nil
}

// duplicate reports, and remembers, whether seen holds an equal row
// (DISTINCT).
func (p *selectPlan) duplicate(seen *map[string]int, row []Value) bool {
	kb := p.kb[:0]
	for _, v := range row {
		kb = appendValueKey(kb, v)
	}
	p.kb = kb
	n := len(*seen)
	return numberKey(seen, kb, n) < n
}

// appendValueKey appends one value's self-delimiting key segment for
// GROUP BY and DISTINCT, which — unlike an index probe — keep 1
// and 1.0 apart: the kind, then the index key encoding.
func appendValueKey(b []byte, v Value) []byte {
	return appendKey(append(b, '0'+byte(v.K)), v)
}
