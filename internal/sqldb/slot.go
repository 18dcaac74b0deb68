package sqldb

import "sync/atomic"

// A parsed statement owns one stmtSlot wherever it is kept: the plan
// cache entry, a PreparedStmt, a ParsedQuery, a procedure body. The slot
// holds one idle compiled plan. An execution takes the plan with one
// swap, re-binds it to its session and parameters, runs it and puts it
// back; an execution that
// finds the slot empty — the first, or one beside a concurrent execution
// of the same text — plans afresh on the same path, and its plan is the
// one put back. A plan is therefore run by one goroutine at a time.
type stmtSlot struct {
	plan atomic.Pointer[selectPlan]
}

// planTree is what an execution re-binds and re-checks before it runs a
// slotted plan again (DESIGN.md §14).
type planTree struct {
	db      *DB
	gen     int64         // db.footGen at planning: procedures
	tables  []tableStamp  // every table resolved, at its schema version
	plans   []*selectPlan // the root and, for INSERT … SELECT, its query
	binds   []bind        // parameters the plan folded or relied on
	discard bool          // not kept: planned with a parameter missing, or a cell that failed to compile
}

type tableStamp struct {
	t   *Table
	ver int64
}

// bind is a parameter read at planning: re-read per execution into dst,
// the comparand, probe key or cell it was folded into (nil: the plan only
// relied on its being bound, which decided what may be pushed down).
type bind struct {
	ref *ParamRef
	dst *Value
}

// lendHook, when set (tests only), sees every plan an execution holds
// (true) and gives back (false).
var lendHook func(p *selectPlan, held bool)

// lend returns a plan for st (a SELECT, UPDATE/DELETE's row filter, an
// INSERT's rows) bound to this execution: the slot's
// idle plan if it still holds, else a new one — kept for the slot when
// there is one.
func (s *Session) lend(slot *stmtSlot, st Stmt, outer *env) (p *selectPlan, err error) {
	if slot != nil {
		if p = slot.plan.Swap(nil); p != nil && !p.tree.rebind(s, outer) {
			p = nil
		}
	}
	if p == nil {
		var tree *planTree
		if slot != nil {
			tree = &planTree{db: s.db, gen: s.db.footGen.Load()}
		}
		s.db.compiles.Add(1)
		switch t := st.(type) {
		case *SelectStmt:
			p, err = s.planSelect(t, outer, tree)
		case *UpdateStmt:
			p, err = s.planRows(t.Table, t.Where, t.Sets, outer, tree)
		case *DeleteStmt:
			p, err = s.planRows(t.Table, t.Where, nil, outer, tree)
		case *InsertStmt:
			p, err = s.planInsert(t, outer, tree)
		}
		if err != nil {
			return nil, err
		}
	}
	if lendHook != nil {
		lendHook(p, true)
	}
	return p, nil
}

// put gives a plan back to its slot, holding nothing of the run: an idle
// plan must not keep the last result, heap snapshot or bound values alive.
func (slot *stmtSlot) put(p *selectPlan) {
	if lendHook != nil {
		lendHook(p, false)
	}
	if slot == nil || p.tree.discard {
		return
	}
	for _, q := range p.tree.plans {
		q.idle()
	}
	for _, b := range p.tree.binds {
		if b.dst != nil {
			*b.dst = Value{}
		}
	}
	slot.plan.Store(p)
}

// rebind points the tree at this execution's session and parameters and
// reports whether it is still the plan a fresh planning would build: same
// database, no table or procedure it read changed, every parameter
// it read bound, and each join's choice still what the row counts say.
func (t *planTree) rebind(s *Session, outer *env) bool {
	if t.db != s.db || t.gen != s.db.footGen.Load() {
		return false
	}
	for _, ts := range t.tables {
		if ts.t.schemaVer != ts.ver {
			return false
		}
	}
	for _, b := range t.binds {
		v, ok := paramValue(b.ref, outer.params)
		if !ok {
			return false
		}
		if b.dst != nil {
			*b.dst = v
		}
	}
	for _, p := range t.plans {
		p.s, p.env.session, p.env.params = s, s, outer.params
		if !p.joinsHold() {
			return false
		}
	}
	return true
}

// stamp records a table the plan resolved.
func (t *planTree) stamp(tbl *Table) {
	if t != nil {
		t.tables = append(t.tables, tableStamp{tbl, tbl.schemaVer})
	}
}

// idle drops the run state that references rows, and the execution's
// session and parameters, and any buffer past idleCap entries (a hash
// join's buckets count as one, and its key dictionary goes with them).
func (p *selectPlan) idle() {
	p.s, p.env.session, p.env.params = nil, nil, nil
	p.env.row, p.env.aggs = nil, nil
	p.rows, p.out = nil, nil
	if p.groups.n > idleCap {
		p.groups = groupTable{}
	}
	p.groups.reset()
	p.keys, p.perm = idleBuf(p.keys), idleBuf(p.perm)
	clear(p.buf)
	clear(p.version)
	for k := range p.srcs {
		src := &p.srcs[k]
		src.heap, src.vals, src.probe = nil, nil, idleBuf(src.probe)
		if src.join == nil {
			continue
		}
		n := 0 // the buckets' room: one row or more per key
		for i, b := range src.buckets {
			src.buckets[i], n = idleBuf(b), n+cap(b)
		}
		if src.all = idleBuf(src.all); n > idleCap {
			src.hash, src.buckets = nil, nil
		}
		if src.strategy == joinIndex {
			clear(src.key) // the last outer row's probe
		}
	}
}

// idleBuf empties a buffer for an idle plan or session: its memory is
// kept, cleared, unless it held more than idleCap entries.
func idleBuf[T any](b []T) []T {
	if cap(b) > idleCap {
		return nil
	}
	clear(b[:cap(b)])
	return b[:0]
}
