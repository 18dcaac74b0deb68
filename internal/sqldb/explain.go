package sqldb

import (
	"fmt"
	"strings"
)

// execExplain takes a plan for the SELECT exactly as execSelect does —
// through the statement's slot, re-checked or rebuilt — and renders it
// instead of running it: what EXPLAIN names — access paths and the index
// probed, join strategies, where each filter sits — is what the next
// execution does, because both read the same selectPlan.
func (s *Session) execExplain(t *ExplainStmt, slot *stmtSlot, base *env) (*Result, error) {
	p, err := s.lend(slot, t.Query, base)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"plan"}}
	p.explain(func(line string) { res.Rows = append(res.Rows, []Value{Str(line)}) })
	slot.put(p)
	return res, nil
}

func (p *selectPlan) explain(emit func(string)) {
	add := func(format string, args ...any) { emit(fmt.Sprintf(format, args...)) }
	if len(p.srcs) == 0 {
		add("CONSTANT ROW")
	}
	for k := range p.srcs {
		src := &p.srcs[k]
		label := planLabel(src.tbl, src.idx)
		if k > 0 && src.strategy == joinIndex {
			label = planLabel(src.tbl, src.jidx)
		}
		if k > 0 {
			label = strings.TrimPrefix(strings.TrimPrefix(label, "SCAN "), "INDEX PROBE ")
			label = [...]string{JoinInner: "INNER ", JoinCross: "CROSS "}[src.kind] +
				[...]string{joinLoop: "NESTED LOOP", joinHash: "HASH", joinIndex: "INDEX NESTED LOOP"}[src.strategy] +
				" JOIN " + label
		}
		add("%s", label)
		if len(src.filter) > 0 && len(p.srcs) > 1 {
			add("FILTER (pushed to %s)", src.name)
		} else if len(src.filter) > 0 {
			add("FILTER")
		}
	}
	if len(p.where) > 0 {
		add("FILTER")
	}
	if len(p.groupBy) > 0 {
		add("HASH GROUP BY (%d keys)", len(p.groupBy))
	} else if p.grouped {
		add("STREAM AGGREGATE")
	}
	if p.q.Distinct {
		add("DISTINCT")
	}
	if len(p.order) > 0 {
		add("SORT (%d keys)", len(p.order))
	}
	if p.q.Limit != nil || p.q.Offset != nil {
		add("LIMIT/OFFSET")
	}
}
