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
	p.explain(0, func(line string) { res.Rows = append(res.Rows, []Value{Str(line)}) })
	slot.put(p)
	return res, nil
}

func (p *selectPlan) explain(depth int, emit func(string)) {
	add := func(format string, args ...any) {
		emit(strings.Repeat("  ", depth) + fmt.Sprintf(format, args...))
	}
	if len(p.srcs) == 0 {
		add("CONSTANT ROW")
	}
	for k := range p.srcs {
		src := &p.srcs[k]
		var label string
		switch {
		case src.viewEnv != nil && k == 0:
			label = "VIEW " + src.name + " (expanded)"
		case src.viewEnv != nil:
			label = "view " + src.name
		case src.sub != nil && k == 0:
			label = "DERIVED TABLE " + src.name
		case src.sub != nil:
			label = "derived table " + src.name
		case k > 0 && src.strategy == joinIndex:
			label = planLabel(src.tbl, src.jidx)
		default:
			label = planLabel(src.tbl, src.idx)
		}
		if k > 0 {
			label = strings.TrimPrefix(strings.TrimPrefix(label, "SCAN "), "INDEX PROBE ")
			label = [...]string{JoinInner: "INNER ", JoinLeft: "LEFT OUTER ", JoinCross: "CROSS "}[src.kind] +
				[...]string{joinLoop: "NESTED LOOP", joinHash: "HASH", joinIndex: "INDEX NESTED LOOP"}[src.strategy] +
				" JOIN " + label
		}
		add("%s", label)
		if src.sub != nil {
			src.sub.explain(depth+1, emit)
		}
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
	if p.having != nil {
		add("HAVING FILTER")
	}
	if p.q.Distinct {
		add("DISTINCT")
	}
	if p.union != nil {
		if p.q.UnionAll {
			add("UNION ALL")
		} else {
			add("UNION")
		}
		p.union.explain(depth+1, emit)
	}
	if len(p.order) > 0 {
		add("SORT (%d keys)", len(p.order))
	}
	if p.q.Limit != nil || p.q.Offset != nil {
		add("LIMIT/OFFSET")
	}
}
