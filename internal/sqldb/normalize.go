package sqldb

import "strings"

// Statement normalization: the plan cache used to key on raw SQL text,
// so a workflow's per-item INSERT with fresh literals missed on every
// execution (~0.56 hit rate on the figure workloads). normalizeStmt
// extracts literals into bind slots at lex time, before parsing, so
// `INSERT INTO orders VALUES (1,'a')` and `(2,'b')` share one
// normalized text — and therefore one cached plan.
//
// The extracted literals and the caller's own `?` parameters share a
// single positional index space, assigned in token order — exactly the
// order the parser numbers `?` placeholders — so a plan parsed from the
// slotted token stream binds a merged parameter vector with no parser
// changes (see mergeParams).

// Slot provenance: who supplies the value for each positional slot of a
// normalized statement.
const (
	slotUser  uint8 = iota // the caller's positional parameter vector
	slotConst              // a literal extracted from the statement text
)

// normalized is the outcome of extracting literals from one statement.
type normalized struct {
	text    string  // literal-free statement text — the plan-cache key
	toks    []token // token stream with literals replaced by bind slots
	consts  []Value // extracted literal values, in slot order
	pattern []uint8 // provenance of every positional slot, in slot order
}

// userSlots counts the caller-supplied positional slots in a pattern.
func userSlots(pattern []uint8) int {
	n := 0
	for _, p := range pattern {
		if p == slotUser {
			n++
		}
	}
	return n
}

// normalizeStmt lexes sql and extracts its literals into bind slots.
// ok == false means the statement is not eligible (not a single
// SELECT/INSERT/UPDATE/DELETE, or it does not lex) and the caller must
// fall back to an ordinary parse of the raw text.
//
// Literals inside an ORDER BY clause are deliberately left in place: a
// bare integer there is a positional select-list reference
// (evalOrderKey), so turning it into a parameter would change meaning.
// TRUE/FALSE/NULL are keywords, never slotted.
//
// The rendered text is idempotent: normalizing it again yields the
// identical text with zero extracted constants — which is what lets a
// replica re-resolve change-stream statements through the same path.
func normalizeStmt(sql string) (normalized, bool) {
	var n normalized
	toks, err := newLexer(sql).lexAll()
	if err != nil {
		return n, false
	}
	first := toks[0]
	if first.kind != tokKeyword {
		return n, false
	}
	switch first.text {
	case "SELECT", "INSERT", "UPDATE", "DELETE":
	default:
		return n, false
	}
	// Multi-statement scripts keep the raw-text path: a ';' is only
	// tolerated as trailing punctuation.
	for i, t := range toks {
		if t.kind == tokSymbol && t.text == ";" {
			for _, r := range toks[i+1:] {
				if r.kind != tokEOF && !(r.kind == tokSymbol && r.text == ";") {
					return n, false
				}
			}
			break
		}
	}

	suppress := false // inside a GROUP BY or ORDER BY clause
	for i := range toks {
		t := &toks[i]
		switch t.kind {
		case tokKeyword:
			switch t.text {
			case "ORDER", "GROUP":
				suppress = suppress || i+1 < len(toks) && toks[i+1].kind == tokKeyword && toks[i+1].text == "BY"
			case "LIMIT", "OFFSET":
				suppress = false
			}
		case tokParam:
			if t.text == "?" {
				n.pattern = append(n.pattern, slotUser)
			}
			// Named placeholders stay: the parser numbers them after
			// every slot of the pattern.
		case tokNumber:
			if suppress {
				break
			}
			n.consts = append(n.consts, t.num)
			n.pattern = append(n.pattern, slotConst)
			*t = token{kind: tokParam, text: "?", pos: t.pos, end: t.end}
		case tokString:
			if suppress {
				break
			}
			n.consts = append(n.consts, Str(t.text))
			n.pattern = append(n.pattern, slotConst)
			*t = token{kind: tokParam, text: "?", pos: t.pos, end: t.end}
		}
	}
	n.toks = toks
	n.text = renderTokens(sql, toks)
	return n, true
}

// renderTokens rebuilds statement text from a (slotted) token stream:
// original source spans joined by single spaces, bind slots as `?`. The
// rendering is deterministic for a given token sequence, which makes it
// a stable cache key and a stable change-stream wire form.
func renderTokens(src string, toks []token) string {
	var b strings.Builder
	b.Grow(len(src))
	for i, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		if t.kind == tokParam && t.text == "?" {
			// Covers both caller-written placeholders and slotted
			// literals, whose spans still point at the literal text.
			b.WriteByte('?')
			continue
		}
		b.WriteString(src[t.pos:t.end])
	}
	return b.String()
}

// mergeParams appends to dst the caller's positional values interleaved
// with the literals extracted at normalization time, per the slot
// pattern. The caller must supply at least the statement's user slots
// (userSlots): the unparameterized path reports a missing parameter by
// its position among the caller's own placeholders, and that numbering
// is unrecoverable once extracted literals shift the indexes — so
// callers with fewer fall back to a plain parse of the raw text. Surplus
// caller values were always legal; they stay reachable at the end of the
// merged vector, which is where named placeholders' values travel.
func mergeParams(dst, user, consts []Value, pattern []uint8) []Value {
	if len(consts) == 0 {
		return append(dst, user...)
	}
	ui, ci := 0, 0
	for _, p := range pattern {
		if p == slotConst {
			dst = append(dst, consts[ci])
			ci++
		} else {
			dst = append(dst, user[ui])
			ui++
		}
	}
	return append(dst, user[ui:]...)
}
