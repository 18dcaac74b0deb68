package sqldb

import (
	"reflect"
	"testing"
)

// lexed is a token without its offsets, for comparing token streams of
// different texts.
type lexed struct {
	kind tokenKind
	text string
	num  Value
}

// lexNoSemis lexes sql and drops the ';' separators (a ';' is never part
// of a statement: string literals are single tokens).
func lexNoSemis(sql string) ([]lexed, error) {
	toks, err := newLexer(sql).lexAll()
	if err != nil {
		return nil, err
	}
	var out []lexed
	for _, t := range toks {
		if t.kind == tokEOF || (t.kind == tokSymbol && t.text == ";") {
			continue
		}
		out = append(out, lexed{t.kind, t.text, t.num})
	}
	return out, nil
}

// FuzzParseScript checks the script splitter ExecScript relies on: for
// any input parseScript accepts, each statement's text re-parsed alone
// is one statement of the same kind, and the texts cover the input in
// order — their tokens, concatenated, are the input's tokens minus the
// separators.
func FuzzParseScript(f *testing.F) {
	f.Add("SELECT 1")
	f.Add("INSERT INTO t VALUES (1, 'a;b'); ; UPDATE t SET a = ? WHERE b = :n -- tail\n;")
	f.Add("CREATE PROCEDURE p(x) AS 'UPDATE t SET a = :x; SELECT a FROM t'; CALL p(1)")
	f.Add("BEGIN; DELETE FROM t /* ; */ WHERE a IN (SELECT b FROM u); COMMIT")
	f.Add("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR DEFAULT 'x');DROP TABLE IF EXISTS t")
	f.Fuzz(func(t *testing.T, sql string) {
		parts, err := parseScript(sql)
		if err != nil {
			return
		}
		var covered []lexed
		for i, p := range parts {
			st, err := Parse(p.text)
			if err != nil {
				t.Fatalf("statement %d text %q does not parse alone: %v", i, p.text, err)
			}
			if got, want := StmtKind(st), StmtKind(p.st); got != want {
				t.Fatalf("statement %d text %q re-parses as %s, was %s", i, p.text, got, want)
			}
			toks, err := lexNoSemis(p.text)
			if err != nil {
				t.Fatal(err)
			}
			covered = append(covered, toks...)
		}
		all, err := lexNoSemis(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(covered, all) {
			t.Fatalf("statement texts do not cover the input in order:\n input %q\n texts %+v", sql, parts)
		}
	})
}

// FuzzNormalizeStmt checks that normalization is idempotent on its own
// rendering: the rendered text normalizes to itself, extracts nothing,
// and keeps every bind slot — what lets a replica re-resolve
// change-stream text through the same path.
func FuzzNormalizeStmt(f *testing.F) {
	f.Add("SELECT a, 2 FROM t WHERE b = 'x' AND c < ? ORDER BY 1, a LIMIT 10")
	f.Add("INSERT INTO t (a, b) VALUES (1, 'it''s'), (?, :n)")
	f.Add("UPDATE t SET a = a + 1.5e3 WHERE b IN (SELECT c FROM u ORDER BY 2) ;")
	f.Add("DELETE FROM \"my t\" WHERE a = -1 OR b = .5")
	f.Fuzz(func(t *testing.T, sql string) {
		n, ok := normalizeStmt(sql)
		if !ok {
			return
		}
		again, ok := normalizeStmt(n.text)
		if !ok {
			t.Fatalf("rendering %q of %q is not normalizable", n.text, sql)
		}
		if again.text != n.text {
			t.Fatalf("not idempotent: %q -> %q -> %q", sql, n.text, again.text)
		}
		if len(again.consts) != 0 {
			t.Fatalf("rendering %q of %q still holds literals %v", n.text, sql, again.consts)
		}
		if len(again.pattern) != len(n.pattern) {
			t.Fatalf("rendering %q of %q has %d bind slots, want %d", n.text, sql, len(again.pattern), len(n.pattern))
		}
	})
}
