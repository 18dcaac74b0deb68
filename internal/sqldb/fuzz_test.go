package sqldb

import (
	"math"
	"reflect"
	"strings"
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
// separators. The seeds are scripts the dialect accepts, and one it
// refuses (DEFAULT).
func FuzzParseScript(f *testing.F) {
	f.Add("SELECT 1")
	f.Add("INSERT INTO t VALUES (1, 'a;b'); ; UPDATE t SET a = ? WHERE b = @n -- tail\n;")
	f.Add("CREATE PROCEDURE p () AS 'UPDATE t SET a = 1; SELECT a FROM t'; CALL p()")
	f.Add("BEGIN; DELETE FROM t /* ; */ WHERE a = 1 OR a = 'b'; COMMIT")
	f.Add("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR DEFAULT 'x');DROP TABLE IF EXISTS t")
	f.Fuzz(func(t *testing.T, sql string) {
		parts, _, err := parseScript(sql)
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
// change-stream text through the same path. The seeds are statements the
// dialect accepts, and one it refuses (a quoted identifier).
func FuzzNormalizeStmt(f *testing.F) {
	f.Add("SELECT a, 2 FROM t WHERE b = 'x' AND c < ? ORDER BY a LIMIT 10")
	f.Add("INSERT INTO t (a, b) VALUES (1, 'it''s'), (?, @n)")
	f.Add("SELECT a + 1.5e3 FROM t WHERE b = 2 OR b = 'c' GROUP BY a ORDER BY a LIMIT 3 ;")
	f.Add("DELETE FROM \"my t\" WHERE a = -1 OR b = .5")
	f.Add("SELECT Größe FROM Bestellung WHERE Straße = 'Ö' AND ß = @straße")
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

// FuzzParamNames checks the parser's slot numbering: for any input that
// parses, ParamNames of the raw text equals ParamNames of its normalized
// rendering, the names are distinct in any letter case, and the slots the
// parse's ParamRefs hold are exactly 0 .. positional + names - 1, where
// positional counts the `?`s — the raw text's own, or the rendering's,
// which include the extracted literals. The seeds are statements the
// dialect accepts, and one it refuses (:name, procedure parameters).
func FuzzParamNames(f *testing.F) {
	f.Add("SELECT a FROM t WHERE b = @x AND c = ? AND d = @X AND e = 'lit' AND f = @y")
	f.Add("INSERT INTO t VALUES (@item, ?, 'mail to sales@item.example', @itemx, 3)")
	f.Add("UPDATE t SET a = @Q + 1 WHERE b = @q OR b = 2 AND e = ?")
	f.Add("CREATE PROCEDURE p(x) AS 'UPDATE t SET a = :x'; CALL p(:y); DELETE FROM t WHERE a = ? OR b = :Y")
	f.Fuzz(func(t *testing.T, sql string) {
		stmts, shape, err := parseScript(sql)
		if err != nil {
			return
		}
		names, err := ParamNames(sql)
		if err != nil || !reflect.DeepEqual(names, shape.names) {
			t.Fatalf("ParamNames(%q) = %q, %v; the parse names %q", sql, names, err, shape.names)
		}
		for i, n := range names {
			for _, m := range names[:i] {
				if strings.EqualFold(n, m) {
					t.Fatalf("%q: names %q repeat %q", sql, names, n)
				}
			}
		}
		checkSlots := func(text string, sts []scriptStmt) {
			toks, err := lexNoSemis(text)
			if err != nil {
				t.Fatal(err)
			}
			want := len(names)
			for _, tk := range toks {
				if tk.kind == tokParam && tk.text == "?" {
					want++
				}
			}
			slots := map[int]bool{}
			for _, st := range sts {
				paramSlots(reflect.ValueOf(st.st), slots)
			}
			for i := 0; i < want; i++ {
				if !slots[i] {
					t.Fatalf("%q: no placeholder holds slot %d of %d (slots %v)", text, i, want, slots)
				}
			}
			if len(slots) != want {
				t.Fatalf("%q: %d slots %v, want %d", text, len(slots), slots, want)
			}
		}
		checkSlots(sql, stmts)
		n, ok := normalizeStmt(sql)
		if !ok {
			return
		}
		again, err := ParamNames(n.text)
		if err != nil || !reflect.DeepEqual(again, names) {
			t.Fatalf("ParamNames of the rendering %q = %q, %v; of %q: %q", n.text, again, err, sql, names)
		}
		st, err := parseTokens(sql, n.toks)
		if err != nil {
			t.Fatalf("slotted tokens of %q do not parse: %v", sql, err)
		}
		checkSlots(n.text, []scriptStmt{{st: st}})
	})
}

// paramSlots collects the slot of every ParamRef reachable from v.
func paramSlots(v reflect.Value, into map[int]bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		if v.Type() == reflect.TypeOf((*ParamRef)(nil)) {
			into[int(v.Elem().Field(0).Int())] = true
			return
		}
		paramSlots(v.Elem(), into)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			paramSlots(v.Field(i), into)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			paramSlots(v.Index(i), into)
		}
	}
}

// fuzzValue builds one Value from fuzzer-chosen primitives: kind picks
// among NULL, INTEGER n, FLOAT with n's bits, VARCHAR s and BOOLEAN.
func fuzzValue(kind uint8, n int64, s string) Value {
	switch kind % 5 {
	case 1:
		return Int(n)
	case 2:
		return Float(math.Float64frombits(uint64(n)))
	case 3:
		return Str(s)
	case 4:
		return Bool(n&1 == 1)
	}
	return Null()
}

// FuzzIndexKey checks the index key encoder against the engine's own
// equality, through the index: over a two-column key, a probe for tuple
// b finds the row holding tuple a iff the tuples are column-wise equal
// under compareValues, and both tuples share a bucket iff they are that
// or NULL in the same places. Where compareValues is not an equivalence
// no key can agree with it, so those inputs are skipped: NaN (equal to
// every number) and an INTEGER beyond 2^53 against a FLOAT (compared
// after rounding).
func FuzzIndexKey(f *testing.F) {
	const (
		null = iota
		integer
		float
		varchar
		boolean
	)
	bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	f.Add(uint8(varchar), int64(0), "a\x003:b", uint8(varchar), int64(0), "c",
		uint8(varchar), int64(0), "a", uint8(varchar), int64(0), "b\x003:c")
	f.Add(uint8(integer), int64(1), "", uint8(float), bits(1.0), "",
		uint8(float), bits(1.0), "", uint8(varchar), int64(0), "1")
	f.Add(uint8(null), int64(0), "", uint8(varchar), int64(0), "",
		uint8(null), int64(0), "", uint8(varchar), int64(0), "")
	f.Add(uint8(float), bits(math.Copysign(0, -1)), "", uint8(boolean), int64(1), "",
		uint8(integer), int64(0), "", uint8(integer), int64(1), "")
	f.Add(uint8(integer), int64(math.MaxInt64), "", uint8(integer), int64(1)<<53+1, "",
		uint8(integer), int64(math.MaxInt64-1), "", uint8(integer), int64(1)<<53, "")
	f.Add(uint8(integer), int64(math.MinInt64), "", uint8(float), bits(1<<63), "",
		uint8(float), bits(-(1 << 63)), "", uint8(float), bits(1<<63), "")
	f.Add(uint8(varchar), int64(0), "1", uint8(varchar), int64(0), "23",
		uint8(varchar), int64(0), "12", uint8(varchar), int64(0), "3")
	f.Fuzz(func(t *testing.T, k1 uint8, n1 int64, s1 string, k2 uint8, n2 int64, s2 string,
		k3 uint8, n3 int64, s3 string, k4 uint8, n4 int64, s4 string) {
		a := []Value{fuzzValue(k1, n1, s1), fuzzValue(k2, n2, s2)}
		b := []Value{fuzzValue(k3, n3, s3), fuzzValue(k4, n4, s4)}
		equal, sameBucket := true, true
		for i := range a {
			x, y := a[i], b[i]
			for _, v := range []Value{x, y} {
				if v.K == KindFloat && v.F() != v.F() {
					t.Skip("NaN")
				}
				if v.K == KindInt && int64(float64(v.I)) != v.I && x.K != y.K {
					t.Skip("INTEGER that no FLOAT holds, against a FLOAT")
				}
			}
			equal = equal && x.Equal(y)
			sameBucket = sameBucket && (x.Equal(y) || (x.IsNull() && y.IsNull()))
		}

		idx := &Index{Table: &Table{}, colIdx: []int{0, 1}, buckets: map[string][]*Row{}}
		row := &Row{Values: a}
		idx.insert(row)
		if found := len(idx.appendLookup(nil, b)) == 1; found != equal {
			t.Fatalf("row %v, probe %v: found = %v, column-wise equal = %v", a, b, found, equal)
		}
		idx.insert(&Row{Values: b})
		if one := len(idx.buckets) == 1; one != sameBucket {
			t.Fatalf("tuples %v and %v: one bucket = %v, want %v", a, b, one, sameBucket)
		}
		idx.remove([]*Row{row}, func(r *Row) bool { return r == row })
		if found := len(idx.appendLookup(nil, a)) == 1; len(idx.buckets) != 1 || found != equal {
			t.Fatalf("after removing %v: %d buckets, probe for it finds %v = %v", a, len(idx.buckets), b, found)
		}
	})
}
