package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// lexesAsOneIdent is the slow-path oracle for the constructors' name
// check: the lexer reads the text back as exactly that one identifier.
func lexesAsOneIdent(name string) bool {
	toks, err := newLexer(name).lexAll()
	return err == nil && len(toks) == 2 && toks[0].kind == tokIdent && toks[0].text == name && toks[0].end == len(name)
}

// TestConstructorsMatchParse: for every typed constructor, parsing the
// text it renders yields (DeepEqual) the AST it built — over names that
// need no quoting; a name the lexer would not read back as one identifier
// is refused before anything executes or reaches the change stream.
func TestConstructorsMatchParse(t *testing.T) {
	names := []string{
		"SR_ItemList_i7", "t", "T$1", "_x", "sr_r_i1234567890123", // accepted
		"", "Ünïcode", "1abc", "a b", " a", "a ", "a-b", "a.b", "a;b", "a--c", "a/*c*/", `"q"`, "a'b", "é",
		"TABLE", "select", "value", "Key", // keywords, also the ones ident() lets through (upper-cased)
	}
	rng := rand.New(rand.NewSource(18))
	alphabet := []byte("abzAZ_$09 .-\"';*#\xe9\xaa\xc3")
	for i := 0; i < 2000; i++ {
		b := make([]byte, 1+rng.Intn(6))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		names = append(names, string(b))
	}
	for k := range keywords {
		names = append(names, k)
	}
	var queries []*ParsedQuery
	for _, sql := range []string{
		"SELECT * FROM Orders",
		"SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders\n\t WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID",
		"SELECT a, ? AS p FROM t WHERE b > ? AND c = 'x''y' LIMIT 3",
		"SELECT 1, 2;",
	} {
		q, err := ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	if _, err := ParseQuery("DELETE FROM t"); err == nil {
		t.Fatal("ParseQuery accepted a non-query")
	}

	db := Open("names")
	db.MustExec("CREATE TABLE Orders (ItemID VARCHAR, Quantity INTEGER, Approved BOOLEAN)")
	changes := captureChanges(db)
	s := db.Session()
	accepted, rejected := 0, 0
	for _, name := range names {
		type built struct {
			what string
			st   Stmt
			text string
		}
		var all []built
		for _, ifExists := range []bool{false, true} {
			st, text := dropTableStmt(name, ifExists)
			all = append(all, built{fmt.Sprintf("dropTableStmt(%q, %v)", name, ifExists), st, text})
		}
		st, text := selectAllStmt(name)
		all = append(all, built{fmt.Sprintf("selectAllStmt(%q)", name), st, text})
		for _, q := range queries {
			st, text := createTableAsStmt(name, q)
			all = append(all, built{fmt.Sprintf("createTableAsStmt(%q, %q)", name, q.SQL()), st, text})
		}
		if lexesAsOneIdent(name) {
			accepted++
			if _, err := s.DropTable(name, true); err != nil {
				t.Fatalf("DropTable refused %q, which the lexer reads as one identifier: %v", name, err)
			}
			for _, b := range all {
				parsed, err := Parse(b.text)
				if err != nil {
					t.Fatalf("%s rendered %q: %v", b.what, b.text, err)
				}
				if !reflect.DeepEqual(parsed, b.st) {
					t.Fatalf("%s rendered %q:\n parsed %#v\n  built %#v", b.what, b.text, parsed, b.st)
				}
			}
			continue
		}
		rejected++
		before, stmts := len(*changes), db.Stats().Statements
		_, err1 := s.DropTable(name, true)
		_, err2 := s.SelectAll(name)
		_, err3 := s.CreateTableAs(name, queries[0])
		if err1 == nil || err2 == nil || err3 == nil {
			t.Fatalf("a constructor accepted the name %q, which the lexer rejects: %v / %v / %v", name, err1, err2, err3)
		}
		if len(*changes) != before || db.Stats().Statements != stmts {
			t.Fatalf("a refused name %q still executed or reached the change stream", name)
		}
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("%d names accepted, %d rejected: the generator lost a side", accepted, rejected)
	}
	// And an accepted name is not refused.
	if _, err := s.CreateTableAs("SR_ItemList_i7", queries[0]); err != nil {
		t.Fatal(err)
	}
	if res, err := s.SelectAll("SR_ItemList_i7"); err != nil || !res.IsQuery() {
		t.Fatal(res, err)
	}
	if _, err := s.DropTable("SR_ItemList_i7", false); err != nil {
		t.Fatal(err)
	}
}
