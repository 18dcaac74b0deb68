package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Named placeholders are positional slots numbered by the parser after
// every `?` and extracted literal; ExecNamed and PreparedStmt.ExecNamed
// only build that vector. TestNamedBindsLikePositional checks the
// numbering against the two obvious bindings of the same statement: the
// vector built from ParamNames by hand, and the text with every named
// placeholder rewritten to `?` and its value put in place.

// namedHole is one placeholder or literal of a generated statement.
type namedHole struct {
	kind string // "named", "?" or "lit"
	name string // named: the canonical (lowercase) name
	text string // named: as written (sigil and letter case); lit: the literal
}

// namedGen draws statements over t (id, k, s) whose operands are named
// placeholders (@name, any letter case, names repeating), `?`s,
// and literals that normalization extracts. Names n and m carry integers,
// w strings.
type namedGen struct{ rng *rand.Rand }

func (g *namedGen) hole(str bool) namedHole {
	switch g.rng.Intn(5) {
	case 0, 1:
		name := "w"
		if !str {
			name = []string{"n", "m"}[g.rng.Intn(2)]
		}
		spelled := name
		if g.rng.Intn(3) == 0 {
			spelled = strings.ToUpper(name)
		}
		return namedHole{kind: "named", name: name, text: "@" + spelled}
	case 2:
		return namedHole{kind: "?"}
	}
	return namedHole{kind: "lit", text: g.value(str).SQLLiteral()}
}

func (g *namedGen) value(str bool) Value {
	if str {
		return Str(fmt.Sprint("s", g.rng.Intn(4)))
	}
	return Int(int64(g.rng.Intn(24)))
}

// statement draws a template: text with %s for each hole, and the holes
// (true: a string operand).
func (g *namedGen) statement() (string, []bool) {
	switch g.rng.Intn(5) {
	case 0:
		return "SELECT id, k, s FROM t WHERE k >= %s AND s <> %s ORDER BY id", []bool{false, true}
	case 1:
		return "SELECT id, k + %s AS kk FROM t WHERE id < %s OR k = %s ORDER BY id", []bool{false, false, false}
	case 2:
		return "UPDATE t SET k = k + %s, s = %s WHERE id = %s OR k < %s", []bool{false, true, false, false}
	case 3:
		return "INSERT INTO t (id, k, s) VALUES (%s, %s, %s)", []bool{false, false, true}
	}
	return "DELETE FROM t WHERE id = %s AND k < %s", []bool{false, false}
}

func TestNamedBindsLikePositional(t *testing.T) {
	const seeds, stmtsPerSeed, rounds = 60, 6, 3
	arms := []string{"ExecNamed", "Exec(ParamNames vector)", "Exec(rewritten to ?)", "PreparedStmt.ExecNamed"}
	var hits, misses int
	for seed := int64(1); seed <= seeds; seed++ {
		g := &namedGen{rng: rand.New(rand.NewSource(seed))}
		dbs := make([]*DB, len(arms))
		streams := make([]*[]Change, len(arms))
		for i := range dbs {
			dbs[i] = Open(fmt.Sprint("arm", i))
			streams[i] = captureChanges(dbs[i])
			dbs[i].MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s VARCHAR)")
			for id := 1; id <= 12; id++ {
				dbs[i].MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 's%d')", id, id*2%24, id%4))
			}
		}
		for st := 0; st < stmtsPerSeed; st++ {
			tmpl, strs := g.statement()
			holes := make([]namedHole, len(strs))
			for i, str := range strs {
				holes[i] = g.hole(str)
			}
			for round := 0; round < rounds; round++ {
				// Fresh values every round; round 1 keeps round 0's literals
				// (a raw-text hit), round 2 draws new ones (a normalized hit).
				named := map[string]Value{"n": g.value(false), "m": g.value(false), "w": g.value(true)}
				if g.rng.Intn(2) == 0 {
					named["N"], named["W"] = named["n"], named["w"]
					delete(named, "n")
					delete(named, "w")
				}
				lookup := func(name string) Value {
					for k, v := range named {
						if strings.EqualFold(k, name) {
							return v
						}
					}
					t.Fatalf("no value for %s", name)
					return Value{}
				}
				var written, rewritten []any
				var qvals, inOrder []Value
				for i := range holes {
					h := &holes[i]
					switch h.kind {
					case "named":
						written, rewritten = append(written, h.text), append(rewritten, "?")
						inOrder = append(inOrder, lookup(h.name))
					case "?":
						v := g.value(strs[i])
						written, rewritten = append(written, "?"), append(rewritten, "?")
						qvals, inOrder = append(qvals, v), append(inOrder, v)
					default:
						if round == 2 {
							h.text = g.value(strs[i]).SQLLiteral()
						}
						written, rewritten = append(written, h.text), append(rewritten, h.text)
					}
				}
				text := fmt.Sprintf(tmpl, written...)
				names, err := ParamNames(text)
				if err != nil {
					t.Fatalf("ParamNames(%s): %v", text, err)
				}
				vector := append([]Value(nil), qvals...)
				for _, n := range names {
					vector = append(vector, lookup(n))
				}

				before := dbs[0].StmtCacheStats().Hits
				type outcome struct {
					res *Result
					err error
				}
				out := make([]outcome, len(arms))
				out[0].res, out[0].err = dbs[0].Session().ExecNamed(text, named, qvals...)
				out[1].res, out[1].err = dbs[1].Session().Exec(text, vector...)
				out[2].res, out[2].err = dbs[2].Session().Exec(fmt.Sprintf(tmpl, rewritten...), inOrder...)
				if ps, err := dbs[3].Session().Prepare(text); err != nil {
					out[3].err = err
				} else {
					out[3].res, out[3].err = ps.ExecNamed(named, qvals...)
				}
				if dbs[0].StmtCacheStats().Hits > before {
					hits++
				} else {
					misses++
				}
				for i := 1; i < len(arms); i++ {
					if d := sameRun(out[i].res, out[i].err, out[0].res, out[0].err); d != "" {
						t.Fatalf("seed %d: %s differs from %s: %s\n  %s\n  named %v, ? %v, names %v",
							seed, arms[i], arms[0], d, text, named, qvals, names)
					}
				}
			}
		}
		want := dbs[0].Dump()
		for i := range arms {
			if got := dbs[i].Dump(); got != want {
				t.Fatalf("seed %d: %s ends in\n%s\nwant\n%s", seed, arms[i], got, want)
			}
			replica := Open("replica")
			ap := NewApplier(replica, 0)
			for _, c := range *streams[i] {
				if err := ap.Apply(c); err != nil {
					t.Fatalf("seed %d: replay of the %s stream: seq %d %s %v: %v", seed, arms[i], c.Seq, c.SQL, c.Params, err)
				}
			}
			if got := replica.Dump(); got != want {
				t.Fatalf("seed %d: replica of the %s stream ends in\n%s\nwant\n%s", seed, arms[i], got, want)
			}
		}
	}
	t.Logf("%d executions on a plan-cache hit, %d on a miss", hits, misses)
	if hits < misses || misses == 0 {
		t.Fatalf("degenerate: %d plan-cache hits, %d misses", hits, misses)
	}
}

// TestExecNamedFailsAtEntry: a name the map lacks, or a `?` without its
// value, fails before the statement runs.
func TestExecNamedFailsAtEntry(t *testing.T) {
	db := Open("entry")
	db.MustExec("CREATE TABLE t (a INTEGER, b INTEGER)")
	s := db.Session()
	ps, err := s.Prepare("INSERT INTO t VALUES (@a, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		named map[string]Value
		q     []Value
		want  string
	}{
		{map[string]Value{"b": Int(1)}, []Value{Int(2)}, "sqldb: unbound named parameter @a"},
		{map[string]Value{"A": Int(1)}, nil, "sqldb: missing value for parameter 1"},
	} {
		if _, err := s.ExecNamed("INSERT INTO t VALUES (@a, ?)", tc.named, tc.q...); errText(err) != tc.want {
			t.Fatalf("ExecNamed(%v, %v): %v, want %q", tc.named, tc.q, err, tc.want)
		}
		if _, err := ps.ExecNamed(tc.named, tc.q...); errText(err) != tc.want {
			t.Fatalf("PreparedStmt.ExecNamed(%v, %v): %v, want %q", tc.named, tc.q, err, tc.want)
		}
	}
	if n := db.MustExec("SELECT COUNT(*) FROM t").Rows[0][0].I; n != 0 {
		t.Fatalf("%d rows inserted by failed calls", n)
	}
}
