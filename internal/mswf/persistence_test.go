package mswf

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"wfsql/internal/dataset"
	"wfsql/internal/sqldb"
	"wfsql/internal/xdm"
)

// saveStateTree and persistDataSetTree are the persistence service's
// serializers before they streamed: they build the document as an xdm
// tree and print it. They are the reference the streamed XML is checked
// against.
func saveStateTree(c *Context) string {
	root := xdm.NewElement("workflowState")
	for _, name := range c.VarNames() {
		v, _ := c.Get(name)
		el := root.Element("variable")
		el.SetAttr("name", name)
		switch t := v.(type) {
		case nil:
			el.SetAttr("type", "null")
		case string:
			el.SetAttr("type", "string")
			el.SetText(t)
		case int:
			el.SetAttr("type", "int")
			el.SetText(strconv.Itoa(t))
		case int64:
			el.SetAttr("type", "int")
			el.SetText(strconv.FormatInt(t, 10))
		case float64:
			el.SetAttr("type", "float")
			el.SetText(strconv.FormatFloat(t, 'g', -1, 64))
		case bool:
			el.SetAttr("type", "bool")
			el.SetText(strconv.FormatBool(t))
		case sqldb.Value:
			el.SetAttr("type", "sql:"+strings.ToLower(t.K.String()))
			el.SetText(t.String())
		case *dataset.DataSet:
			el.SetAttr("type", "dataset")
			el.AppendChild(persistDataSetTree(t))
		default:
			el.SetAttr("type", "string")
			el.SetText(fmt.Sprint(t))
		}
	}
	return root.String()
}

func persistDataSetTree(ds *dataset.DataSet) *xdm.Node {
	root := xdm.NewElement("dataSet")
	for _, tn := range ds.TableNames() {
		t := ds.Table(tn)
		te := root.Element("table")
		te.SetAttr("name", t.Name)
		te.SetAttr("columns", strings.Join(t.Columns, ","))
		if len(t.PrimaryKey) > 0 {
			te.SetAttr("keys", strings.Join(t.PrimaryKey, ","))
		}
		for _, r := range t.AllRows() {
			re := te.Element("row")
			re.SetAttr("state", r.State().String())
			for _, v := range r.Values() {
				ce := re.Element("c")
				ce.SetAttr("type", strings.ToLower(v.K.String()))
				if !v.IsNull() {
					ce.SetText(v.String())
				}
			}
		}
	}
	return root
}

// texts are the strings the seeded values draw from: markup characters,
// non-ASCII, empty, and plain.
var texts = []string{"", "plain", `<>&"'`, "a < b && c > \"d\"", "Grüße, 東京 ☃", "it's", "x\ny\tz"}

// seededValue draws a cell or host value of any kind.
func seededValue(rng *rand.Rand, s string) sqldb.Value {
	switch rng.Intn(8) {
	case 0:
		return sqldb.Null()
	case 1:
		return sqldb.Int(rng.Int63n(2000) - 1000)
	case 2:
		return sqldb.Int(math.MinInt64 + rng.Int63n(2))
	case 3:
		return sqldb.Float(rng.NormFloat64() * 1e3)
	case 4:
		return sqldb.Bool(rng.Intn(2) == 0)
	default:
		return sqldb.Str(s)
	}
}

// seededDataSet builds one to three tables, with and without keys, whose
// rows stand in every change state and whose cells are of every kind.
func seededDataSet(rng *rand.Rand, text func() string) *dataset.DataSet {
	ds := dataset.New()
	for ti := rng.Intn(3) + 1; ti > 0; ti-- {
		cols := make([]string, rng.Intn(3)+1)
		for i := range cols {
			cols[i] = "Col" + strconv.Itoa(i)
		}
		t := dataset.NewDataTable("T"+strconv.Itoa(ti), cols...)
		if rng.Intn(2) == 0 {
			t.PrimaryKey = cols[:rng.Intn(len(cols))+1]
		}
		ds.AddTable(t)
		for ri := rng.Intn(6); ri > 0; ri-- {
			vals := make([]sqldb.Value, len(cols))
			for i := range vals {
				vals[i] = seededValue(rng, text())
			}
			row, err := t.AddRow(vals...)
			if err != nil {
				panic(err)
			}
			switch rng.Intn(4) { // Added stays Added
			case 1:
				row.AcceptRow()
			case 2:
				row.AcceptRow()
				_ = row.Set(cols[0], seededValue(rng, text()))
			case 3:
				row.AcceptRow()
				row.Delete()
			}
		}
	}
	return ds
}

// TestPersistenceStreamMatchesTree: the streamed SaveState document and
// dataset memo are byte for byte what the tree builders printed, for
// every host-variable type and for seeded DataSets (every row state,
// NULLs, markup and non-ASCII text, empty strings, several tables with
// and without keys); and LoadState and restoreDataSet read them back to
// state that saves to the same bytes.
func TestPersistenceStreamMatchesTree(t *testing.T) {
	rt := NewRuntime()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text := func() string { return texts[rng.Intn(len(texts))] }
		ds := seededDataSet(rng, text)
		if got, want := persistDataSet(ds), persistDataSetTree(ds).String(); got != want {
			t.Fatalf("seed %d: dataset memo\n got %s\nwant %s", seed, got, want)
		}
		el, err := xdm.Parse(persistDataSet(ds))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := restoreDataSet(el)
		if err != nil {
			t.Fatalf("seed %d: restoreDataSet: %v", seed, err)
		}
		if got, want := persistDataSet(back), persistDataSet(ds); got != want {
			t.Fatalf("seed %d: restored dataset saves as\n%s\nwant\n%s", seed, got, want)
		}

		c := &Context{Runtime: rt, vars: map[string]any{
			"nil": nil, "str": text(), "int": rng.Intn(500) - 250, "int64": rng.Int63(),
			"float": rng.NormFloat64(), "bool": rng.Intn(2) == 0, "ds": ds,
			"default": struct{ A, B int }{rng.Intn(9), 7}, "slice": []string{text()},
			"sqlNull": sqldb.Null(), "sqlInt": sqldb.Int(rng.Int63n(99)), "sqlFloat": sqldb.Float(2.5),
			"sqlStr": sqldb.Str(text()), "sqlBool": sqldb.Bool(true), "sqlAny": seededValue(rng, text()),
		}}
		state := SaveState(c)
		if want := saveStateTree(c); state != want {
			t.Fatalf("seed %d: SaveState\n got %s\nwant %s", seed, state, want)
		}
		loaded, err := rt.LoadState(state)
		if err != nil {
			t.Fatalf("seed %d: LoadState: %v", seed, err)
		}
		if again := SaveState(loaded); again != state {
			t.Fatalf("seed %d: LoadState(SaveState(c)) saves as\n%s\nwant\n%s", seed, again, state)
		}
	}
}

// FuzzPersistenceStream: for any text in a DataSet's cells, table and
// column names and host variables, the streamed XML equals the tree's.
func FuzzPersistenceStream(f *testing.F) {
	for _, s := range texts {
		f.Add(int64(len(s)), s)
	}
	f.Fuzz(func(t *testing.T, seed int64, s string) {
		rng := rand.New(rand.NewSource(seed))
		text := func() string {
			i, j := rng.Intn(len(s)+1), rng.Intn(len(s)+1)
			return s[min(i, j):max(i, j)]
		}
		ds := seededDataSet(rng, text)
		named := dataset.NewDataTable(text(), text(), text())
		named.PrimaryKey = named.Columns[1:]
		if _, err := named.AddRow(sqldb.Str(text()), seededValue(rng, text())); err != nil {
			t.Fatal(err)
		}
		ds.AddTable(named)
		if got, want := persistDataSet(ds), persistDataSetTree(ds).String(); got != want {
			t.Fatalf("dataset memo\n got %q\nwant %q", got, want)
		}
		c := &Context{vars: map[string]any{text(): text(), s: ds, "v": seededValue(rng, s)}}
		if got, want := SaveState(c), saveStateTree(c); got != want {
			t.Fatalf("SaveState\n got %q\nwant %q", got, want)
		}
	})
}
