// Package orasoa reimplements the SQL inline support of Oracle's SOA Suite
// as surveyed by the paper. Unlike IBM and Microsoft, Oracle does not add
// SQL-specific activity types: it provides proprietary *XPath extension
// functions* (namespaces ora and orcl) callable from BPEL assign
// activities — query-database, sequence-next-val, lookup-table, and
// processXSQL — plus bpelx-prefixed assign operations for updating,
// inserting, and deleting local XML data, and the XSQL framework that
// processXSQL executes pages in.
//
// Processes run on the shared BPEL engine in internal/engine (the Oracle
// BPEL Process Manager role); the extension functions are installed as the
// process's function resolver.
package orasoa

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wfsql/internal/engine"
	"wfsql/internal/obsv"
	"wfsql/internal/resilience"
	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// Functions implements engine.Functions with Oracle's extension
// functions. The database connection is static (fixed at construction),
// matching the paper's comparison: "one has to provide a static connection
// string for each XPath Extension Function". Their statements run as part
// of the calling instance, on its session (host.Instance.SQL).
type Functions struct {
	db    *sqldb.DB
	xsql  *XSQLFramework
	retry atomic.Pointer[resilience.Policy]
	mu    sync.Mutex
	calls map[string]int // per-function call counters (monitoring)
	obs   *obsv.Observability
}

// SetObservability attaches (or with nil detaches) a tracing/metrics
// bundle: every extension-function call then increments ora.calls and
// ora.calls.<function>. The SQL statements the functions execute are
// traced by the database itself (sqldb.DB.SetObservability) and run on
// the calling instance's session (host.Instance.SQL), so their spans are
// parented at the assign activity whose XPath expression invoked the
// function.
func (f *Functions) SetObservability(o *obsv.Observability) {
	f.mu.Lock()
	f.obs = o
	f.mu.Unlock()
}

// NewFunctions creates the extension function library over a statically
// bound database, with an XSQL framework for processXSQL.
func NewFunctions(db *sqldb.DB) *Functions {
	return &Functions{db: db, xsql: &XSQLFramework{pages: map[string][]xsqlStmt{}}, calls: map[string]int{}}
}

// XSQL exposes the framework for page registration.
func (f *Functions) XSQL() *XSQLFramework { return f.xsql }

// Calls returns how many times the named function was invoked.
func (f *Functions) Calls(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[name]
}

// SetRetryPolicy installs a retry policy applied to every database
// statement the extension functions execute, including statements run by
// processXSQL pages. Extension functions are evaluated inside assign
// activities with no transaction bracket of their own — each statement
// autocommits — so per-statement re-execution after a transient fault is
// always legal here (query-database and lookup-table are pure reads;
// sequence-next-val may skip values on retry, which sequences permit).
// A page's statements retry one by one, never the whole page.
func (f *Functions) SetRetryPolicy(p *resilience.Policy) { f.retry.Store(p) }

// query runs one query on the calling instance's session under the
// library's retry policy.
func (f *Functions) query(in *engine.Instance, sql string, params ...sqldb.Value) (res *sqldb.Result, err error) {
	err = in.SQL(f.db, f.retry.Load(), func(s *sqldb.Session) (err error) {
		res, err = s.Query(sql, params...)
		return err
	})
	return res, err
}

// CallFunction implements engine.Functions for the instance in. Functions
// are accepted under both the ora and orcl prefixes.
func (f *Functions) CallFunction(in *engine.Instance, name string, args []xpath.Value) (xpath.Value, error) {
	prefix, local := "", name
	if i := strings.LastIndex(name, ":"); i >= 0 {
		prefix, local = name[:i], name[i+1:]
	}
	if prefix != "ora" && prefix != "orcl" {
		return xpath.Value{}, fmt.Errorf("orasoa: unknown function namespace %q in %s()", prefix, name)
	}
	f.mu.Lock()
	f.calls[local]++
	obs := f.obs
	f.mu.Unlock()
	if m := obs.M(); m != nil { // the name is built only for a registry to count it
		m.Counter("ora.calls").Inc()
		m.Counter("ora.calls." + local).Inc()
	}
	switch local {
	case "query-database":
		return f.queryDatabase(in, args)
	case "sequence-next-val":
		return f.sequenceNextVal(in, args)
	case "lookup-table":
		return f.lookupTable(in, args)
	case "processXSQL":
		return f.processXSQL(in, args)
	}
	return xpath.Value{}, fmt.Errorf("orasoa: unknown extension function %s()", name)
}

// queryDatabase executes any valid SQL query provided as a string
// parameter and returns its result set as an XML RowSet node-set.
func (f *Functions) queryDatabase(in *engine.Instance, args []xpath.Value) (xpath.Value, error) {
	if len(args) != 1 {
		return xpath.Value{}, fmt.Errorf("orasoa: query-database expects 1 argument")
	}
	res, err := f.query(in, args[0].AsString())
	if err != nil {
		return xpath.Value{}, fmt.Errorf("orasoa: query-database: %w", err)
	}
	doc, err := rowset.FromResult(res)
	if err != nil {
		return xpath.Value{}, err
	}
	return xpath.Value{Kind: xpath.KindNodeSet, Nodes: []*xdm.Node{doc}, Fresh: true}, nil
}

// sequenceNextVal returns the next value of a predefined sequence of
// integers (useful e.g. when creating a unique number as a primary key).
func (f *Functions) sequenceNextVal(in *engine.Instance, args []xpath.Value) (xpath.Value, error) {
	if len(args) != 1 {
		return xpath.Value{}, fmt.Errorf("orasoa: sequence-next-val expects 1 argument")
	}
	res, err := f.query(in, "SELECT NEXTVAL(?)", sqldb.Str(args[0].AsString()))
	if err != nil {
		return xpath.Value{}, fmt.Errorf("orasoa: sequence-next-val: %w", err)
	}
	v, err := res.ScalarValue()
	if err != nil {
		return xpath.Value{}, err
	}
	return xpath.Number(float64(v.I)), nil
}

// lookupTable executes SELECT outputColumn FROM table WHERE inputColumn =
// key, generated from its parameters (outputColumn, table, inputColumn,
// key), and returns exactly one column value of the tuple identified by
// its key.
func (f *Functions) lookupTable(in *engine.Instance, args []xpath.Value) (xpath.Value, error) {
	if len(args) != 4 {
		return xpath.Value{}, fmt.Errorf("orasoa: lookup-table expects 4 arguments (outputColumn, table, inputColumn, key)")
	}
	outCol, table, inCol := args[0].AsString(), args[1].AsString(), args[2].AsString()
	if !validIdent(outCol) || !validIdent(table) || !validIdent(inCol) {
		return xpath.Value{}, fmt.Errorf("orasoa: lookup-table: invalid identifier")
	}
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s = ?", outCol, table, inCol)
	res, err := f.query(in, sql, xpathToSQL(args[3]))
	if err != nil {
		return xpath.Value{}, fmt.Errorf("orasoa: lookup-table: %w", err)
	}
	if len(res.Rows) == 0 {
		return xpath.String(""), nil
	}
	if len(res.Rows) > 1 {
		return xpath.Value{}, fmt.Errorf("orasoa: lookup-table: key %q is not unique in %s", args[3].AsString(), table)
	}
	return xpath.String(res.Rows[0][0].String()), nil
}

// processXSQL accesses a registered XSQL page, executes it in the XSQL
// framework, and returns its result in XML. Arguments after the page name
// are name/value pairs bound to the page's {@name} parameters.
func (f *Functions) processXSQL(in *engine.Instance, args []xpath.Value) (xpath.Value, error) {
	if len(args) == 0 {
		return xpath.Value{}, fmt.Errorf("orasoa: processXSQL expects a page name")
	}
	if (len(args)-1)%2 != 0 {
		return xpath.Value{}, fmt.Errorf("orasoa: processXSQL parameters must be name/value pairs")
	}
	doc, err := f.xsql.execute(in, f.db, f.retry.Load(), args[0].AsString(), args[1:])
	if err != nil {
		return xpath.Value{}, err
	}
	return xpath.Value{Kind: xpath.KindNodeSet, Nodes: []*xdm.Node{doc}, Fresh: true}, nil
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// xpathToSQL converts an XPath value to the most specific SQL value.
func xpathToSQL(v xpath.Value) sqldb.Value {
	if v.Kind == xpath.KindNumber {
		if v.Num == float64(int64(v.Num)) {
			return sqldb.Int(int64(v.Num))
		}
		return sqldb.Float(v.Num)
	}
	if v.Kind == xpath.KindBoolean {
		return sqldb.Bool(v.Bool)
	}
	s := v.AsString()
	var i int64
	if _, err := fmt.Sscanf(s, "%d", &i); err == nil && fmt.Sprint(i) == s {
		return sqldb.Int(i)
	}
	return sqldb.Str(s)
}

// XSQLFramework combines XML, XSLT, and SQL: it generates XML results from
// parameterized SQL queries and supports DML and DDL operations as well as
// stored procedures. Pages are XML documents of xsql:query and xsql:dml
// elements with {@param} placeholders.
type XSQLFramework struct {
	mu    sync.RWMutex
	pages map[string][]xsqlStmt
}

// xsqlStmt is one xsql:query or xsql:dml element of a registered page,
// split once: its text with every {@name} turned into a ? bind slot, and
// the parameter names in slot order. Binding instead of inlining
// SQL-quoted literals keeps one plan-cache entry per page statement
// whatever the values; a parameter used twice gets two slots.
type xsqlStmt struct {
	elem   string // element name, e.g. "xsql:query"
	result string // a query's wrapper element in the result document
	sql    string
	params []string
}

// RegisterPage parses a page, splits each of its statements into SQL
// text and parameter names, and installs it under a name (the "XML file"
// processXSQL accesses).
func (x *XSQLFramework) RegisterPage(name, pageXML string) error {
	doc, err := xdm.Parse(pageXML)
	if err != nil {
		return fmt.Errorf("orasoa: xsql page %s: %w", name, err)
	}
	var stmts []xsqlStmt
	for _, el := range doc.ChildElements() {
		st := xsqlStmt{elem: el.Name, result: "result"}
		if v, ok := el.Attr("name"); ok {
			st.result = v
		}
		var b strings.Builder
		for sql := el.TextContent(); ; {
			before, after, found := strings.Cut(sql, "{@")
			b.WriteString(before)
			if !found {
				break
			}
			param, rest, ok := strings.Cut(after, "}")
			if !ok {
				return fmt.Errorf("orasoa: xsql page %s: unterminated {@param}", name)
			}
			st.params = append(st.params, param)
			b.WriteByte('?')
			sql = rest
		}
		st.sql = b.String()
		stmts = append(stmts, st)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.pages[name] = stmts
	return nil
}

// execute runs a page with the given name/value pairs on the calling
// instance's session on db, each statement under p, and returns the XML
// result document: one child element per xsql:query (an XML RowSet) or
// xsql:dml (a rowsAffected element).
func (x *XSQLFramework) execute(in *engine.Instance, db *sqldb.DB, p *resilience.Policy, page string, pairs []xpath.Value) (*xdm.Node, error) {
	x.mu.RLock()
	stmts, ok := x.pages[page]
	x.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("orasoa: no XSQL page %q", page)
	}
	out := xdm.NewElement("xsql-result")
	out.SetAttr("page", page)
	for _, st := range stmts {
		binds := make([]sqldb.Value, len(st.params))
		for i, name := range st.params {
			v, ok := pageParam(pairs, name)
			if !ok {
				return nil, fmt.Errorf("orasoa: xsql page %s: unbound page parameter %q", page, name)
			}
			binds[i] = pageValue(v)
		}
		kind := localName(st.elem)
		if kind != "query" && kind != "dml" {
			return nil, fmt.Errorf("orasoa: xsql page %s: unknown element %s", page, st.elem)
		}
		var res *sqldb.Result
		err := in.SQL(db, p, func(s *sqldb.Session) (err error) {
			res, err = s.Exec(st.sql, binds...)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("orasoa: xsql page %s: %w", page, err)
		}
		if kind == "dml" {
			out.ElementWithText("rowsAffected", strconv.Itoa(res.RowsAffected))
			continue
		}
		if !res.IsQuery() {
			return nil, fmt.Errorf("orasoa: xsql page %s: xsql:query did not return rows", page)
		}
		rs, err := rowset.FromResult(res)
		if err != nil {
			return nil, err
		}
		out.Element(st.result).AppendChild(rs)
	}
	return out, nil
}

// pageParam returns the value of the last name/value pair named name: a
// name given twice takes its last value.
func pageParam(pairs []xpath.Value, name string) (string, bool) {
	for i := len(pairs) - 2; i >= 0; i -= 2 {
		if pairs[i].AsString() == name {
			return pairs[i+1].AsString(), true
		}
	}
	return "", false
}

// pageValue binds a page parameter: numeric-looking values as numbers, so
// they compare naturally against numeric columns. The lead-byte gate keeps
// the common non-numeric case from allocating strconv syntax errors;
// ParseInt/ParseFloat only accept the full string, so "12abc" stays a
// string.
func pageValue(v string) sqldb.Value {
	if v != "" && strings.IndexByte("+-.0123456789", v[0]) >= 0 {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return sqldb.Int(n)
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return sqldb.Float(f)
		}
	}
	return sqldb.Str(v)
}

func localName(n string) string {
	if i := strings.LastIndex(n, ":"); i >= 0 {
		return n[i+1:]
	}
	return n
}
