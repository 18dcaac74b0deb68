package mswf

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"wfsql/internal/dataset"
	"wfsql/internal/journal"
	"wfsql/internal/resilience"
	"wfsql/internal/sqldb"
)

// This file is the Custom Activity Library (CAL): the customized SQL
// database activity type the paper describes, built on the ADO.NET-style
// dataset package. It provides SQL inline support on a higher level of
// abstraction than raw code activities.

// SQLParameter binds one @name placeholder of a statement to a host
// variable.
type SQLParameter struct {
	Name     string // parameter name as written in the SQL, e.g. "@item"
	Variable string // host variable supplying the value
}

// SQLDatabaseActivity executes one SQL statement — queries, DML, DDL, and
// stored procedure calls — against a statically configured connection.
// Table names are a static part of the statement (no reference mechanism,
// unlike BIS set references). Query and CALL results are always
// materialized into a DataSet object stored in a host variable: execution
// is aligned with a consecutive materialization step.
type SQLDatabaseActivity struct {
	ActivityName     string
	ConnectionString string // static, resolved per execution
	Statement        string // SQL text with @name parameters
	Parameters       []SQLParameter
	ResultSetVar     string // host variable receiving the *dataset.DataSet, in its table "Result"
	KeyColumns       []string

	// Event handlers, executable before/after the SQL statement (e.g. to
	// initialize parameter values or process result data directly).
	BeforeExecute func(c *Context) error
	AfterExecute  func(c *Context) error

	// RowsAffectedVar optionally receives the DML row count.
	RowsAffectedVar string

	// Retry re-executes the statement on transient database errors. WF's
	// SQL database activity runs in autocommit, so a retried attempt never
	// replays inside a wider transaction. Attempts and backoff waits are
	// noted on the activity's span.
	Retry *resilience.Policy

	// slots maps each parameter slot of Statement (sqldb.ParamNames) to
	// its SQLParameter's index. Statement and Parameters are frozen once
	// the workflow is deployed and the activity tree is shared by every
	// instance, so it is computed once, on first execution.
	bindOnce sync.Once
	slots    []int
	bindErr  error
}

// NewSQLDatabase builds a SQL database activity.
func NewSQLDatabase(name, connectionString, statement string) *SQLDatabaseActivity {
	return &SQLDatabaseActivity{ActivityName: name, ConnectionString: connectionString, Statement: statement}
}

// Param binds a @name parameter to a host variable.
func (a *SQLDatabaseActivity) Param(name, hostVariable string) *SQLDatabaseActivity {
	a.Parameters = append(a.Parameters, SQLParameter{Name: name, Variable: hostVariable})
	return a
}

// Into names the host variable receiving the materialized DataSet.
func (a *SQLDatabaseActivity) Into(hostVariable string) *SQLDatabaseActivity {
	a.ResultSetVar = hostVariable
	return a
}

// Keys configures the key columns recorded on the materialized table
// (enables Find and later synchronization).
func (a *SQLDatabaseActivity) Keys(cols ...string) *SQLDatabaseActivity {
	a.KeyColumns = cols
	return a
}

// WithRetry attaches a retry policy for transient database faults.
func (a *SQLDatabaseActivity) WithRetry(p *resilience.Policy) *SQLDatabaseActivity {
	a.Retry = p
	return a
}

// Name implements Activity.
func (a *SQLDatabaseActivity) Name() string { return a.ActivityName }

// Execute implements Activity. The statement execution and result
// materialization run as one journaled SQL effect that publishes the
// result host variable (the DataSet) and the row-count host variable, so
// a resumed instance restores them without touching the database. The
// activity runs in autocommit, so its memo is durable the moment it is
// journaled. The before/after event handlers are plain code —
// deterministic, so they re-run on replay rather than being memoized.
func (a *SQLDatabaseActivity) Execute(c *Context) error {
	if a.BeforeExecute != nil {
		if err := a.BeforeExecute(c); err != nil {
			return fmt.Errorf("%s: before-execute: %w", a.ActivityName, err)
		}
	}
	h := hostVars{c: c, dataSet: a.ResultSetVar, rows: a.RowsAffectedVar}
	if err := c.Effect(c.Current(), a.ActivityName, journal.EffectSQL, func() error { return a.executeLive(c) },
		journal.Outcome{Save: h.save, Restore: h.restore}); err != nil {
		return err
	}
	if a.AfterExecute != nil {
		if err := a.AfterExecute(c); err != nil {
			return fmt.Errorf("%s: after-execute: %w", a.ActivityName, err)
		}
	}
	return nil
}

// executeLive runs the statement and materializes its result into the
// activity's host variables.
func (a *SQLDatabaseActivity) executeLive(c *Context) error {
	db, err := c.Runtime.openConnection(a.ConnectionString)
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	vals, err := a.bindParameters(c)
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}

	// The statement autocommits on the instance's session on db.
	var res *sqldb.Result
	err = c.SQL(db, a.Retry, func(s *sqldb.Session) (err error) {
		res, err = s.Exec(a.Statement, vals...)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}

	if res.IsQuery() {
		if a.ResultSetVar == "" {
			return fmt.Errorf("%s: query result requires a result host variable", a.ActivityName)
		}
		ds := dataset.New()
		t := dataset.NewDataTable("Result", res.Columns...)
		t.PrimaryKey = append([]string(nil), a.KeyColumns...)
		ds.AddTable(t)
		for _, row := range res.Rows {
			if _, err := t.AddRow(row...); err != nil {
				return fmt.Errorf("%s: %w", a.ActivityName, err)
			}
		}
		t.AcceptChanges() // materialized rows are Unchanged
		c.Set(a.ResultSetVar, ds)
	} else if a.RowsAffectedVar != "" {
		c.SetInt(a.RowsAffectedVar, int64(res.RowsAffected))
	}
	return nil
}

// bindParameters fills the statement's parameter vector, slot by slot,
// from host variables, in the vector the instance reuses for every
// statement it runs.
func (a *SQLDatabaseActivity) bindParameters(c *Context) ([]sqldb.Value, error) {
	a.bindOnce.Do(a.bindSlots)
	if a.bindErr != nil || len(a.slots) == 0 {
		return nil, a.bindErr
	}
	vals := slices.Grow(c.params[:0], len(a.slots))[:len(a.slots)]
	c.params = vals
	for i, j := range a.slots {
		p := &a.Parameters[j]
		v := c.slot(p.Variable)
		if v == nil {
			return nil, fmt.Errorf("parameter %s: no host variable %s", p.Name, p.Variable)
		}
		vals[i] = v.sqlValue()
	}
	return vals, nil
}

// bindSlots matches the statement's named placeholders, as the SQL lexer
// finds them (never inside a string literal, never a prefix of a longer
// name), with the activity's parameters by name, case-insensitively.
// Each placeholder needs a parameter and each parameter a placeholder.
func (a *SQLDatabaseActivity) bindSlots() {
	names, err := sqldb.ParamNames(a.Statement)
	if err != nil {
		a.bindErr = err
		return
	}
	for _, p := range a.Parameters {
		if !slices.ContainsFunc(names, p.binds) {
			a.bindErr = fmt.Errorf("parameter %s not present in statement", p.Name)
			return
		}
	}
	for _, n := range names {
		j := slices.IndexFunc(a.Parameters, func(p SQLParameter) bool { return p.binds(n) })
		if j < 0 {
			a.bindErr = fmt.Errorf("placeholder @%s has no parameter", n)
			return
		}
		a.slots = append(a.slots, j)
	}
}

// binds reports whether the parameter binds the placeholder of that name.
func (p SQLParameter) binds(placeholder string) bool {
	return strings.EqualFold(strings.TrimPrefix(p.Name, "@"), placeholder)
}

// sqlValue converts a host variable to a SQL value.
func (v *slot) sqlValue() sqldb.Value {
	switch v.kind {
	case slotString:
		return sqldb.Str(v.s)
	case slotInt:
		return sqldb.Int(v.i)
	}
	switch t := v.v.(type) {
	case nil:
		return sqldb.Null()
	case sqldb.Value:
		return t
	case int:
		return sqldb.Int(int64(t))
	case float64:
		return sqldb.Float(t)
	case bool:
		return sqldb.Bool(t)
	}
	return sqldb.Str(fmt.Sprint(v.v))
}

// NewDataAdapter builds a dataset adapter over a WF connection string —
// the ADO.NET surface code activities use for the Synchronization Pattern.
// Its Fill and Update run on the calling instance's session, under the
// instance's budget, as every SQL activity's statement does.
func NewDataAdapter(c *Context, connectionString, selectSQL, table string, keys ...string) (*dataset.DataAdapter, error) {
	db, err := c.Runtime.openConnection(connectionString)
	if err != nil {
		return nil, err
	}
	return &dataset.DataAdapter{DB: db, SelectSQL: selectSQL, Table: table, KeyColumns: keys,
		Run: func(op func(*sqldb.Session) error) error { return c.SQL(db, nil, op) }}, nil
}
