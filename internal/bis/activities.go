package bis

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/resilience"
	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
)

// SQLActivity embeds a SQL statement that is sent to a database system and
// processed there. Queries, DML, DDL, and stored procedure calls are
// supported. A resulting data set is not passed to the process space: it
// remains in the data source, referenced by a result set reference.
type SQLActivity struct {
	ActivityName string
	DataSource   string // data source variable name
	SQL          string // statement with #var# / #setref# placeholders (set by NewSQL)
	ResultRef    string // result set reference receiving a query/CALL result ("" for none)

	// What NewSQL resolves once, for every instance: the text split at its
	// '#' markers and its upper-cased opening, which says whether it may
	// fill a result set reference. query memoizes the parse of the last
	// substituted SELECT that did — one entry, since the text only changes
	// when BindSetReference re-points a #setref# it names.
	parts []string
	lead  string
	query atomic.Pointer[sqldb.ParsedQuery]

	// Retry, when set, re-executes the statement on transient database
	// errors. Retries only apply while the activity runs in autocommit
	// mode (long-running process, outside any atomic SQL sequence): once
	// the statement participates in a surrounding transaction, a failed
	// statement poisons that transaction and recovery belongs to the
	// transaction boundary, so the policy is suppressed and the activity's
	// span notes the decision (retry=suppressed).
	Retry *resilience.Policy
}

// NewSQL builds a SQL activity against a data source variable.
func NewSQL(name, dataSourceVar, sql string) *SQLActivity {
	return &SQLActivity{ActivityName: name, DataSource: dataSourceVar, SQL: sql,
		parts: strings.Split(sql, "#"), lead: strings.ToUpper(strings.TrimSpace(sql))}
}

// Into directs the activity's result set into a result set reference.
func (a *SQLActivity) Into(resultRef string) *SQLActivity {
	a.ResultRef = resultRef
	return a
}

// WithRetry attaches a retry policy for transient database faults.
func (a *SQLActivity) WithRetry(p *resilience.Policy) *SQLActivity {
	a.Retry = p
	return a
}

// Name implements engine.Activity.
func (a *SQLActivity) Name() string { return a.ActivityName }

// Execute implements engine.Activity. The statement (with its retry
// policy) runs as one journaled SQL effect that publishes the table its
// result set reference is bound to, memo key "table" (bis state, not a
// process variable, so not in the engine's variable dialect). The memo is
// durable immediately in autocommit mode; inside a transaction it stays
// pending in the journal until the COMMIT record lands, so un-committed
// work re-runs as a whole on recovery (unit-of-work semantics).
func (a *SQLActivity) Execute(ctx *engine.Ctx) error {
	st, err := getState(ctx)
	if err != nil {
		return err
	}
	save := func() (map[string]string, error) {
		if a.ResultRef == "" {
			return nil, nil // nothing to publish; a nil memo frames as an empty one
		}
		ref, err := SetReference(ctx, a.ResultRef)
		if err != nil {
			return nil, nil
		}
		return map[string]string{"table": ref.Table}, nil
	}
	restore := func(memo map[string]string) error {
		if a.ResultRef == "" || memo["table"] == "" {
			return nil
		}
		// The result table survived the crash (tables are entities, not
		// transaction-scoped rows): re-bind the reference to it, on the
		// activity's data source, so normal completion still drops it.
		ref, err := SetReference(ctx, a.ResultRef)
		if err != nil {
			return err
		}
		ref.Table, ref.generated, ref.dataSource = memo["table"], true, st.dsvars[a.DataSource]
		return nil
	}
	return ctx.Inst.Effect(ctx.Span(), a.ActivityName, journal.EffectSQL,
		func() error { return a.executeLive(ctx, st) }, journal.Outcome{Save: save, Restore: restore})
}

// executeLive performs the statement on the instance's session, under
// the retry policy unless a surrounding transaction suppresses it (no
// journaling).
func (a *SQLActivity) executeLive(ctx *engine.Ctx, st *state) error {
	db, err := st.resolveDB(ctx, a.DataSource)
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	sql, params, err := substituteSQL(ctx, st, a.SQL, a.parts)
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	p := a.Retry
	if p != nil && st.transactional() {
		// Inside a transaction a retry of the single statement is not
		// legal: the statement's effects (and the fault) belong to the
		// enclosing unit of work, which must roll back first. Defer to
		// the transaction boundary (atomic sequence or process end).
		ctx.Span().Set("retry", "suppressed")
		p = nil
	}
	err = ctx.Inst.SQL(db, p, func(s *sqldb.Session) error {
		st.begin(s)
		return a.runOnce(ctx, st, s, sql, params)
	})
	if ab := resilience.Abandoned(err); ab != nil {
		return &engine.Fault{Name: engine.FaultRetryExhausted, Activity: a.ActivityName, Wrapped: ab}
	}
	return err
}

// runOnce performs one execution attempt of the activity's statement. For
// result set references the generated table is dropped first, so a retried
// attempt that failed halfway through materialization starts clean
// (idempotent re-execution).
func (a *SQLActivity) runOnce(ctx *engine.Ctx, st *state, sess *sqldb.Session, sql string, params []sqldb.Value) error {
	if a.ResultRef == "" {
		if _, err := sess.Exec(sql, params...); err != nil {
			return fmt.Errorf("%s: %w", a.ActivityName, err)
		}
		return nil
	}

	// Result handling: execute, then materialize the result *inside the
	// data source* as a per-instance table; only the reference enters the
	// process space.
	ref, err := SetReference(ctx, a.ResultRef)
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	if ref.Kind != ResultSetRef {
		return fmt.Errorf("%s: %s is not a result set reference", a.ActivityName, a.ResultRef)
	}
	// The generated table's statements are fixed shapes around an
	// instance-unique name: sqldb builds them from the name — no text to
	// lex, nothing for the shared plan cache to hold — and the activity's
	// own SELECT is parsed once per text, not once per instance.
	gen := ref.Name + "_i" + strconv.FormatInt(ctx.Inst.ID, 10)
	_, err = sess.DropTable(gen, true)
	switch {
	case err != nil: // the drop failed
	case strings.HasPrefix(a.lead, "SELECT"):
		q := a.query.Load()
		if q == nil || q.SQL() != sql {
			if q, err = sqldb.ParseQuery(sql); err != nil {
				break
			}
			a.query.Store(q)
		}
		_, err = sess.CreateTableAs(gen, q, params...)
	case strings.HasPrefix(a.lead, "CALL"):
		var res *sqldb.Result
		if res, err = sess.Exec(sql, params...); err == nil {
			err = materializeAsTable(sess, gen, res)
		}
	default:
		err = fmt.Errorf("only queries and CALLs can fill a result set reference")
	}
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	ref.Table, ref.generated, ref.dataSource = gen, true, st.dsvars[a.DataSource]
	return nil
}

// execPrepared runs one statement as a throwaway prepared statement:
// the path for instance-unique SQL text that would only pollute the
// shared plan cache. Change-stream capture still works — prepared
// statements carry their source text.
func execPrepared(sess *sqldb.Session, sql string, params ...sqldb.Value) error {
	ps, err := sess.Prepare(sql)
	if err != nil {
		return err
	}
	_, err = ps.Exec(params...)
	return err
}

// materializeAsTable stores an in-engine result set as a new table in the
// same database (used for stored procedure results bound to result refs).
// All rows load through ONE multi-row INSERT — the batch-exec path the
// engine's InsertStmt.Rows supports — instead of a per-row statement
// loop.
func materializeAsTable(sess *sqldb.Session, table string, res *sqldb.Result) error {
	if !res.IsQuery() {
		return fmt.Errorf("bis: statement produced no result set")
	}
	var cols []string
	for i, c := range res.Columns {
		typ := "VARCHAR"
		for _, row := range res.Rows {
			switch row[i].K {
			case sqldb.KindInt:
				typ = "INTEGER"
			case sqldb.KindFloat:
				typ = "FLOAT"
			case sqldb.KindBool:
				typ = "BOOLEAN"
			case sqldb.KindString:
				typ = "VARCHAR"
			default:
				continue
			}
			break
		}
		cols = append(cols, fmt.Sprintf("%s %s", c, typ))
	}
	if err := execPrepared(sess, fmt.Sprintf("CREATE TABLE %s (%s)", table, strings.Join(cols, ", "))); err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return nil
	}
	rowPh := "(" + strings.TrimRight(strings.Repeat("?, ", len(res.Columns)), ", ") + ")"
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" VALUES ")
	flat := make([]sqldb.Value, 0, len(res.Rows)*len(res.Columns))
	for i, row := range res.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(rowPh)
		flat = append(flat, row...)
	}
	return execPrepared(sess, b.String(), flat...)
}

// RetrieveSetActivity bridges external and internal data processing by
// loading the table behind a set reference into a set variable in the
// process space, preserving the relational structure as an XML RowSet
// (the Set Retrieval Pattern).
type RetrieveSetActivity struct {
	ActivityName string
	DataSource   string
	SetRefName   string
	SetVariable  string
}

// NewRetrieveSet builds a retrieve set activity.
func NewRetrieveSet(name, dataSourceVar, setRef, setVariable string) *RetrieveSetActivity {
	return &RetrieveSetActivity{ActivityName: name, DataSource: dataSourceVar, SetRefName: setRef, SetVariable: setVariable}
}

// Name implements engine.Activity.
func (a *RetrieveSetActivity) Name() string { return a.ActivityName }

// Execute implements engine.Activity.
func (a *RetrieveSetActivity) Execute(ctx *engine.Ctx) error {
	st, err := getState(ctx)
	if err != nil {
		return err
	}
	db, err := st.resolveDB(ctx, a.DataSource)
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	ref, err := SetReference(ctx, a.SetRefName)
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	if ref.Table == "" {
		return fmt.Errorf("%s: set reference %s is unbound", a.ActivityName, a.SetRefName)
	}
	// The bound table is usually instance-unique (see runOnce): built
	// from its name, the retrieval is neither parsed nor plan-cached.
	var res *sqldb.Result
	err = ctx.Inst.SQL(db, nil, func(s *sqldb.Session) (err error) {
		st.begin(s)
		res, err = s.SelectAll(ref.Table)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	doc, err := rowset.FromResult(res)
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	return ctx.SetNode(a.SetVariable, doc)
}

// AtomicSQLSequence embeds a sequence of SQL and retrieve set activities.
// In long-running processes the sequence is processed as a single
// transaction; in short-running processes all information service
// activities already share one transaction, so the boundary is a no-op.
type AtomicSQLSequence struct {
	ActivityName string
	Children     []engine.Activity

	// Retry, when set, re-runs the *entire* unit of work after a fault:
	// the failed attempt's transaction is rolled back first, so a retry
	// is legal — it restarts from a clean database state. This is the
	// transaction-boundary recovery that per-statement retries defer to.
	// Retries only engage in long-running processes; in a short-running
	// process the sequence is part of the single process-wide
	// transaction, and recovery belongs to the process boundary.
	Retry *resilience.Policy
}

// NewAtomicSequence builds an atomic SQL sequence.
func NewAtomicSequence(name string, children ...engine.Activity) *AtomicSQLSequence {
	return &AtomicSQLSequence{ActivityName: name, Children: children}
}

// WithRetry attaches a unit-of-work retry policy to the sequence.
func (a *AtomicSQLSequence) WithRetry(p *resilience.Policy) *AtomicSQLSequence {
	a.Retry = p
	return a
}

// Name implements engine.Activity.
func (a *AtomicSQLSequence) Name() string { return a.ActivityName }

// Nested lists the children, which the engine's deployment checks walk.
func (a *AtomicSQLSequence) Nested() []engine.Activity { return a.Children }

// Execute implements engine.Activity.
func (a *AtomicSQLSequence) Execute(ctx *engine.Ctx) error {
	st, err := getState(ctx)
	if err != nil {
		return err
	}

	run := func() error {
		st.enterAtomic()
		var fault error
		for _, c := range a.Children {
			if fault = c.Execute(ctx); fault != nil {
				break
			}
		}
		// exitAtomic rolls the transaction back on fault, so every
		// failed attempt leaves the database as if it never ran.
		if err := st.exitAtomic(fault); err != nil && fault == nil {
			fault = err
		}
		return fault
	}

	var fault error
	if a.Retry == nil || st.transactional() {
		if a.Retry != nil {
			ctx.Span().Set("retry", "suppressed")
		}
		fault = run()
	} else {
		fault = a.Retry.DoErr(resilience.Notes(ctx.Span()), func(attempt int) error { return run() })
		// A simulated crash classifies as permanent (the process is
		// dead, not retrying); surface the raw crash error so the
		// engine treats it as process death rather than a fault.
		if ce, ok := journal.AsCrash(fault); ok {
			return ce
		}
		if ab := resilience.Abandoned(fault); ab != nil {
			return &engine.Fault{Name: engine.FaultRetryExhausted, Activity: a.ActivityName, Wrapped: ab}
		}
	}
	if ce, ok := journal.AsCrash(fault); ok {
		return ce
	}
	if fault != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, fault)
	}
	return nil
}

// JavaSnippet is the IBM-specific extension that embeds code directly into
// the process logic; within it one may access a set variable as an object
// and update, insert, and delete tuples.
func JavaSnippet(name string, fn func(ctx *engine.Ctx) error) engine.Activity {
	return engine.NewSnippet(name, fn)
}
