package bis

import (
	"fmt"
	"strings"

	"wfsql/internal/engine"
)

// ProcessBuilder plays the WebSphere Integration Developer role: it
// assembles a BPEL process model with BIS-specific artifacts — set
// reference variables, data source variables, and preparation/cleanup
// statements — and produces an engine.Process for deployment.
type ProcessBuilder struct {
	name        string
	mode        engine.TransactionMode
	vars        []engine.VarDecl
	refs        []*SetRef
	dsvars      map[string]string
	defaultDS   string // first declared data source variable
	preparation []dsStatement
	cleanup     []dsStatement
	body        engine.Activity
}

type dsStatement struct {
	dsVar string
	sql   string
}

// NewProcess starts building a BIS process.
func NewProcess(name string) *ProcessBuilder {
	return &ProcessBuilder{name: name, dsvars: map[string]string{}}
}

// Mode sets the process transaction mode (long-running by default).
func (b *ProcessBuilder) Mode(m engine.TransactionMode) *ProcessBuilder {
	b.mode = m
	return b
}

// Variable declares a scalar process variable.
func (b *ProcessBuilder) Variable(name, init string) *ProcessBuilder {
	b.vars = append(b.vars, engine.VarDecl{Name: name, Kind: engine.ScalarVar, Init: init})
	return b
}

// XMLVariable declares an XML process variable (e.g. a set variable).
func (b *ProcessBuilder) XMLVariable(name, initXML string) *ProcessBuilder {
	b.vars = append(b.vars, engine.VarDecl{Name: name, Kind: engine.XMLVar, InitXML: initXML})
	return b
}

// DataSourceVariable declares a data source variable holding the
// connection reference; the bound data source can be changed at deploy
// time or runtime without redeploying the process.
func (b *ProcessBuilder) DataSourceVariable(name, dataSource string) *ProcessBuilder {
	if len(b.dsvars) == 0 {
		b.defaultDS = name
	}
	b.dsvars[name] = dataSource
	return b
}

// InputSetReference declares an input set reference bound to a table.
func (b *ProcessBuilder) InputSetReference(name, table string) *ProcessBuilder {
	b.refs = append(b.refs, &SetRef{Name: name, Kind: InputSetRef, Table: table})
	return b
}

// ResultSetReference declares a result set reference. Its table is
// generated per instance when a SQL activity fills it; cleanup drops it at
// the end of the workflow.
func (b *ProcessBuilder) ResultSetReference(name string) *ProcessBuilder {
	b.refs = append(b.refs, &SetRef{Name: name, Kind: ResultSetRef})
	return b
}

// SetRefLifecycle attaches preparation and cleanup statements to a set
// reference ({TABLE} is replaced with the bound table name).
func (b *ProcessBuilder) SetRefLifecycle(name, preparation, cleanup string) *ProcessBuilder {
	for _, r := range b.refs {
		if r.Name == name {
			r.Preparation = preparation
			r.Cleanup = cleanup
		}
	}
	return b
}

// Preparation adds a data source preparation statement run before the
// process body (DDL for managing database entities).
func (b *ProcessBuilder) Preparation(dsVar, sql string) *ProcessBuilder {
	b.preparation = append(b.preparation, dsStatement{dsVar: dsVar, sql: sql})
	return b
}

// Cleanup adds a data source cleanup statement run after process
// completion (also on fault).
func (b *ProcessBuilder) Cleanup(dsVar, sql string) *ProcessBuilder {
	b.cleanup = append(b.cleanup, dsStatement{dsVar: dsVar, sql: sql})
	return b
}

// Body sets the process body.
func (b *ProcessBuilder) Body(a engine.Activity) *ProcessBuilder {
	b.body = a
	return b
}

// ProcessName returns the process name.
func (b *ProcessBuilder) ProcessName() string { return b.name }

// TransactionMode returns the configured mode.
func (b *ProcessBuilder) TransactionMode() engine.TransactionMode { return b.mode }

// VariableDecls returns the declared process variables.
func (b *ProcessBuilder) VariableDecls() []engine.VarDecl {
	return append([]engine.VarDecl(nil), b.vars...)
}

// SetRefs returns the declared set references.
func (b *ProcessBuilder) SetRefs() []*SetRef {
	out := make([]*SetRef, len(b.refs))
	for i, r := range b.refs {
		cp := *r
		out[i] = &cp
	}
	return out
}

// DataSourceVars returns the data source variable bindings.
func (b *ProcessBuilder) DataSourceVars() map[string]string {
	out := make(map[string]string, len(b.dsvars))
	for k, v := range b.dsvars {
		out[k] = v
	}
	return out
}

// LifecycleStatements returns the process-level preparation and cleanup
// statements as (dsVar, sql) pairs.
func (b *ProcessBuilder) LifecycleStatements() (preparation, cleanup [][2]string) {
	for _, p := range b.preparation {
		preparation = append(preparation, [2]string{p.dsVar, p.sql})
	}
	for _, c := range b.cleanup {
		cleanup = append(cleanup, [2]string{c.dsVar, c.sql})
	}
	return
}

// BodyActivity returns the configured body.
func (b *ProcessBuilder) BodyActivity() engine.Activity { return b.body }

// Build produces the deployable process model.
func (b *ProcessBuilder) Build() *engine.Process {
	p := &engine.Process{
		Name:      b.name,
		Variables: b.vars,
		Body:      b.body,
		Mode:      b.mode,
		Stack:     "BIS",
	}
	refs := b.refs
	dsvars, defaultDS := b.dsvars, b.defaultDS
	prep, clean := b.preparation, b.cleanup
	p.OnInstanceStart = append(p.OnInstanceStart, func(ctx *engine.Ctx) error {
		st := &state{
			refs:   map[string]*SetRef{},
			dsvars: map[string]string{},
			mode:   p.Mode,
		}
		for _, r := range refs {
			cp := *r // per-instance copy
			st.refs[r.Name] = &cp
		}
		for k, v := range dsvars {
			st.dsvars[k] = v
		}
		st.jrec = ctx.Engine.Journal()
		st.inst = ctx.Inst
		ctx.Inst.SetContext(stateKey, st)

		// Preparation statements run before the body, outside the process
		// transaction (they manage database entities, not business data).
		for _, ps := range prep {
			if err := runLifecycleStatement(ctx, st, ps, nil); err != nil {
				return fmt.Errorf("bis: preparation: %w", err)
			}
		}
		for _, r := range st.refs {
			if r.Preparation != "" && r.Table != "" {
				if err := runLifecycleStatement(ctx, st, dsStatement{dsVar: defaultDS, sql: r.Preparation}, r); err != nil {
					return fmt.Errorf("bis: set reference %s preparation: %w", r.Name, err)
				}
			}
		}

		// Completion: end process-wide transactions, then run cleanup.
		ctx.Inst.OnComplete(func(fault error) {
			st.finish(fault)
			for _, r := range st.refs {
				if r.Table != "" && (r.Cleanup != "" || r.generated) {
					runLifecycleStatement(ctx, st, dsStatement{dsVar: defaultDS, sql: r.Cleanup}, r)
				}
			}
			for _, cs := range clean {
				runLifecycleStatement(ctx, st, cs, nil)
			}
		})
		return nil
	})
	return p
}

// runLifecycleStatement runs a process-level lifecycle statement on its
// data source variable, or a set reference's on the data source its table
// was generated on (else on stmt.dsVar, the first declared variable). A
// generated table's default cleanup is a property of the reference, not
// SQL text: with no statement, the table is dropped.
func runLifecycleStatement(ctx *engine.Ctx, st *state, stmt dsStatement, ref *SetRef) error {
	db, err := st.resolveDB(ctx, stmt.dsVar)
	if ref != nil && ref.dataSource != "" {
		db, err = ctx.Engine.DataSource(ref.dataSource)
	}
	if err != nil {
		return err
	}
	// Lifecycle statements deliberately bypass the instance's session
	// (host.Instance.SQL): entity management must be independent of the
	// process transaction, so each runs on a fresh single-statement
	// session that never holds transaction state, its span parented at
	// the instance span. Everything else the stack executes goes through
	// the instance session.
	sess := db.Session()
	sess.SetSpanParent(ctx.Span().SpanID())
	if ref != nil && stmt.sql == "" {
		_, err = sess.DropTable(ref.Table, true)
		return err
	}
	sql := stmt.sql
	if ref != nil {
		sql = strings.ReplaceAll(sql, "{TABLE}", ref.Table)
	}
	// They also bypass the shared plan cache: the substituted {TABLE}
	// name is unique to this instance, so the text can never hit — a
	// one-shot prepared statement avoids churning the LRU with dead
	// entries.
	ps, err := sess.Prepare(sql)
	if err != nil {
		return err
	}
	_, err = ps.Exec()
	return err
}
