// Package wfsql is an executable reproduction of "An Overview of SQL
// Support in Workflow Products" (Vrhovnik, Schwarz, Radeschütz,
// Mitschang; ICDE 2008).
//
// The paper surveys how three commercial workflow products integrate SQL
// into process logic and compares them against nine data management
// patterns. This module rebuilds the entire surveyed stack from scratch:
//
//   - internal/sqldb — an embeddable SQL engine (the database substrate);
//   - internal/engine — a BPEL-style workflow engine (WebSphere Process
//     Server / Oracle BPEL PM role);
//   - internal/mswf — a Workflow Foundation-style runtime with BAL/CAL
//     activity libraries and XOML authoring;
//   - internal/bis, internal/orasoa — the IBM and Oracle SQL-inline
//     layers (SQL activities, set references, XPath extension functions);
//   - internal/dataset — the ADO.NET DataSet/DataAdapter analog;
//   - internal/patterns — the paper's pattern taxonomy with executable
//     conformance cases that regenerate Tables I and II.
//
// This package is the facade: it wires a complete environment (database,
// service bus, engines) and provides the paper's running example —
// aggregate approved orders, order each item type from a supplier, record
// confirmations — on each of the three product stacks (Figures 4, 6, 8).
package wfsql

import (
	"fmt"
	"math/rand"

	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/mswf"
	"wfsql/internal/obsv"
	"wfsql/internal/orasoa"
	"wfsql/internal/patterns"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// Workload parameterizes the running example's data set.
type Workload struct {
	// Orders is the number of rows in the Orders table.
	Orders int
	// Items is the number of distinct item types.
	Items int
	// ApprovalPercent is the percentage (0-100) of approved orders.
	ApprovalPercent int
	// Seed drives the deterministic workload generator.
	Seed int64
	// PayloadColumns adds extra VARCHAR columns to each order, inflating
	// row width (used by the reference-vs-materialization ablation).
	PayloadColumns int
	// PayloadWidth is the byte width of each payload column.
	PayloadWidth int
}

// DefaultWorkload is the paper-scale workload (the six-order example).
func DefaultWorkload() Workload {
	return Workload{Orders: 6, Items: 3, ApprovalPercent: 67, Seed: 1}
}

// Environment is a fully wired reproduction environment: one database
// seeded with the workload, the sample supplier service on a bus, the
// BPEL engine (IBM/Oracle stacks), and the WF runtime (Microsoft stack).
type Environment struct {
	DB       *sqldb.DB
	Bus      *wsbus.Bus
	Engine   *engine.Engine
	Runtime  *mswf.Runtime
	Supplier *wsbus.OrderFromSupplierService
	Funcs    *orasoa.Functions
	Workload Workload

	obs *obsv.Observability
}

// DataSourceName is the registered data source name of the environment's
// database.
const DataSourceName = "orderdb"

// ConnString is the WF connection string for the environment's database.
const ConnString = "Provider=SqlServer;Data Source=" + DataSourceName

// NewEnvironment builds an environment seeded with the given workload.
func NewEnvironment(w Workload) *Environment {
	if w.Orders <= 0 {
		w = DefaultWorkload()
	}
	if w.Items <= 0 {
		w.Items = 1
	}
	db := sqldb.Open(DataSourceName)
	SeedOrders(db, w)

	bus := wsbus.New()
	supplier := wsbus.NewOrderFromSupplier(0)
	bus.Register("OrderFromSupplier", supplier.Operation())
	wsbus.RegisterSQLAdapter(bus, "SQLAdapter", db)
	return newHosts(db, bus, supplier, w)
}

// newHosts constructs fresh workflow hosts — the BPEL engine, the WF
// runtime and the Oracle extension-function library — over the given
// external systems.
func newHosts(db *sqldb.DB, bus *wsbus.Bus, supplier *wsbus.OrderFromSupplierService, w Workload) *Environment {
	e := engine.New(bus)
	e.RegisterDataSource(DataSourceName, db)

	rt := mswf.NewRuntime()
	rt.RegisterDatabase(DataSourceName, mswf.SQLServer, db)
	rt.RegisterService("OrderFromSupplier", supplier.Operation())

	return &Environment{
		DB: db, Bus: bus, Engine: e, Runtime: rt,
		Supplier: supplier, Funcs: orasoa.NewFunctions(db), Workload: w,
	}
}

// Rebuild models a workflow host restart: the database, service bus,
// supplier ledger, and workload survive (they are external systems),
// while the BPEL engine and the WF runtime — the processes that crashed —
// are constructed fresh, with no in-memory state. Recovery tests attach
// the journal to the rebuilt hosts and resume the in-flight instances.
func (env *Environment) Rebuild() *Environment {
	out := newHosts(env.DB, env.Bus, env.Supplier, env.Workload)
	if env.obs != nil {
		// The surviving external systems (DB, bus) keep their attachment;
		// re-attach the rebuilt hosts to the same bundle.
		out.EnableObservability(env.obs)
	}
	return out
}

// AttachJournal attaches the recorder to both workflow hosts.
func (env *Environment) AttachJournal(rec *journal.Recorder) {
	env.Engine.AttachJournal(rec)
	env.Runtime.AttachJournal(rec)
}

// SeedOrders creates and fills the running example's schema on a database.
func SeedOrders(db *sqldb.DB, w Workload) {
	cols := "OrderID INTEGER PRIMARY KEY, ItemID VARCHAR NOT NULL, Quantity INTEGER NOT NULL, Approved BOOLEAN NOT NULL"
	insCols := "OrderID, ItemID, Quantity, Approved"
	ph := "?, ?, ?, ?"
	for i := 0; i < w.PayloadColumns; i++ {
		cols += fmt.Sprintf(", Payload%d VARCHAR", i)
		insCols += fmt.Sprintf(", Payload%d", i)
		ph += ", ?"
	}
	db.MustExec("DROP TABLE IF EXISTS Orders")
	db.MustExec("DROP TABLE IF EXISTS OrderConfirmations")
	db.MustExec(fmt.Sprintf("CREATE TABLE Orders (%s)", cols))
	db.MustExec("CREATE TABLE OrderConfirmations (ItemID VARCHAR, Quantity INTEGER, Confirmation VARCHAR)")
	db.MustExec("DROP PROCEDURE IF EXISTS approved_totals")
	db.MustExec(`CREATE PROCEDURE approved_totals () AS
		'SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders
		 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID'`)

	rng := rand.New(rand.NewSource(w.Seed))
	payload := make([]byte, w.PayloadWidth)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	ins := fmt.Sprintf("INSERT INTO Orders (%s) VALUES (%s)", insCols, ph)
	s := db.Session()
	stmt, err := s.Prepare(ins)
	if err != nil {
		panic(err)
	}
	for i := 0; i < w.Orders; i++ {
		vals := []sqldb.Value{
			sqldb.Int(int64(i + 1)),
			sqldb.Str(fmt.Sprintf("item%03d", rng.Intn(w.Items))),
			sqldb.Int(int64(1 + rng.Intn(20))),
			sqldb.Bool(rng.Intn(100) < w.ApprovalPercent),
		}
		for c := 0; c < w.PayloadColumns; c++ {
			vals = append(vals, sqldb.Str(string(payload)))
		}
		if _, err := stmt.Exec(vals...); err != nil {
			panic(err)
		}
	}
}

// ConfirmationCount returns the number of recorded order confirmations.
func (env *Environment) ConfirmationCount() int {
	res := env.DB.MustExec("SELECT COUNT(*) FROM OrderConfirmations")
	n, _ := res.Rows[0][0].AsInt()
	return int(n)
}

// ApprovedItemTypes returns the number of distinct item types with
// approved orders (the expected confirmation count).
func (env *Environment) ApprovedItemTypes() int {
	res := env.DB.MustExec("SELECT COUNT(DISTINCT ItemID) FROM Orders WHERE Approved = TRUE")
	n, _ := res.Rows[0][0].AsInt()
	return int(n)
}

// ResetConfirmations clears the confirmations table between runs.
func (env *Environment) ResetConfirmations() {
	env.DB.MustExec("DELETE FROM OrderConfirmations")
}

// TableI regenerates the paper's Table I.
func TableI() string { return patterns.TableI(patterns.Products()) }

// TableII regenerates the paper's Table II.
func TableII() string { return patterns.TableII(patterns.Products()) }

// VerifyTableII executes every conformance case backing Table II and
// returns the rendered table plus descriptions of any failures (empty on
// full conformance).
func VerifyTableII() (string, []string) {
	text, failures := patterns.VerifiedTableII(patterns.Products())
	var msgs []string
	for _, f := range failures {
		msgs = append(msgs, fmt.Sprintf("%s %s/%s: %v", f.Product, f.Mechanism, f.Pattern, f.Err))
	}
	return text, msgs
}
