package patterns

import (
	"fmt"

	"wfsql/internal/engine"
	"wfsql/internal/mswf"
	"wfsql/internal/orasoa"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// Env is a fresh conformance environment: one database seeded with the
// paper's running-example schema, a service bus with the sample supplier
// service, a BPEL engine (for IBM/Oracle), and a WF runtime (for
// Microsoft).
type Env struct {
	DB       *sqldb.DB
	Bus      *wsbus.Bus
	Engine   *engine.Engine
	Runtime  *mswf.Runtime
	Supplier *wsbus.OrderFromSupplierService
	Funcs    *orasoa.Functions
}

// DataSourceName is the registered name of the conformance database.
const DataSourceName = "orderdb"

// ConnString is the WF connection string for the conformance database.
const ConnString = "Provider=SqlServer;Data Source=" + DataSourceName

// NewEnv builds a fresh conformance environment.
func NewEnv() *Env {
	db := sqldb.Open(DataSourceName)
	db.MustExec(`CREATE TABLE Orders (
		OrderID INTEGER PRIMARY KEY, ItemID VARCHAR NOT NULL,
		Quantity INTEGER NOT NULL, Approved BOOLEAN NOT NULL)`)
	db.MustExec(`INSERT INTO Orders VALUES
		(1, 'bolt', 10, TRUE), (2, 'bolt', 5, TRUE), (3, 'nut', 7, FALSE),
		(4, 'nut', 3, TRUE), (5, 'screw', 2, TRUE), (6, 'screw', 9, FALSE)`)
	db.MustExec(`CREATE TABLE OrderConfirmations (
		ItemID VARCHAR, Quantity INTEGER, Confirmation VARCHAR)`)
	db.MustExec(`CREATE PROCEDURE approved_totals () AS
		'SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders
		 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID'`)

	bus := wsbus.New()
	supplier := wsbus.NewOrderFromSupplier(0)
	bus.Register("OrderFromSupplier", supplier.Handle)
	wsbus.RegisterSQLAdapter(bus, "SQLAdapter", db)

	e := engine.New(bus)
	e.RegisterDataSource(DataSourceName, db)

	rt := mswf.NewRuntime()
	rt.RegisterDatabase(DataSourceName, mswf.SQLServer, db)
	rt.RegisterService("OrderFromSupplier", func(req map[string]string) (map[string]string, error) {
		return supplier.Handle(req)
	})

	return &Env{
		DB:       db,
		Bus:      bus,
		Engine:   e,
		Runtime:  rt,
		Supplier: supplier,
		Funcs:    orasoa.NewFunctions(db),
	}
}

// scalar runs a scalar query and returns its single value.
func (env *Env) scalar(sql string) (sqldb.Value, error) {
	res, err := env.DB.Session().Query(sql)
	if err != nil {
		return sqldb.Null(), err
	}
	return res.ScalarValue()
}

// expectInt asserts a scalar query result.
func (env *Env) expectInt(sql string, want int64) error {
	v, err := env.scalar(sql)
	if err != nil {
		return err
	}
	got, ok := v.AsInt()
	if !ok || got != want {
		return fmt.Errorf("%s: got %v, want %d", sql, v, want)
	}
	return nil
}

// CaseResult is the outcome of one executed conformance case, or of one
// InfoCase (Claim set, "<row>: <claim>"; no pattern or mechanism).
type CaseResult struct {
	Product   string
	Pattern   Pattern
	Mechanism Mechanism
	Support   Support
	Footnote  string
	Claim     string
	Err       error
}

// Label names what the case proves: "<mechanism> / <pattern>", or
// "Table I <claim>".
func (r CaseResult) Label() string {
	if r.Claim != "" {
		return "Table I " + r.Claim
	}
	return fmt.Sprintf("%s / %s", r.Mechanism, r.Pattern)
}

// RunConformance executes every conformance case of every product, then
// its InfoCases, each in a fresh environment, and returns the results.
func RunConformance(products []Product) []CaseResult {
	var out []CaseResult
	for _, p := range products {
		info := p.Info()
		for _, c := range p.Conformance() {
			env := NewEnv()
			err := c.Run(env)
			out = append(out, CaseResult{
				Product:   info.ShortName,
				Pattern:   c.Pattern,
				Mechanism: c.Mechanism,
				Support:   c.Support,
				Footnote:  c.Footnote,
				Err:       err,
			})
		}
		if ip, ok := p.(InfoProver); ok {
			for _, c := range ip.InfoCases() {
				out = append(out, CaseResult{Product: info.ShortName, Claim: c.Row + ": " + c.Claim, Err: c.Run(NewEnv())})
			}
		}
	}
	return out
}

// Failures filters the failed cases.
func Failures(results []CaseResult) []CaseResult {
	var out []CaseResult
	for _, r := range results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}
