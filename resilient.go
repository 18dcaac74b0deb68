package wfsql

import (
	"fmt"

	"wfsql/internal/bis"
	"wfsql/internal/dataset"
	"wfsql/internal/engine"
	"wfsql/internal/mswf"
	"wfsql/internal/orasoa"
	"wfsql/internal/resilience"
)

// ResilienceConfig bundles the reliability policies applied to the running
// example when building the resilient Figure variants. Zero-value fields
// disable the corresponding mechanism, so the plain Figure builders are the
// zero-config case of the resilient ones.
type ResilienceConfig struct {
	// Invoke retries supplier invocations on transient faults.
	Invoke *resilience.Policy
	// SQL retries SQL activities / extension-function statements. How it
	// applies depends on the stack and transaction mode: BIS suppresses
	// it inside transactions (short-running / atomic sequence), WF and
	// Oracle statements autocommit and always retry.
	SQL *resilience.Policy
	// Breaker guards the supplier invocation (BPEL stacks).
	Breaker *resilience.Breaker
	// DeadLetterAbsorb completes the process in a degraded state when
	// invoke retries are exhausted: the confirmation records
	// "DEADLETTERED:<ItemID>" and the dead-letter log keeps the evidence.
	// When false, exhausted retries raise a retryExhausted fault instead.
	DeadLetterAbsorb bool
}

// BuildFigure4BISResilient builds the Figure 4 BIS process with the given
// reliability policies attached to SQL1, the supplier invoke, and SQL2.
func (env *Environment) BuildFigure4BISResilient(cfg ResilienceConfig) *engine.Process {
	sql1 := bis.NewSQL("SQL1", "DS",
		`SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders#
		 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID`).
		Into("SR_ItemList").WithRetry(cfg.SQL)

	invoke := engine.NewInvoke("invoke", "OrderFromSupplier").
		In("ItemID", "$CurrentItem/ItemID").
		In("Quantity", "$CurrentItem/Quantity").
		Out("OrderConfirmation", "OrderConfirmation").
		WithRetry(cfg.Invoke).
		WithBreaker(cfg.Breaker)
	if cfg.Invoke != nil || cfg.Breaker != nil {
		invoke = invoke.WithDeadLetter("$CurrentItem/ItemID", cfg.DeadLetterAbsorb)
	}

	sql2 := bis.NewSQL("SQL2", "DS",
		`INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation)
		 VALUES (#CurrentItemID#, #CurrentQuantity#, #OrderConfirmation#)`).
		WithRetry(cfg.SQL)

	body := engine.NewSequence("main",
		sql1,
		bis.NewRetrieveSet("retrieveSet", "DS", "SR_ItemList", "SV_ItemList"),
		bis.CursorLoop("cursor", "SV_ItemList", "CurrentItem", "pos",
			engine.NewSequence("loopBody",
				engine.NewAssign("extract").
					Copy("$CurrentItem/ItemID", "CurrentItemID").
					Copy("$CurrentItem/Quantity", "CurrentQuantity"),
				invoke,
				sql2,
			)),
	)
	return bis.NewProcess("Figure4").
		DataSourceVariable("DS", DataSourceName).
		InputSetReference("SR_Orders", "Orders").
		InputSetReference("SR_OrderConfirmations", "OrderConfirmations").
		ResultSetReference("SR_ItemList").
		XMLVariable("SV_ItemList", "").
		XMLVariable("CurrentItem", "").
		Variable("CurrentItemID", "").
		Variable("CurrentQuantity", "").
		Variable("OrderConfirmation", "").
		Variable("pos", "1").
		Body(body).
		Build()
}

// BuildFigure6WFResilient builds the Figure 6 WF workflow with the given
// reliability policies on both SQL database activities and the supplier
// invocation. Initial host variables must include Index=0.
func (env *Environment) BuildFigure6WFResilient(cfg ResilienceConfig) mswf.Activity {
	sqlDatabase1 := mswf.NewSQLDatabase("SQLDatabase1", ConnString, aggregationSQL).
		Into("SV_ItemList").Keys("ItemID").WithRetry(cfg.SQL)

	bindNext := mswf.NewCode("bindNext", func(c *mswf.Context) error {
		v, _ := c.Get("SV_ItemList")
		ds := v.(*dataset.DataSet)
		i, err := c.GetInt("Index")
		if err != nil {
			return err
		}
		row, err := ds.Table("Result").Row(int(i))
		if err != nil {
			return err
		}
		c.Set("CurrentItemID", row.MustGet("ItemID").S)
		c.Set("CurrentItemQuantity", row.MustGet("Quantity").I)
		c.Set("Index", i+1)
		return nil
	})

	invoke := &mswf.InvokeWebServiceActivity{
		ActivityName: "invoke",
		ServiceName:  "OrderFromSupplier",
		Inputs:       map[string]string{"ItemID": "CurrentItemID", "Quantity": "CurrentItemQuantity"},
		Outputs:      map[string]string{"OrderConfirmation": "OrderConfirmation"},
	}
	invoke.WithRetry(cfg.Invoke)
	if cfg.Invoke != nil {
		invoke.WithDeadLetter("ItemID", cfg.DeadLetterAbsorb)
	}

	sqlDatabase2 := mswf.NewSQLDatabase("SQLDatabase2", ConnString,
		`INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation)
		 VALUES (@item, @qty, @conf)`).
		Param("@item", "CurrentItemID").
		Param("@qty", "CurrentItemQuantity").
		Param("@conf", "OrderConfirmation").
		WithRetry(cfg.SQL)

	hasMore := func(c *mswf.Context) (bool, error) {
		v, ok := c.Get("SV_ItemList")
		if !ok {
			return false, nil
		}
		i, _ := c.GetInt("Index")
		return int(i) < v.(*dataset.DataSet).Table("Result").Count(), nil
	}

	return mswf.NewSequence("main",
		sqlDatabase1,
		mswf.NewWhile("while", hasMore,
			mswf.NewSequence("loopBody", bindNext, invoke, sqlDatabase2)),
	)
}

// BuildFigure8OracleResilient builds the Figure 8 Oracle process with the
// given reliability policies: the SQL policy installs on the extension
// function library (covering query-database and processXSQL statements),
// the invoke policy/breaker attach to the supplier invocation.
func (env *Environment) BuildFigure8OracleResilient(cfg ResilienceConfig) (*engine.Process, error) {
	// Unconditional: the policy is library-wide state, so a nil config
	// must clear what an earlier resilient build on this environment set.
	env.Funcs.SetRetryPolicy(cfg.SQL)
	if err := env.Funcs.XSQL().RegisterPage("insertConfirmation", `
		<xsql:page>
			<xsql:dml>INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation)
				VALUES ({@item}, {@qty}, {@conf})</xsql:dml>
		</xsql:page>`); err != nil {
		return nil, err
	}

	// The query and the DML both hide inside Assign activities (Oracle's
	// extension-function idiom); SQLEffect journals them so recovery
	// replays their captured outcome instead of re-running the SQL.
	assign1 := orasoa.SQLEffect(
		engine.NewAssign("Assign1").Copy(
			fmt.Sprintf("ora:query-database(%q)", aggregationSQL), "SV_ItemList"),
		"SV_ItemList")

	invoke := engine.NewInvoke("Invoke", "OrderFromSupplier").
		In("ItemID", "$CurrentItem/ItemID").
		In("Quantity", "$CurrentItem/Quantity").
		Out("OrderConfirmation", "OrderConfirmation").
		WithRetry(cfg.Invoke).
		WithBreaker(cfg.Breaker)
	if cfg.Invoke != nil || cfg.Breaker != nil {
		invoke = invoke.WithDeadLetter("$CurrentItem/ItemID", cfg.DeadLetterAbsorb)
	}

	body := engine.NewSequence("loopBody",
		engine.NewAssign("extract").
			Copy("$CurrentItem/ItemID", "CurrentItemID").
			Copy("$CurrentItem/Quantity", "CurrentQuantity"),
		invoke,
		orasoa.SQLEffect(
			engine.NewAssign("Assign2").Copy(
				`ora:processXSQL('insertConfirmation', 'item', $CurrentItemID, 'qty', $CurrentQuantity, 'conf', $OrderConfirmation)/rowsAffected`,
				"Status"),
			"Status"),
	)

	return orasoa.NewProcess("Figure8", env.Funcs).
		XMLVariable("SV_ItemList", "").
		XMLVariable("CurrentItem", "").
		Variable("CurrentItemID", "").
		Variable("CurrentQuantity", "").
		Variable("OrderConfirmation", "").
		Variable("Status", "").
		Variable("pos", "1").
		Body(engine.NewSequence("main",
			assign1,
			orasoa.CursorLoop("cursor", "SV_ItemList", "CurrentItem", "pos", body),
		)).
		Build(), nil
}
