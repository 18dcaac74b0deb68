package wfsql

import (
	"fmt"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/mswf"
)

// This file builds the paper's running example — Figures 4, 6, and 8 —
// on each of the three product stacks. All three produce identical
// external effects: one confirmed supplier order per approved item type,
// recorded in the OrderConfirmations table.

// aggregationSQL is the paper's SQL1 query over the Orders table. It is
// kept on one line because it is embedded into XPath string literals
// (Oracle's query-database and the adapter's message parts).
const aggregationSQL = `SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID`

// BuildFigure4BIS builds the Figure 4 process on the IBM BIS stack:
// SQL activity → result set reference → retrieve set → while+snippet
// cursor → invoke + SQL activity per tuple. It is the zero-config case of
// BuildFigure4BISResilient (no retries, no breaker, no dead-lettering).
func (env *Environment) BuildFigure4BIS() *engine.Process {
	return env.BuildFigure4BISResilient(ResilienceConfig{})
}

// BuildFigure6WF builds the Figure 6 workflow on the WF stack:
// SQLDatabase₁ materializes the aggregation into a DataSet, a while
// activity iterates it, invoke calls the supplier, SQLDatabase₂ records
// the confirmation. Initial host variables must include Index=0. It is the
// zero-config case of BuildFigure6WFResilient.
func (env *Environment) BuildFigure6WF() mswf.Activity {
	return env.BuildFigure6WFResilient(ResilienceConfig{})
}

// BuildFigure8Oracle builds the Figure 8 process on the Oracle SOA stack:
// Assign₁ calls ora:query-database, a while+Java-Snippet cursor iterates
// the XML RowSet, invoke calls the supplier, Assign₂ calls
// ora:processXSQL to execute the INSERT. It is the zero-config case of
// BuildFigure8OracleResilient.
func (env *Environment) BuildFigure8Oracle() (*engine.Process, error) {
	return env.BuildFigure8OracleResilient(ResilienceConfig{})
}

// RunFigure4BISQueryOnly executes only the Figure 4 query step on the BIS
// stack: SQL1 fills a result set reference and the result stays in the
// data source — no materialization into the process space. Used by the
// Figure 1 adapter-vs-inline contrast and the reference-passing ablation.
func (env *Environment) RunFigure4BISQueryOnly() error {
	p := bis.NewProcess("Figure4QueryOnly").
		DataSourceVariable("DS", DataSourceName).
		InputSetReference("SR_Orders", "Orders").
		ResultSetReference("SR_ItemList").
		Body(bis.NewSQL("SQL1", "DS",
			`SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders#
			 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID`).Into("SR_ItemList")).
		Build()
	d, err := env.Engine.Deploy(p)
	if err != nil {
		return err
	}
	_, err = d.Run(nil)
	return err
}

// RunAdapterVariant executes the same aggregation job through the
// *adapter technology* of Figure 1: the process logic only sees a generic
// SQL adapter service on the bus; data management stays outside the
// choreography. It is used by the Figure 1 contrast benchmark/example.
func (env *Environment) RunAdapterVariant() error {
	p := &engine.Process{
		Name: "AdapterVariant",
		Variables: []engine.VarDecl{
			{Name: "rowsetXML", Kind: engine.ScalarVar},
			{Name: "rows", Kind: engine.ScalarVar},
		},
		Body: engine.NewInvoke("callAdapter", "SQLAdapter").
			In("statement", fmt.Sprintf("%q", aggregationSQL)).
			Out("rowset", "rowsetXML").
			Out("rows", "rows"),
	}
	d, err := env.Engine.Deploy(p)
	if err != nil {
		return err
	}
	_, err = d.Run(nil)
	return err
}
