// Adaptervsinline demonstrates the contrast of the paper's Figure 1: the
// same data management job executed through the *adapter technology*
// (SQL masked as a Web service on the bus; data management outside the
// process logic) versus *SQL inline support* (BIS SQL activities and set
// references; data management visible in the choreography).
//
// The observable difference the paper argues for: with inline support and
// set references, the query result stays in the data source and no
// result bytes cross into the process space, while the adapter ships the
// whole materialized result through the service interface.
package main

import (
	"fmt"
	"log"

	"wfsql"
)

func main() {
	w := wfsql.Workload{Orders: 2000, Items: 50, ApprovalPercent: 70, Seed: 3}

	// Adapter technology: invoke a SQL adapter service.
	env := wfsql.NewEnvironment(w)
	env.DB.ResetStats()
	if err := env.RunAdapterVariant(); err != nil {
		log.Fatal(err)
	}
	adapterStats := env.DB.Stats()
	adapterCalls := env.Bus.Attempts()

	// SQL inline support: the same aggregation through a BIS SQL activity
	// into a result set reference (no retrieve set — the process passes
	// the reference on, as in consecutive SQL-side processing).
	env2 := wfsql.NewEnvironment(w)
	env2.DB.ResetStats()
	if err := env2.RunFigure4BISQueryOnly(); err != nil {
		log.Fatal(err)
	}
	inlineStats := env2.DB.Stats()

	fmt.Println("Figure 1 contrast — same aggregation job, two integration styles")
	fmt.Println()
	fmt.Printf("%-34s %14s %14s\n", "", "adapter", "SQL inline")
	fmt.Printf("%-34s %14d %14d\n", "result bytes into process space",
		adapterStats.BytesReturned, inlineStats.BytesReturned)
	fmt.Printf("%-34s %14d %14d\n", "service bus calls", adapterCalls, 0)
	fmt.Printf("%-34s %14d %14d\n", "statements executed at the source",
		adapterStats.Statements, inlineStats.Statements)
	fmt.Println()
	if inlineStats.BytesReturned == 0 && adapterStats.BytesReturned > 0 {
		fmt.Println("inline set references kept the result set in the data source ✔")
	}
}
