// Bpelroundtrip demonstrates the design-tool pipeline of the paper's
// Figure 3: a process model is assembled (the WebSphere Integration
// Developer role), serialized as a BPEL document with WID artifacts,
// loaded back from that document, deployed to the engine (the WebSphere
// Process Server role), and executed — proving the BPEL artifact is a
// complete description of the process.
package main

import (
	"fmt"
	"log"

	"wfsql/internal/bis"
	"wfsql/internal/bpelxml"
	"wfsql/internal/engine"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

func main() {
	// Design step: assemble the process model (declarative variant of the
	// paper's running example: the cursor uses positional XPath, so the
	// whole model serializes).
	builder := bis.NewProcess("OrderProcessing").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		InputSetReference("SR_OrderConfirmations", "OrderConfirmations").
		ResultSetReference("SR_ItemList").
		XMLVariable("SV_ItemList", "").
		Variable("CurrentItemID", "").
		Variable("CurrentQuantity", "").
		Variable("OrderConfirmation", "").
		Variable("pos", "1").
		Body(engine.NewSequence("main",
			bis.NewSQL("SQL1", "DS",
				"SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders# WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID").
				Into("SR_ItemList"),
			bis.NewRetrieveSet("retrieveSet", "DS", "SR_ItemList", "SV_ItemList"),
			engine.NewWhile("loop", engine.Cond("$pos <= count($SV_ItemList/Row)"),
				engine.NewSequence("loopBody",
					engine.NewAssign("extract").
						Copy("$SV_ItemList/Row[position() = $pos]/ItemID", "CurrentItemID").
						Copy("$SV_ItemList/Row[position() = $pos]/Quantity", "CurrentQuantity"),
					engine.NewInvoke("invoke", "OrderFromSupplier").
						In("ItemID", "$CurrentItemID").
						In("Quantity", "$CurrentQuantity").
						Out("OrderConfirmation", "OrderConfirmation"),
					bis.NewSQL("SQL2", "DS",
						"INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation) VALUES (#CurrentItemID#, #CurrentQuantity#, #OrderConfirmation#)"),
					engine.NewAssign("advance").Copy("$pos + 1", "pos"),
				)),
		))

	// Export: the result of the design step is a description of the
	// process in BPEL.
	doc, err := bpelxml.MarshalBISProcess(builder)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== BPEL artifact (%d bytes) ===\n", len(doc))
	fmt.Println(doc[:min(len(doc), 800)] + "…")

	// Deployment step: reload the artifact and install it on the engine.
	reloaded, err := bpelxml.UnmarshalBISProcess(doc, nil)
	if err != nil {
		log.Fatal(err)
	}

	db := sqldb.Open("orderdb")
	db.MustExec(`CREATE TABLE Orders (OrderID INTEGER PRIMARY KEY,
		ItemID VARCHAR NOT NULL, Quantity INTEGER NOT NULL, Approved BOOLEAN NOT NULL)`)
	db.MustExec(`INSERT INTO Orders VALUES (1, 'bolt', 10, TRUE),
		(2, 'bolt', 5, TRUE), (3, 'nut', 3, TRUE), (4, 'screw', 2, FALSE)`)
	db.MustExec("CREATE TABLE OrderConfirmations (ItemID VARCHAR, Quantity INTEGER, Confirmation VARCHAR)")

	bus := wsbus.New()
	supplier := wsbus.NewOrderFromSupplier(0)
	bus.Register("OrderFromSupplier", supplier.Operation())
	e := engine.New(bus)
	e.RegisterDataSource("orderdb", db)

	d, err := e.Deploy(reloaded.Build())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := d.Run(nil); err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== effects of the reloaded process ===")
	fmt.Print(db.MustExec("SELECT * FROM OrderConfirmations ORDER BY ItemID"))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
