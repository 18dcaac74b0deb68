// Datasync demonstrates the internal-data pattern chain on the Workflow
// Foundation stack end to end: Set Retrieval (DataAdapter.Fill into a
// disconnected DataSet), Sequential and Random Set Access, Tuple IUD with
// row-state tracking, and Synchronization (DataAdapter.Update generating
// INSERT/UPDATE/DELETE back to the source).
package main

import (
	"fmt"
	"log"

	"wfsql/internal/dataset"
	"wfsql/internal/mswf"
	"wfsql/internal/sqldb"
)

func main() {
	db := sqldb.Open("inventory")
	db.MustExec("CREATE TABLE Items (ItemID VARCHAR PRIMARY KEY, Stock INTEGER NOT NULL)")
	db.MustExec("INSERT INTO Items VALUES ('bolt', 120), ('nut', 80), ('screw', 45), ('washer', 12)")

	rt := mswf.NewRuntime()
	rt.RegisterDatabase("inventory", mswf.SQLServer, db)
	conn := "Provider=SqlServer;Data Source=inventory"

	wf := mswf.NewSequence("main",
		// Set Retrieval: materialize into a disconnected cache.
		mswf.NewSQLDatabase("fill", conn, "SELECT ItemID, Stock FROM Items ORDER BY ItemID").
			Into("cache").Keys("ItemID"),

		mswf.NewCode("editCache", func(c *mswf.Context) error {
			v, _ := c.Get("cache")
			tab := v.(*dataset.DataSet).Table("Result")

			// Sequential access.
			fmt.Println("cache before edits:")
			for _, row := range tab.Rows() {
				fmt.Printf("  %-8s stock=%-4s state=%s\n",
					row.MustGet("ItemID").S, row.MustGet("Stock").String(), row.State())
			}

			// Random access + tuple update.
			bolt, _ := tab.Find(sqldb.Str("bolt"))
			bolt.Set("Stock", sqldb.Int(100))

			// Tuple insert and delete.
			tab.AddRow(sqldb.Str("rivet"), sqldb.Int(500))
			washer, _ := tab.Find(sqldb.Str("washer"))
			washer.Delete()

			fmt.Println("cache after edits (change tracking):")
			tab.EachRow(func(state dataset.RowState, vals []sqldb.Value) {
				fmt.Printf("  %-8s stock=%-4s state=%s\n", vals[0].S, vals[1].String(), state)
			})
			return nil
		}),

		// Synchronization: one transactional Update pushes all changes.
		mswf.NewCode("sync", func(c *mswf.Context) error {
			v, _ := c.Get("cache")
			adapter, err := mswf.NewDataAdapter(c, conn,
				"SELECT ItemID, Stock FROM Items", "Items", "ItemID")
			if err != nil {
				return err
			}
			n, err := adapter.Update(v.(*dataset.DataSet), "Result")
			if err != nil {
				return err
			}
			fmt.Printf("synchronized %d row(s) back to the source\n", n)
			return nil
		}),
	)

	if _, err := rt.Run(wf, nil); err != nil {
		log.Fatal(err)
	}

	fmt.Println("source table after synchronization:")
	fmt.Print(db.MustExec("SELECT ItemID, Stock FROM Items ORDER BY ItemID"))
}
