package patterns

import (
	"fmt"

	"wfsql/internal/dataset"
	"wfsql/internal/mswf"
	"wfsql/internal/sqldb"
)

// MicrosoftWF is the Windows Workflow Foundation reproduction adapter.
type MicrosoftWF struct{}

// NewMicrosoftWF creates the adapter.
func NewMicrosoftWF() *MicrosoftWF { return &MicrosoftWF{} }

// mechSQLDatabase is WF's Table II row label.
const mechSQLDatabase Mechanism = "SQL Database"

// Info implements Product (the paper's Table I, Microsoft column).
func (p *MicrosoftWF) Info() GeneralInfo {
	return GeneralInfo{
		Vendor:            "Microsoft",
		ProductName:       "Workflow Foundation (WF)",
		ShortName:         "Microsoft WF",
		WorkflowLanguage:  "C#, VB, XOML (BPEL)",
		ModelingLevel:     "graphical, code, markup",
		DesignTool:        "Workflow Designer",
		SQLInlineSupport:  []string{"customized SQL Activity"},
		ExternalDataSet:   "static text",
		MaterializedSet:   "DataSet Object",
		ExternalSource:    "static",
		AdditionalFeature: "-",
	}
}

// Cells implements Product (the paper's Table II, Microsoft block).
func (p *MicrosoftWF) Cells() []Cell {
	return []Cell{
		{mechSQLDatabase, Query, Abstract, ""},
		{mechSQLDatabase, SetIUD, Abstract, ""},
		{mechSQLDatabase, DataSetup, Abstract, ""},
		{mechSQLDatabase, StoredProcedure, Abstract, ""},
		{mechSQLDatabase, SetRetrieval, Abstract, ""},
		{WorkaroundRow, SeqSetAccess, WorkaroundOnly, ""},
		{WorkaroundRow, RandomSetAccess, WorkaroundOnly, ""},
		{WorkaroundRow, TupleIUD, WorkaroundOnly, ""},
		{WorkaroundRow, Synchronization, WorkaroundOnly, ""},
	}
}

// figure6XOML is the paper's Figure 6 workflow in XOML markup, as
// Figure 5's code-separation authoring mode writes it: the structure in
// markup, and the code it names — the BindNext handler, the HasMoreItems
// rule, the OrderFromSupplier service — registered on the runtime by
// name. resilient.go's code-only Figure 6 builds the same tree in Go,
// around the same two functions.
const figure6XOML = `<SequenceActivity x:Name="main">
  <SQLDatabaseActivity x:Name="SQLDatabase1" ConnectionString="Provider=SqlServer;Data Source=orderdb"
      Statement="SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID"
      ResultSet="SV_ItemList" Keys="ItemID"/>
  <WhileActivity x:Name="while" Condition="rule:HasMoreItems">
    <SequenceActivity x:Name="loopBody">
      <CodeActivity x:Name="bindNext" Handler="BindNext"/>
      <InvokeWebServiceActivity x:Name="invoke" Service="OrderFromSupplier">
        <Input Part="ItemID" Variable="CurrentItemID"/>
        <Input Part="Quantity" Variable="CurrentItemQuantity"/>
        <Output Part="OrderConfirmation" Variable="OrderConfirmation"/>
      </InvokeWebServiceActivity>
      <SQLDatabaseActivity x:Name="SQLDatabase2" ConnectionString="Provider=SqlServer;Data Source=orderdb"
          Statement="INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation) VALUES (@item, @qty, @conf)">
        <Parameter Name="@item" Variable="CurrentItemID"/>
        <Parameter Name="@qty" Variable="CurrentItemQuantity"/>
        <Parameter Name="@conf" Variable="OrderConfirmation"/>
      </SQLDatabaseActivity>
    </SequenceActivity>
  </WhileActivity>
</SequenceActivity>`

// Figure6BindNext is Figure 6's code activity: it binds row Index of the
// SV_ItemList DataSet (ADO.NET's CurrentItem["ItemID"] and
// CurrentItem["Quantity"]) to host variables and advances Index.
func Figure6BindNext(c *mswf.Context) error {
	v, _ := c.Get("SV_ItemList")
	i, err := c.GetInt("Index")
	if err != nil {
		return err
	}
	row, err := v.(*dataset.DataSet).Table("Result").Row(int(i))
	if err != nil {
		return err
	}
	c.Set("CurrentItemID", row.MustGet("ItemID").S)
	c.Set("CurrentItemQuantity", row.MustGet("Quantity").I)
	c.Set("Index", i+1)
	return nil
}

// Figure6HasMoreItems is Figure 6's while condition: SV_ItemList holds a
// row at Index.
func Figure6HasMoreItems(c *mswf.Context) (bool, error) {
	v, ok := c.Get("SV_ItemList")
	if !ok {
		return false, nil
	}
	i, _ := c.GetInt("Index")
	return int(i) < v.(*dataset.DataSet).Table("Result").Count(), nil
}

// Figure6Authorings registers on rt, by name, the code Figure 6's markup
// names, and returns the workflow loaded from that markup and the same
// workflow exported to BPEL and imported back. Both run with Index=0, on
// a runtime that offers the OrderFromSupplier service.
func Figure6Authorings(rt *mswf.Runtime) (markup, imported mswf.Activity, err error) {
	rt.RegisterHandler("BindNext", Figure6BindNext)
	rt.RegisterRule("HasMoreItems", Figure6HasMoreItems)
	if markup, err = mswf.LoadXOML(figure6XOML); err != nil {
		return nil, nil, err
	}
	doc, err := mswf.ExportBPEL("Figure6", markup)
	if err != nil {
		return nil, nil, err
	}
	imported, err = mswf.ImportBPEL(doc)
	return markup, imported, err
}

// InfoCases implements InfoProver: Table I's WF modeling level "markup"
// and workflow language "XOML (BPEL)", run as Figure 6 authored in
// markup and as that markup after a BPEL round trip. Each confirms every
// approved item type's total, as the code-only Figure 6 does.
func (p *MicrosoftWF) InfoCases() []InfoCase {
	run := func(bpel bool) func(env *Env) error {
		return func(env *Env) error {
			markup, imported, err := Figure6Authorings(env.Runtime)
			if err != nil {
				return err
			}
			wf := markup
			if bpel {
				wf = imported
			}
			if _, err := env.Runtime.Run(wf, map[string]any{"Index": 0}); err != nil {
				return err
			}
			res, err := env.DB.Session().Query("SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations ORDER BY ItemID")
			if err != nil {
				return err
			}
			const want = "[[bolt 15 CONFIRMED:bolt:15] [nut 3 CONFIRMED:nut:3] [screw 2 CONFIRMED:screw:2]]"
			if got := fmt.Sprint(res.Rows); got != want {
				return fmt.Errorf("confirmations %s, want %s", got, want)
			}
			return nil
		}
	}
	return []InfoCase{
		{"Modeling Level", "markup", run(false)},
		{"Workflow Language", "XOML (BPEL)", run(true)},
	}
}

// fillCache is the common Fill step used by the internal-data cases.
func wfFillCache() *mswf.SQLDatabaseActivity {
	return mswf.NewSQLDatabase("fill", ConnString,
		"SELECT OrderID, ItemID, Quantity, Approved FROM Orders ORDER BY OrderID").
		Into("cache").Keys("OrderID")
}

// Conformance implements Product.
func (p *MicrosoftWF) Conformance() []ConformanceCase {
	return []ConformanceCase{
		{Query, mechSQLDatabase, Abstract, "", func(env *Env) error {
			act := mswf.NewSQLDatabase("q", ConnString,
				"SELECT ItemID, SUM(Quantity) AS Q FROM Orders WHERE Approved = TRUE GROUP BY ItemID").
				Into("out")
			c, err := env.Runtime.Run(act, nil)
			if err != nil {
				return err
			}
			v, _ := c.Get("out")
			if n := v.(*dataset.DataSet).Table("Result").Count(); n != 3 {
				return fmt.Errorf("query rows %d, want 3", n)
			}
			return nil
		}},
		{SetIUD, mechSQLDatabase, Abstract, "", func(env *Env) error {
			wf := mswf.NewSequence("m",
				mswf.NewSQLDatabase("u", ConnString, "UPDATE Orders SET Approved = TRUE WHERE Approved = FALSE"),
				mswf.NewSQLDatabase("i", ConnString, "INSERT INTO Orders VALUES (7, 'washer', 4, TRUE)"),
				mswf.NewSQLDatabase("d", ConnString, "DELETE FROM Orders WHERE ItemID = 'screw'"),
			)
			if _, err := env.Runtime.Run(wf, nil); err != nil {
				return err
			}
			return env.expectInt("SELECT COUNT(*) FROM Orders WHERE Approved = TRUE", 5)
		}},
		{DataSetup, mechSQLDatabase, Abstract, "", func(env *Env) error {
			if _, err := env.Runtime.Run(mswf.NewSQLDatabase("ddl", ConnString,
				"CREATE TABLE Configured (k VARCHAR)"), nil); err != nil {
				return err
			}
			if !env.DB.HasTable("Configured") {
				return fmt.Errorf("DDL did not take effect")
			}
			return nil
		}},
		{StoredProcedure, mechSQLDatabase, Abstract, "", func(env *Env) error {
			act := mswf.NewSQLDatabase("sp", ConnString, "CALL approved_totals()").Into("out")
			c, err := env.Runtime.Run(act, nil)
			if err != nil {
				return err
			}
			v, _ := c.Get("out")
			if n := v.(*dataset.DataSet).Table("Result").Count(); n != 3 {
				return fmt.Errorf("procedure rows %d, want 3", n)
			}
			return nil
		}},
		{SetRetrieval, mechSQLDatabase, Abstract, "", func(env *Env) error {
			// Materialization is automatic: executing a query IS the
			// retrieval; the DataSet holds no connection to the source.
			c, err := env.Runtime.Run(wfFillCache(), nil)
			if err != nil {
				return err
			}
			v, _ := c.Get("cache")
			tab := v.(*dataset.DataSet).Table("Result")
			if tab.Count() != 6 {
				return fmt.Errorf("cache rows %d, want 6", tab.Count())
			}
			env.DB.MustExec("DELETE FROM Orders")
			if tab.Count() != 6 {
				return fmt.Errorf("cache must be disconnected from the source")
			}
			return nil
		}},
		{SeqSetAccess, WorkaroundRow, WorkaroundOnly, "", func(env *Env) error {
			// While activity + ADO.NET-based condition and code activity.
			var visited int
			hasMore := func(c *mswf.Context) (bool, error) {
				v, ok := c.Get("cache")
				if !ok {
					return false, nil
				}
				i, _ := c.GetInt("i")
				return int(i) < v.(*dataset.DataSet).Table("Result").Count(), nil
			}
			wf := mswf.NewSequence("m",
				wfFillCache(),
				mswf.NewWhile("w", hasMore, mswf.NewCode("step", func(c *mswf.Context) error {
					i, _ := c.GetInt("i")
					visited++
					c.Set("i", i+1)
					return nil
				})),
			)
			if _, err := env.Runtime.Run(wf, map[string]any{"i": 0}); err != nil {
				return err
			}
			if visited != 6 {
				return fmt.Errorf("visited %d rows, want 6", visited)
			}
			return nil
		}},
		{RandomSetAccess, WorkaroundRow, WorkaroundOnly, "", func(env *Env) error {
			wf := mswf.NewSequence("m",
				wfFillCache(),
				mswf.NewCode("find", func(c *mswf.Context) error {
					v, _ := c.Get("cache")
					row, err := v.(*dataset.DataSet).Table("Result").Find(sqldb.Int(4))
					if err != nil || row == nil {
						return fmt.Errorf("find: %v %v", row, err)
					}
					c.Set("item", row.MustGet("ItemID").S)
					return nil
				}),
			)
			c, err := env.Runtime.Run(wf, nil)
			if err != nil {
				return err
			}
			if c.GetString("item") != "nut" {
				return fmt.Errorf("random access got %q", c.GetString("item"))
			}
			return nil
		}},
		{TupleIUD, WorkaroundRow, WorkaroundOnly, "", func(env *Env) error {
			wf := mswf.NewSequence("m",
				wfFillCache(),
				mswf.NewCode("iud", func(c *mswf.Context) error {
					v, _ := c.Get("cache")
					tab := v.(*dataset.DataSet).Table("Result")
					row, _ := tab.Find(sqldb.Int(1))
					if err := row.Set("Quantity", sqldb.Int(42)); err != nil {
						return err
					}
					if _, err := tab.AddRow(sqldb.Int(99), sqldb.Str("washer"), sqldb.Int(1), sqldb.Bool(true)); err != nil {
						return err
					}
					victim, _ := tab.Find(sqldb.Int(2))
					victim.Delete()
					if tab.Count() != 6 {
						return fmt.Errorf("cache count %d, want 6", tab.Count())
					}
					return nil
				}),
			)
			_, err := env.Runtime.Run(wf, nil)
			return err
		}},
		{Synchronization, WorkaroundRow, WorkaroundOnly, "", func(env *Env) error {
			wf := mswf.NewSequence("m",
				wfFillCache(),
				mswf.NewCode("mutate", func(c *mswf.Context) error {
					v, _ := c.Get("cache")
					tab := v.(*dataset.DataSet).Table("Result")
					row, _ := tab.Find(sqldb.Int(1))
					return row.Set("Quantity", sqldb.Int(1234))
				}),
				mswf.NewCode("sync", func(c *mswf.Context) error {
					v, _ := c.Get("cache")
					adapter, err := mswf.NewDataAdapter(c, ConnString,
						"SELECT OrderID, ItemID, Quantity, Approved FROM Orders", "Orders", "OrderID")
					if err != nil {
						return err
					}
					_, err = adapter.Update(v.(*dataset.DataSet), "Result")
					return err
				}),
			)
			if _, err := env.Runtime.Run(wf, nil); err != nil {
				return err
			}
			return env.expectInt("SELECT Quantity FROM Orders WHERE OrderID = 1", 1234)
		}},
	}
}
