package wfsql

import (
	"fmt"
	"path/filepath"
	"testing"

	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/mswf"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// handMemo is one activity-complete record as an earlier build wrote it.
type handMemo struct {
	activity, kind string
	data           map[string]string
}

// memoWorkload aggregates to two item types, item000 × 54 and item001 ×
// 30: the figures' memos below are what the parent commit journaled for
// it, copied from a scan of its WAL.
var memoWorkload = Workload{Orders: 6, Items: 2, ApprovalPercent: 100, Seed: 3}

const (
	memoItemList = `<RowSet><Row num="1"><ItemID>item000</ItemID><Quantity>54</Quantity></Row><Row num="2"><ItemID>item001</ItemID><Quantity>30</Quantity></Row></RowSet>`
	memoDataSet  = `<dataSet><table name="Result" columns="ItemID,Quantity" keys="ItemID">` +
		`<row state="Unchanged"><c type="varchar">item000</c><c type="integer">54</c></row>` +
		`<row state="Unchanged"><c type="varchar">item001</c><c type="integer">30</c></row></table></dataSet>`
)

// scalarStack and rowCountStack publish the two dialect keys no figure
// writes: a scalar variable captured by Journaled ("s:", beside an unset
// XML one) and a DML row count ("rows"). Their effects cannot run — the
// tables they name do not exist — and what they publish reaches the
// database through the confirmation the next activity inserts.
var (
	scalarStack = Stack{Name: "engine", Figure: "Scalars",
		Prepare: func(env *Environment, _ ResilienceConfig) (*Prepared, error) {
			return env.prepareBPEL(&engine.Process{
				Name: "Scalars",
				Variables: []engine.VarDecl{
					{Name: "n", Kind: engine.ScalarVar}, {Name: "doc", Kind: engine.XMLVar}},
				Body: engine.NewSequence("main",
					engine.Journaled(engine.NewSnippet("fetch", func(*engine.Ctx) error {
						_, err := env.DB.Exec("SELECT * FROM NoSuchTable")
						return err
					}), journal.EffectSQL, "n", "doc"),
					engine.NewSnippet("publish", func(ctx *engine.Ctx) error {
						n, doc := ctx.Inst.MustVariable("n"), ctx.Inst.MustVariable("doc")
						_, err := env.DB.Exec(fmt.Sprintf("INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation) VALUES ('scalar', %s, '%v')",
							n.String(), doc.Node() == nil))
						return err
					})),
			})
		}}
	rowCountStack = Stack{Name: "WF", Figure: "RowCount",
		Prepare: func(env *Environment, _ ResilienceConfig) (*Prepared, error) {
			dml := mswf.NewSQLDatabase("dml", ConnString, "DELETE FROM NoSuchTable")
			dml.RowsAffectedVar = "n"
			root := mswf.NewSequence("main", dml, mswf.NewCode("publish", func(c *mswf.Context) error {
				n, err := c.GetInt("n")
				if err != nil {
					return err
				}
				_, err = env.DB.Exec("INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation) VALUES ('rows', ?, 'deleted')", sqldb.Int(n))
				return err
			}))
			return &Prepared{Recover: func(rec *journal.Recorder) error {
				for _, ij := range rec.InFlight() {
					if _, err := env.Runtime.Resume(root, ij); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		}}
)

// TestRecoveryFromHandWrittenMemos: an instance an earlier build left in
// flight recovers on this one, in every memo dialect that build wrote —
// Invoke's "out:", Journaled's "x:" and "s:", BIS's "table", WF's
// "dataset", "rows" and "out:". Each journal is written here record by
// record, never by the live save functions. The figure instances died
// with their first supplier order memoized and its confirmation not yet
// inserted: they recover to the fault-free baseline, writing the restored
// confirmation and ordering nothing twice.
func TestRecoveryFromHandWrittenMemos(t *testing.T) {
	const conf0 = "CONFIRMED:item000:54"
	firstOrder := func(t *testing.T, env *Environment) {
		if _, err := env.Supplier.Handle(wsbus.Message{"ItemID": "item000", "Quantity": "54"}); err != nil {
			t.Fatal(err)
		}
	}
	figureRows := []string{"item000|54|" + conf0, "item001|30|CONFIRMED:item001:30"}
	for _, tc := range []struct {
		stack         Stack
		process, mode string
		input         map[string]string
		memos         []handMemo
		world         func(t *testing.T, env *Environment) // what the dead instance had already done
		want          []string                             // confirmations after recovery
		ledger        bool                                 // and the supplier's ledger matches them
	}{
		{stack: StackBIS, process: "Figure4", mode: "long-running", ledger: true, want: figureRows,
			memos: []handMemo{
				{"SQL1", journal.EffectSQL, map[string]string{"table": "SR_ItemList_i1"}},
				{"invoke", journal.EffectInvoke, map[string]string{"out:OrderConfirmation": conf0}}},
			world: func(t *testing.T, env *Environment) {
				firstOrder(t, env)
				env.DB.MustExec("CREATE TABLE SR_ItemList_i1 AS " + aggregationSQL)
			}},
		{stack: StackWF, process: "main", mode: "wf", ledger: true, want: figureRows,
			input: map[string]string{"state": `<workflowState><variable name="Index" type="int">0</variable></workflowState>`},
			memos: []handMemo{
				{"SQLDatabase1", journal.EffectSQL, map[string]string{"dataset": memoDataSet}},
				{"invoke", journal.EffectInvoke, map[string]string{"out:OrderConfirmation": conf0}}},
			world: firstOrder},
		{stack: StackOracle, process: "Figure8", mode: "long-running", ledger: true, want: figureRows,
			memos: []handMemo{
				{"Assign1", journal.EffectSQL, map[string]string{"x:SV_ItemList": memoItemList}},
				{"Invoke", journal.EffectInvoke, map[string]string{"out:OrderConfirmation": conf0}}},
			world: firstOrder},
		{stack: scalarStack, process: "Scalars", mode: "long-running", want: []string{"scalar|7|true"},
			memos: []handMemo{{"fetch", journal.EffectSQL, map[string]string{"s:n": "7", "x:doc": ""}}}},
		{stack: rowCountStack, process: "main", mode: "wf", want: []string{"rows|3|deleted"},
			memos: []handMemo{{"dml", journal.EffectSQL, map[string]string{"rows": "3"}}}},
	} {
		t.Run(matrixName(tc.stack), func(t *testing.T) {
			if tc.ledger {
				if base := baselineRows(t, memoWorkload, tc.stack); !sameRows(base, tc.want) {
					t.Fatalf("the workload's baseline moved under the hand-written memos: %v", base)
				}
			}
			env := NewEnvironment(memoWorkload)
			if tc.world != nil {
				tc.world(t, env)
			}
			dir := t.TempDir()
			old := openJournal(t, dir)
			id := old.AllocateID()
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(old.InstanceCreated(id, tc.process, tc.mode, tc.input))
			for _, m := range tc.memos {
				must(old.ActivityComplete(id, m.activity, 1, m.kind, m.data))
			}
			must(old.Close())

			rec := openJournal(t, filepath.Dir(old.Path()))
			defer rec.Close()
			if n := len(rec.InFlight()); n != 1 {
				t.Fatalf("journal holds %d in-flight instances, want 1", n)
			}
			host := recoverOn(t, env, tc.stack, rec)
			if got := confirmationRows(t, host); !sameRows(got, tc.want) {
				t.Fatalf("recovered confirmations:\n got %v\nwant %v", got, tc.want)
			}
			if tc.ledger {
				ledgerMatches(t, host, tc.want)
			}
			for _, name := range env.DB.TableNames() {
				if name == "SR_ItemList_i1" {
					t.Errorf("re-bound result table %s was not dropped at completion", name)
				}
			}
		})
	}
}
