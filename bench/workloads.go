package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"wfsql"
	"wfsql/internal/journal"
	"wfsql/internal/obsv"
	"wfsql/internal/sqldb"
)

// instance is one freshly set-up environment of a workload. The harness
// drives it with a single closed-loop client: op(i) returns before
// op(i+1) is issued.
type instance interface {
	// op runs operation number i. A non-nil error is a failed op. mark,
	// when non-nil (traced pass only), is called between the workflow
	// instances of a multi-instance op so the budget can tell their
	// spans apart.
	op(i int, mark func()) error
	// endSlice checks the ops run since the previous call and does the
	// housekeeping that keeps the environment at a constant size. It
	// runs outside every timer.
	endSlice(ops int) error
	// finish runs the end-of-run correctness check and releases what the
	// environment holds.
	finish() error
	// observe attaches tracing and metrics to every layer; nil detaches.
	observe(o *obsv.Observability)
	// recorder is the attached journal, nil when the workload is not
	// durable.
	recorder() *journal.Recorder
}

// workload is one registered benchmark workload. sliceOps sizes a slice to
// ≈ 25–40 ms on the reference sandbox; it is a constant so that every
// commit measures the same work.
type workload struct {
	name     string
	why      string
	sliceOps int
	countOps int
	setups   int // fresh set-ups timed per run: enough for ≈ 1 s of set-up
	setup    func(seed int64, scratch string) (instance, error)
}

// workloads is the registry, in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "bis-fig4", sliceOps: 256, countOps: 2048, setups: 31,
		why:   "Figure 4 on BIS: engine+bis+xpath+xdm+rowset+wsbus+sqldb with per-instance DDL, the heaviest path",
		setup: func(seed int64, _ string) (instance, error) { return newFigures(seed, "", stackBIS) },
	},
	{
		name: "wf-fig6", sliceOps: 384, countOps: 2048, setups: 31,
		why:   "Figure 6 on WF: mswf+dataset+sqldb only, the control on which engine/xpath/xdm work predicts no change",
		setup: func(seed int64, _ string) (instance, error) { return newFigures(seed, "", stackWF) },
	},
	{
		name: "ora-fig8", sliceOps: 256, countOps: 2048, setups: 31,
		why:   "Figure 8 on Oracle: same engine/xpath/xdm as BIS but no per-instance DDL, separates engine from bis gains",
		setup: func(seed int64, _ string) (instance, error) { return newFigures(seed, "", stackOracle) },
	},
	{
		name: "sql-read", sliceOps: 14, countOps: 512, setups: 7,
		why:   "sqldb alone over 4096 orders: scan, procedure, PK and index lookups, join; bound and literal text",
		setup: func(seed int64, _ string) (instance, error) { return newSQLRead(seed) },
	},
	{
		name: "sql-write", sliceOps: 48, countOps: 2048, setups: 11,
		why:   "sqldb alone, explicit transactions of insert/update/delete at constant table size: MVCC, latches, vacuum",
		setup: func(seed int64, _ string) (instance, error) { return newSQLWrite(seed) },
	},
	{
		name: "mix-durable", sliceOps: 40, countOps: 1024, setups: 15,
		why: "rounds of BIS+WF+Oracle instances with the WAL attached to both hosts: all three journal integrations",
		setup: func(seed int64, scratch string) (instance, error) {
			return newFigures(seed, scratch, stackBIS, stackWF, stackOracle)
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Figure workloads (bis-fig4, wf-fig6, ora-fig8, mix-durable)
// ---------------------------------------------------------------------

type stack int

const (
	stackBIS stack = iota
	stackWF
	stackOracle
)

// figureScale is the wfbench canonical scale: one aggregate over 120 rows,
// ~8 supplier calls and 8 inserts per instance.
func figureScale(seed int64) wfsql.Workload {
	return wfsql.Workload{Orders: 120, Items: 8, ApprovalPercent: 80, Seed: seed}
}

// figures runs the paper's running example on one environment; op = one
// instance of each listed stack, in order.
type figures struct {
	env  *wfsql.Environment
	runs []func() error
	rec  *journal.Recorder
	dir  string

	want map[string]int64 // approved quantity per item, summed in Go
	ops  int64            // ops completed since set-up: that many instances per stack
}

// newFigures builds a fresh environment, deploys the listed stacks'
// figures and, when walDir is set, attaches a journal to both hosts.
func newFigures(seed int64, walDir string, stacks ...stack) (*figures, error) {
	env := wfsql.NewEnvironment(figureScale(seed))
	f := &figures{env: env, dir: walDir}
	if walDir != "" {
		rec, err := journal.Open(walDir)
		if err != nil {
			return nil, err
		}
		// The WAL has to live inside the benchmark's checkout, which is a
		// real disk: an fsync there costs 8× the rest of the round and
		// varies ±15 % with the device, not with the program. The timed
		// path therefore states its flush policy as "never" — every
		// record is still marshalled, written and folded, and the WAL is
		// synced on Close and reopened in finish — and journal.syncs_per_op
		// counts what the default SyncCritical policy would have issued.
		// Checkpoints (which always fsync their new segment) run once per
		// slice in endSlice, outside the timers, and rewrite the WAL as a
		// fresh segment so the file stays bounded.
		rec.SetSyncPolicy(journal.SyncPolicy{Mode: journal.SyncNever})
		rec.SetCheckpointEvery(0)
		rec.SetRotateAtCheckpoint(true)
		env.Engine.AttachJournal(rec)
		env.Runtime.AttachJournal(rec)
		f.rec = rec
	}
	for _, st := range stacks {
		switch st {
		case stackBIS:
			d, err := env.Engine.Deploy(env.BuildFigure4BIS())
			if err != nil {
				return nil, err
			}
			f.runs = append(f.runs, func() error { _, err := d.Run(nil); return err })
		case stackWF:
			root := env.BuildFigure6WF()
			f.runs = append(f.runs, func() error {
				_, err := env.Runtime.Run(root, map[string]any{"Index": 0})
				return err
			})
		case stackOracle:
			p, err := env.BuildFigure8Oracle()
			if err != nil {
				return nil, err
			}
			d, err := env.Engine.Deploy(p)
			if err != nil {
				return nil, err
			}
			f.runs = append(f.runs, func() error { _, err := d.Run(nil); return err })
		}
	}
	// What the supplier ledger must show: read the raw rows and sum them
	// here, not through the aggregate the figures themselves run.
	res, err := env.DB.Exec("SELECT ItemID, Quantity, Approved FROM Orders")
	if err != nil {
		return nil, err
	}
	f.want = map[string]int64{}
	for _, row := range res.Rows {
		if row[2].Truth() {
			f.want[row[0].S] += row[1].I
		}
	}
	return f, nil
}

func (f *figures) op(_ int, mark func()) error {
	for k, run := range f.runs {
		if k > 0 && mark != nil {
			mark()
		}
		if err := run(); err != nil {
			return err
		}
	}
	f.ops++
	return nil
}

func (f *figures) endSlice(ops int) error {
	want := ops * len(f.runs) * len(f.want)
	got := f.env.ConfirmationCount()
	f.env.ResetConfirmations()
	if f.rec != nil {
		if err := f.rec.Checkpoint(); err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("confirmations: got %d, want %d (%d ops × %d stacks × %d approved item types)",
			got, want, ops, len(f.runs), len(f.want))
	}
	return nil
}

func (f *figures) finish() error {
	for item, q := range f.want {
		want := q * f.ops * int64(len(f.runs))
		if got := f.env.Supplier.Ordered(item); got != want {
			return fmt.Errorf("supplier ledger %s: ordered %d, want %d", item, got, want)
		}
	}
	if f.rec == nil {
		return nil
	}
	defer os.RemoveAll(f.dir)
	if err := f.rec.Close(); err != nil {
		return err
	}
	return checkWAL(f.dir, f.ops*int64(len(f.runs)))
}

// checkWAL reopens a closed journal the way a restarted host would and
// checks that it recovers to "nothing in flight, every instance
// completed".
func checkWAL(dir string, instances int64) error {
	rec, err := journal.Open(dir)
	if err != nil {
		return fmt.Errorf("reopen WAL: %w", err)
	}
	defer rec.Close()
	if n := len(rec.InFlight()); n != 0 {
		return fmt.Errorf("reopened WAL holds %d in-flight instances, want 0", n)
	}
	if n := int64(len(rec.State().Completed)); n != instances {
		return fmt.Errorf("reopened WAL holds %d completed instances, want %d", n, instances)
	}
	return nil
}

func (f *figures) observe(o *obsv.Observability) {
	if o == nil {
		f.env.DisableObservability()
	} else {
		f.env.EnableObservability(o)
	}
	if f.rec != nil {
		f.rec.SetObservability(o)
	}
}

func (f *figures) recorder() *journal.Recorder { return f.rec }

// ---------------------------------------------------------------------
// sqldb workloads (sql-read, sql-write)
// ---------------------------------------------------------------------

// The sql tables are 34× the figures' so that scan, filter and group cost
// is visible; the sizes are constants of the benchmark.
const (
	sqlOrders    = 4096
	sqlItems     = 64
	sqlSuppliers = 32
	sqlCustomers = 512
	sqlRegions   = 4
	maxQuantity  = 20
)

type orderRow struct {
	cust     int64
	item     int // index into items
	quantity int64
	approved bool
}

// sqlTables is a seeded database plus the Go-side copy of its rows that
// the correctness checks are computed from.
type sqlTables struct {
	db      *sqldb.DB
	s       *sqldb.Session
	rng     *rand.Rand
	orders  []orderRow // OrderID = index+1
	items   []string   // ItemID by index, ascending
	itemSup []int      // supplier index per item
	supName []string
	supReg  []int   // region index per supplier
	byCust  [][]int // order indexes per customer
}

func itemID(i int) string   { return "item" + strconv.Itoa(1000+i) }
func regionID(i int) string { return "region" + strconv.Itoa(i) }

// balanced returns n values in a seeded random order in which each of
// 0..kinds-1 occurs equally often (n/kinds times, give or take one). The
// seed decides which row gets which value; how many rows carry each value
// — and with it the work a scan, a group or an index lookup does in total
// — is the same on every seed, so exact counts stay comparable across
// seeds.
func balanced(rng *rand.Rand, n, kinds int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i % kinds
	}
	rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

// cycle deals 0..n-1 in a seeded random order, over and over: the key
// sequence of a run. Like balanced, it fixes how often each key is used
// and leaves the order to the seed.
type cycle struct {
	order []int
	next  int
}

func newCycle(rng *rand.Rand, n int) *cycle { return &cycle{order: rng.Perm(n)} }

func (c *cycle) draw() int {
	v := c.order[c.next]
	if c.next++; c.next == len(c.order) {
		c.next = 0
	}
	return v
}

func newSQLTables(seed int64) (*sqlTables, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &sqlTables{db: sqldb.Open("benchdb"), rng: rng, byCust: make([][]int, sqlCustomers)}
	t.s = t.db.Session()
	script := `
CREATE TABLE Orders (OrderID INTEGER PRIMARY KEY, CustID INTEGER NOT NULL, ItemID VARCHAR NOT NULL,
	Quantity INTEGER NOT NULL, Approved BOOLEAN NOT NULL);
CREATE INDEX orders_cust ON Orders (CustID);
CREATE TABLE Items (ItemID VARCHAR PRIMARY KEY, SupplierID INTEGER NOT NULL, Price INTEGER NOT NULL);
CREATE TABLE Suppliers (SupplierID INTEGER PRIMARY KEY, Name VARCHAR NOT NULL, Region VARCHAR NOT NULL);
CREATE PROCEDURE approved_totals () AS
	'SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders
	 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID'`
	if _, err := t.db.ExecScript(script); err != nil {
		return nil, err
	}
	insSup, err := t.s.Prepare("INSERT INTO Suppliers (SupplierID, Name, Region) VALUES (?, ?, ?)")
	if err != nil {
		return nil, err
	}
	t.supReg = balanced(rng, sqlSuppliers, sqlRegions)
	for i, reg := range t.supReg {
		t.supName = append(t.supName, "supplier"+strconv.Itoa(i))
		if _, err := insSup.Exec(sqldb.Int(int64(i)), sqldb.Str(t.supName[i]), sqldb.Str(regionID(reg))); err != nil {
			return nil, err
		}
	}
	insItem, err := t.s.Prepare("INSERT INTO Items (ItemID, SupplierID, Price) VALUES (?, ?, ?)")
	if err != nil {
		return nil, err
	}
	t.itemSup = balanced(rng, sqlItems, sqlSuppliers)
	for i, sup := range t.itemSup {
		t.items = append(t.items, itemID(i))
		if _, err := insItem.Exec(sqldb.Str(itemID(i)), sqldb.Int(int64(sup)), sqldb.Int(int64(1+rng.Intn(500)))); err != nil {
			return nil, err
		}
	}
	insOrder, err := t.s.Prepare("INSERT INTO Orders (OrderID, CustID, ItemID, Quantity, Approved) VALUES (?, ?, ?, ?, ?)")
	if err != nil {
		return nil, err
	}
	cust := balanced(rng, sqlOrders, sqlCustomers)
	item := balanced(rng, sqlOrders, sqlItems)
	quantity := balanced(rng, sqlOrders, maxQuantity)
	approved := balanced(rng, sqlOrders, 5) // four in five
	for i := 0; i < sqlOrders; i++ {
		o := orderRow{cust: int64(cust[i]), item: item[i], quantity: int64(1 + quantity[i]), approved: approved[i] != 0}
		t.orders = append(t.orders, o)
		t.byCust[o.cust] = append(t.byCust[o.cust], i)
		if _, err := insOrder.Exec(sqldb.Int(int64(i+1)), sqldb.Int(o.cust), sqldb.Str(t.items[o.item]),
			sqldb.Int(o.quantity), sqldb.Bool(o.approved)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *sqlTables) observe(o *obsv.Observability) { t.db.SetObservability(o) }
func (t *sqlTables) recorder() *journal.Recorder   { return nil }

// pair is one expected (key, number) result row.
type pair struct {
	k string
	n int64
}

// sqlRead is the fixed report of the sql-read workload.
type sqlRead struct {
	*sqlTables
	totals   [maxQuantity + 1][]pair // approved quantity per item over orders with Quantity >= t
	custTop  [][]pair                // per customer: first 5 of (OrderID, Quantity) by Quantity DESC, OrderID
	byRegion [sqlRegions][]pair      // per region: (ItemID, supplier index), by ItemID

	thresholds, orderKeys, custKeys, regionKeys *cycle
}

// Statement counts per op, tuned once so that no statement class costs
// more than half the op: one 4 096-row scan ≈ 47 %, the join ≈ 23 %, the
// lookups ≈ 29 % on the reference sandbox.
const (
	readPKLookups   = 64
	readCustLookups = 32
)

const (
	readAggSQL  = "SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE AND Quantity >= ? GROUP BY ItemID ORDER BY ItemID"
	readPKSQL   = "SELECT ItemID, Quantity FROM Orders WHERE OrderID = "
	readCustSQL = "SELECT OrderID, Quantity FROM Orders WHERE CustID = "
	readCustEnd = " ORDER BY Quantity DESC, OrderID LIMIT 5"
	readJoinSQL = "SELECT i.ItemID, s.Name FROM Items i JOIN Suppliers s ON i.SupplierID = s.SupplierID WHERE s.Region = ? ORDER BY i.ItemID"
)

func newSQLRead(seed int64) (*sqlRead, error) {
	t, err := newSQLTables(seed)
	if err != nil {
		return nil, err
	}
	r := &sqlRead{sqlTables: t,
		thresholds: newCycle(t.rng, maxQuantity), orderKeys: newCycle(t.rng, sqlOrders),
		custKeys: newCycle(t.rng, sqlCustomers), regionKeys: newCycle(t.rng, sqlRegions)}
	for th := 1; th <= maxQuantity; th++ {
		sums := make([]int64, sqlItems)
		for _, o := range t.orders {
			if o.approved && o.quantity >= int64(th) {
				sums[o.item] += o.quantity
			}
		}
		for i, n := range sums {
			if n > 0 {
				r.totals[th] = append(r.totals[th], pair{t.items[i], n})
			}
		}
	}
	for _, idx := range t.byCust {
		idx = append([]int(nil), idx...)
		sort.Slice(idx, func(a, b int) bool {
			if qa, qb := t.orders[idx[a]].quantity, t.orders[idx[b]].quantity; qa != qb {
				return qa > qb
			}
			return idx[a] < idx[b]
		})
		if len(idx) > 5 {
			idx = idx[:5]
		}
		var top []pair
		for _, i := range idx {
			top = append(top, pair{strconv.Itoa(i + 1), t.orders[i].quantity})
		}
		r.custTop = append(r.custTop, top)
	}
	for i, sup := range t.itemSup {
		reg := t.supReg[sup]
		r.byRegion[reg] = append(r.byRegion[reg], pair{t.items[i], int64(sup)})
	}
	return r, nil
}

// query executes text with either a bound parameter or the same value
// spliced in as a literal: half the lookups go each way, so both the
// raw-text front map and the normalized plan cache are exercised.
func (r *sqlRead) query(head string, v int64, tail string, literal bool) (*sqldb.Result, error) {
	if literal {
		return r.s.Exec(head + strconv.FormatInt(v, 10) + tail)
	}
	return r.s.Exec(head+"?"+tail, sqldb.Int(v))
}

func (r *sqlRead) op(i int, _ func()) error {
	// One scan of Orders per op: the aggregate with a bound threshold on
	// even ops, the stored procedure (the same shape, unfiltered) on odd.
	var res *sqldb.Result
	var err error
	if i%2 == 0 {
		th := 1 + r.thresholds.draw()
		if res, err = r.s.Exec(readAggSQL, sqldb.Int(int64(th))); err != nil {
			return err
		}
		err = checkPairs("aggregate", res, r.totals[th], nil)
	} else {
		if res, err = r.s.Exec("CALL approved_totals()"); err != nil {
			return err
		}
		err = checkPairs("approved_totals", res, r.totals[1], nil)
	}
	if err != nil {
		return err
	}
	for j := 0; j < readPKLookups; j++ {
		id := r.orderKeys.draw()
		if res, err = r.query(readPKSQL, int64(id+1), "", j%2 == 1); err != nil {
			return err
		}
		o := r.orders[id]
		if len(res.Rows) != 1 || res.Rows[0][0].S != r.items[o.item] || res.Rows[0][1].I != o.quantity {
			return fmt.Errorf("order %d: got %v, want (%s, %d)", id+1, res.Rows, r.items[o.item], o.quantity)
		}
	}
	for j := 0; j < readCustLookups; j++ {
		c := r.custKeys.draw()
		if res, err = r.query(readCustSQL, int64(c), readCustEnd, j%2 == 1); err != nil {
			return err
		}
		if err := checkPairs("customer top 5", res, r.custTop[c], func(v sqldb.Value) string { return strconv.FormatInt(v.I, 10) }); err != nil {
			return err
		}
	}
	reg := r.regionKeys.draw()
	if res, err = r.s.Exec(readJoinSQL, sqldb.Str(regionID(reg))); err != nil {
		return err
	}
	want := r.byRegion[reg]
	if len(res.Rows) != len(want) {
		return fmt.Errorf("join region %d: %d rows, want %d", reg, len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i][0].S != w.k || res.Rows[i][1].S != r.supName[w.n] {
			return fmt.Errorf("join region %d row %d: got %v, want (%s, %s)", reg, i, res.Rows[i], w.k, r.supName[w.n])
		}
	}
	return nil
}

// checkPairs compares a two-column result with the expected rows. key
// renders the first column when it is not a string.
func checkPairs(what string, res *sqldb.Result, want []pair, key func(sqldb.Value) string) error {
	if len(res.Rows) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(res.Rows), len(want))
	}
	for i, w := range want {
		k := res.Rows[i][0].S
		if key != nil {
			k = key(res.Rows[i][0])
		}
		if k != w.k || res.Rows[i][1].I != w.n {
			return fmt.Errorf("%s row %d: got %v, want (%s, %d)", what, i, res.Rows[i], w.k, w.n)
		}
	}
	return nil
}

func (r *sqlRead) endSlice(int) error { return nil }
func (r *sqlRead) finish() error      { return nil }

// sqlWrite is the transaction of the sql-write workload; the table keeps
// its size, so version creation, index maintenance and vacuum carry the
// time.
type sqlWrite struct {
	*sqlTables
	wantSum int64 // SUM(Quantity) the table must hold
	ins     int64 // next OrderID to insert

	orderKeys, custKeys, itemKeys, quantities, deltas *cycle
}

const writePKUpdates = 4

func newSQLWrite(seed int64) (*sqlWrite, error) {
	t, err := newSQLTables(seed)
	if err != nil {
		return nil, err
	}
	w := &sqlWrite{sqlTables: t, ins: sqlOrders + 1,
		orderKeys: newCycle(t.rng, sqlOrders), custKeys: newCycle(t.rng, sqlCustomers),
		itemKeys: newCycle(t.rng, sqlItems), quantities: newCycle(t.rng, maxQuantity), deltas: newCycle(t.rng, 3)}
	for _, o := range t.orders {
		w.wantSum += o.quantity
	}
	return w, nil
}

// exec runs one statement of the transaction and checks its row count.
func (w *sqlWrite) exec(affected int, sql string, params ...sqldb.Value) error {
	res, err := w.s.Exec(sql, params...)
	if err != nil {
		return fmt.Errorf("%s: %w", sql, err)
	}
	if affected >= 0 && res.RowsAffected != affected {
		return fmt.Errorf("%s: %d rows affected, want %d", sql, res.RowsAffected, affected)
	}
	return nil
}

func (w *sqlWrite) op(_ int, _ func()) error {
	err := w.txn()
	if err != nil && w.s.InTransaction() {
		w.s.Rollback()
	}
	return err
}

func (w *sqlWrite) txn() error {
	id := w.ins
	w.ins++
	var delta int64
	if err := w.exec(-1, "BEGIN"); err != nil {
		return err
	}
	// The inserted row's customer is outside the seeded range, so the
	// CustID update below never touches it.
	if err := w.exec(1, "INSERT INTO Orders (OrderID, CustID, ItemID, Quantity, Approved) VALUES (?, ?, ?, ?, ?)",
		sqldb.Int(id), sqldb.Int(sqlCustomers), sqldb.Str(w.items[w.itemKeys.draw()]),
		sqldb.Int(int64(1+w.quantities.draw())), sqldb.Bool(true)); err != nil {
		return err
	}
	for j := 0; j < writePKUpdates; j++ {
		d := int64(1 + w.deltas.draw())
		if err := w.exec(1, "UPDATE Orders SET Quantity = Quantity + ? WHERE OrderID = ?",
			sqldb.Int(d), sqldb.Int(int64(1+w.orderKeys.draw()))); err != nil {
			return err
		}
		delta += d
	}
	c := w.custKeys.draw()
	if err := w.exec(len(w.byCust[c]), "UPDATE Orders SET Quantity = Quantity + 1 WHERE CustID = ?", sqldb.Int(int64(c))); err != nil {
		return err
	}
	delta += int64(len(w.byCust[c]))
	if err := w.exec(1, "DELETE FROM Orders WHERE OrderID = ?", sqldb.Int(id)); err != nil {
		return err
	}
	if err := w.exec(-1, "COMMIT"); err != nil {
		return err
	}
	w.wantSum += delta
	return nil
}

func (w *sqlWrite) endSlice(int) error {
	res, err := w.s.Exec("SELECT COUNT(*), SUM(Quantity) FROM Orders")
	if err != nil {
		return err
	}
	if n, sum := res.Rows[0][0].I, res.Rows[0][1].I; n != sqlOrders || sum != w.wantSum {
		return fmt.Errorf("Orders: COUNT(*)=%d SUM(Quantity)=%d, want %d and %d", n, sum, sqlOrders, w.wantSum)
	}
	return nil
}

func (w *sqlWrite) finish() error { return w.endSlice(0) }
