package wfsql

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"wfsql/internal/bis"
	"wfsql/internal/chaos"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
)

// This file is the crash-recovery chaos matrix: the running example on all
// three product stacks, killed at each of the journal protocol's crash
// points mid-loop, then recovered by a freshly built host from the
// re-opened journal. Convergence is asserted three ways (expectRecovered),
// each against the crash point's contract in crashPoints — exactly-once
// from the memo onward, one repeat of the killed effect inside the
// in-doubt window, never a loss:
//
//   - the OrderConfirmations table against the fault-free baseline rows;
//   - the supplier's ordered ledger against the baseline quantities (a
//     duplicated invocation doubles an item's total);
//   - a passive SQL fault plan counts INSERT executions across crash run
//     plus recovery, proving memoized replay never touched the database.

// openJournal opens a recorder in dir, failing the test on error.
func openJournal(t *testing.T, dir string) *journal.Recorder {
	t.Helper()
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return rec
}

// itemQty splits a baseline confirmation row
// ("ItemID|Quantity|Confirmation") into its item and quantity.
func itemQty(t *testing.T, row string) (item string, qty int64) {
	t.Helper()
	parts := strings.SplitN(row, "|", 3)
	qty, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		t.Fatalf("baseline row %q: %v", row, err)
	}
	return parts[0], qty
}

// ledgerMatches checks the supplier's per-item ordered totals against the
// baseline confirmation rows.
func ledgerMatches(t *testing.T, env *Environment, baseline []string) {
	t.Helper()
	for _, row := range baseline {
		item, want := itemQty(t, row)
		if got := env.Supplier.Ordered(item); got != want {
			t.Errorf("supplier ledger for %s = %d, baseline %d (duplicated or lost invoke)", item, got, want)
		}
	}
}

// crashTarget names, for one product stack, the mid-loop invoke and SQL
// (insert) effects the crash matrices kill, and whether supplier
// invocations go through the wsbus (BPEL stacks) — the only per-stack
// knowledge the matrices need beyond the Stack descriptor itself.
type crashTarget struct {
	invokeAct string
	sqlAct    string
	useBus    bool
}

var crashTargets = map[string]crashTarget{
	"BIS":    {invokeAct: "invoke", sqlAct: "SQL2", useBus: true},
	"WF":     {invokeAct: "invoke", sqlAct: "SQLDatabase2", useBus: false},
	"Oracle": {invokeAct: "Invoke", sqlAct: "Assign2", useBus: true},
}

// matrixName is the stack's label in the crash and failover matrices
// ("BIS_Figure4", ...).
func matrixName(s Stack) string { return s.Name + "_" + s.Figure }

// crashPoint is one row of the crash-point axis shared by the crash,
// failover and fleet matrices.
type crashPoint struct {
	name  string
	point journal.CrashPoint
	// repeats is the row's contract: how many times recovery repeats the
	// killed effect. Only the in-doubt window — effect ran, memo not yet
	// journaled — repeats it, once.
	repeats int
	// parentStart makes the dying host append the activity-start record
	// the parent format wrote before every effect, so the row recovers a
	// parent-written journal cut at that format's middle crash point
	// (start journaled, effect not run) — a tail an upgraded host can
	// find, and the record the live protocol no longer writes.
	parentStart bool
}

var crashPoints = []crashPoint{
	{name: "before-journal", point: journal.CrashBeforeJournal},
	{name: "after-journal-before-effect", point: journal.CrashBeforeJournal, parentStart: true},
	{name: "after-effect-before-journal", point: journal.CrashAfterEffectBeforeJournal, repeats: 1},
	{name: "after-effect", point: journal.CrashAfterEffect},
}

// install arms rec to die at the row's point on the at-th execution of
// activity.
func (cp crashPoint) install(t *testing.T, rec *journal.Recorder, activity string, at int) *chaos.CrashPlan {
	plan := &chaos.CrashPlan{Point: cp.point, Activity: activity, AtEffect: at}
	if !cp.parentStart {
		chaos.Crash(rec, plan)
		return plan
	}
	fire := plan.Injector()
	rec.SetCrashInjector(func(id int64, act string, p journal.CrashPoint) bool {
		if !fire(id, act, p) {
			return false
		}
		if err := rec.Append(&journal.Record{Kind: journal.KindActivityStart, Instance: id, Activity: act}); err != nil {
			t.Errorf("append parent-format activity-start: %v", err)
		}
		return true
	})
	return plan
}

// expectRecovered asserts that env holds the effects of n fault-free
// instances plus exactly `repeats` repeats of the killed effect and
// nothing else. A repeated invoke (label "invoke") raises one item's
// supplier ledger by that item's baseline quantity and, on the bus
// stacks, dispatches one more invocation; a repeated insert (label
// "sql") adds one baseline confirmation row a second time and runs one
// more INSERT. A lost effect, a second repeat or a repeat of the wrong
// kind fails. inserts is the INSERT count observed across crash run and
// recovery.
func expectRecovered(t *testing.T, env *Environment, tgt crashTarget, baseline []string, n, inserts int, label string, repeats int) {
	t.Helper()
	repeatInvokes, repeatInserts := 0, repeats
	if label == "invoke" {
		repeatInvokes, repeatInserts = repeats, 0
	}
	items := len(baseline)

	rows := map[string]int{}
	got := confirmationRows(t, env)
	for _, r := range got {
		rows[r]++
	}
	extraRows, extraInvokes := 0, 0
	for _, row := range baseline {
		switch d := rows[row] - n; d {
		case 0:
		case 1:
			extraRows++
		default:
			t.Errorf("confirmation %q appears %d times, want %d (lost or over-repeated insert)", row, rows[row], n)
		}
		item, qty := itemQty(t, row)
		switch d := env.Supplier.Ordered(item) - qty*int64(n); d {
		case 0:
		case qty:
			extraInvokes++
		default:
			t.Errorf("supplier ledger for %s is off by %d from %d (lost or over-repeated invoke)", item, d, qty*int64(n))
		}
	}
	if len(got) != n*items+repeatInserts || extraRows != repeatInserts {
		t.Errorf("%d confirmations with %d repeated, want %d with %d repeated:\n got %v\nbaseline %v ×%d",
			len(got), extraRows, n*items+repeatInserts, repeatInserts, got, baseline, n)
	}
	if extraInvokes != repeatInvokes {
		t.Errorf("%d items were ordered twice, want %d", extraInvokes, repeatInvokes)
	}
	if want := n*items + repeatInserts; inserts != want {
		t.Errorf("%d INSERT executions across crash+recovery, want %d (memoized replay must not re-run SQL)", inserts, want)
	}
	if tgt.useBus {
		if got, want := env.Bus.Attempts(), int64(n*items+repeatInvokes); got != want {
			t.Errorf("%d supplier invocations dispatched, want %d (memoized replay must not re-invoke)", got, want)
		}
	}
}

// TestCrashRecoveryMatrix kills each product stack at every crash point —
// once on the second supplier invocation, once on the second confirmation
// insert — and proves the recovered run converges to the fault-free
// baseline, give or take exactly what the crash point's contract allows.
func TestCrashRecoveryMatrix(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	for _, stack := range Stacks() {
		stack, tgt := stack, crashTargets[stack.Name]
		want := baselineRows(t, w, stack)
		items := len(want)
		if items < 3 {
			t.Fatalf("workload too small for a mid-loop crash: %d item types", items)
		}
		for _, cp := range crashPoints {
			for _, target := range []struct{ label, activity string }{
				{"invoke", tgt.invokeAct},
				{"sql", tgt.sqlAct},
			} {
				cp, target := cp, target
				t.Run(matrixName(stack)+"/"+cp.name+"/"+target.label, func(t *testing.T) {
					env := NewEnvironment(w)
					inserts := &chaos.SQLFaultPlan{Kinds: []string{"INSERT"}}
					chaos.InstallSQL(env.DB, inserts)
					defer chaos.InstallSQL(env.DB, nil)

					dir := t.TempDir()
					rec := openJournal(t, dir)
					plan := cp.install(t, rec, target.activity, 2)

					env.AttachJournal(rec)
					err := env.Run(stack, ResilienceConfig{})
					if !journal.IsCrash(err) {
						t.Fatalf("crash run: want a crash error, got %v", err)
					}
					if !plan.Fired() {
						t.Fatal("crash plan never fired")
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("close journal: %v", err)
					}

					// A fresh host recovers from the re-opened journal:
					// nothing carries over in memory.
					rec2 := openJournal(t, dir)
					defer rec2.Close()
					if n := len(rec2.InFlight()); n != 1 {
						t.Fatalf("re-opened journal holds %d in-flight instances, want 1", n)
					}
					host := env.Rebuild()
					host.AttachJournal(rec2)
					p, err := stack.Prepare(host, ResilienceConfig{})
					if err != nil {
						t.Fatalf("prepare on rebuilt host: %v", err)
					}
					if err := p.Recover(rec2); err != nil {
						t.Fatalf("recovery: %v", err)
					}

					expectRecovered(t, host, tgt, want, 1, inserts.Seen(), target.label, cp.repeats)
					if n := len(rec2.InFlight()); n != 0 {
						t.Fatalf("journal still holds %d in-flight instances after recovery", n)
					}
				})
			}
		}
	}
}

// frameJSON frames a JSON payload as the WAL does: [length][CRC32][payload].
func frameJSON(payload []byte) []byte {
	buf := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// legacyFrame frames rec as every build before the binary record encoding
// did, as JSON: a parent-format journal is made of these bytes, whatever
// the live encoder writes.
func legacyFrame(t *testing.T, rec *journal.Record) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frameJSON(payload)
}

// parentFormatWAL rewrites a journal into the formats written before
// activity-start records, variable-write records and the audit-only
// state fields were dropped, and before records were binary: every record
// as JSON, an activity-start record before every memo,
// a variable-write record after it, and — after the first memo — a
// checkpoint whose JSON lists deployments and gives each
// instance vars, started and compensations.
func parentFormatWAL(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := journal.Scan(bytes.NewReader(raw))
	if err != nil || scan.Torn {
		t.Fatalf("scan crashed journal: %v torn=%v", err, scan.Torn)
	}
	var out []byte
	checkpointed := false
	for i := range scan.Records {
		r := &scan.Records[i]
		if r.Kind == journal.KindActivityComplete {
			out = append(out, legacyFrame(t, &journal.Record{Kind: journal.KindActivityStart, Instance: r.Instance,
				Activity: r.Activity, Occurrence: r.Occurrence, EffectKind: r.EffectKind})...)
		}
		out = append(out, legacyFrame(t, r)...)
		if r.Kind != journal.KindActivityComplete {
			continue
		}
		out = append(out, legacyFrame(t, &journal.Record{Kind: "variable-write", Instance: r.Instance,
			Data: map[string]string{"x:" + r.Activity: "<RowSet/>"}})...)
		if checkpointed {
			continue
		}
		checkpointed = true
		cp, err := json.Marshal(journal.Record{Kind: journal.KindCheckpoint, Checkpoint: journal.Replay(scan.Records[:i+1])})
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(cp, &m); err != nil {
			t.Fatal(err)
		}
		st := m["s"].(map[string]any)
		st["completed"] = 2
		st["deployments"] = []string{"P", "P", "P"}
		for _, ij := range st["instances"].(map[string]any) {
			inst := ij.(map[string]any)
			inst["vars"] = map[string]string{"s:pos": "2"}
			inst["started"] = true
			inst["compensations"] = []string{"scope"}
		}
		if cp, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		out = append(out, frameJSON(cp)...)
	}
	if !checkpointed {
		t.Fatal("crashed journal holds no memo to checkpoint after")
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryFromParentFormatJournal: a journal written in the
// previous formats — activity-start and variable-write records,
// checkpoints carrying the dropped fields — still recovers every stack to
// the baseline.
func TestCrashRecoveryFromParentFormatJournal(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	for _, stack := range Stacks() {
		stack, tgt := stack, crashTargets[stack.Name]
		t.Run(matrixName(stack), func(t *testing.T) {
			want := baselineRows(t, w, stack)
			env := NewEnvironment(w)
			rec := openJournal(t, t.TempDir())
			path := rec.Path()
			chaos.Crash(rec, &chaos.CrashPlan{Point: journal.CrashAfterEffect, Activity: tgt.invokeAct, AtEffect: 2})
			env.AttachJournal(rec)
			if err := env.Run(stack, ResilienceConfig{}); !journal.IsCrash(err) {
				t.Fatalf("crash run: want a crash error, got %v", err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			parentFormatWAL(t, path)

			rec2 := openJournal(t, filepath.Dir(path))
			defer rec2.Close()
			if rec2.TornTail {
				t.Fatalf("rewritten journal reads torn: %s", rec2.TornTailReason)
			}
			if n := len(rec2.InFlight()); n != 1 {
				t.Fatalf("re-opened journal holds %d in-flight instances, want 1", n)
			}
			if n := len(rec2.State().Completed); n != 2 {
				t.Fatalf("completed = %d, want the old checkpoint's 2", n)
			}
			host := env.Rebuild()
			host.AttachJournal(rec2)
			p, err := stack.Prepare(host, ResilienceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Recover(rec2); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if got := confirmationRows(t, host); !sameRows(got, want) {
				t.Fatalf("recovered confirmations diverge from baseline:\n got %v\nwant %v", got, want)
			}
			ledgerMatches(t, host, want)
			if n := len(rec2.InFlight()); n != 0 {
				t.Fatalf("journal still holds %d in-flight instances after recovery", n)
			}
		})
	}
}

// recoverOn rebuilds env's host on the re-opened journal and resumes what
// the journal holds in flight.
func recoverOn(t *testing.T, env *Environment, stack Stack, rec *journal.Recorder) *Environment {
	t.Helper()
	host := env.Rebuild()
	host.AttachJournal(rec)
	p, err := stack.Prepare(host, ResilienceConfig{})
	if err != nil {
		t.Fatalf("prepare on rebuilt host: %v", err)
	}
	if err := p.Recover(rec); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if n := len(rec.InFlight()); n != 0 {
		t.Fatalf("journal still holds %d in-flight instances after recovery", n)
	}
	return host
}

// TestJournalFormatsRecoverAlike: the same records in the binary encoding
// and, transcoded one by one, in the JSON encoding of every earlier build
// open to the same state and recover to the same baseline. Two
// environments make the same crash run (after the second invoke's memo);
// the second one's journal is replaced by the transcoding of the first's.
func TestJournalFormatsRecoverAlike(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	for _, stack := range Stacks() {
		stack, tgt := stack, crashTargets[stack.Name]
		t.Run(matrixName(stack), func(t *testing.T) {
			want := baselineRows(t, w, stack)
			crashed := func() (*Environment, string) {
				env := NewEnvironment(w)
				rec := openJournal(t, t.TempDir())
				chaos.Crash(rec, &chaos.CrashPlan{Point: journal.CrashAfterEffect, Activity: tgt.invokeAct, AtEffect: 2})
				env.AttachJournal(rec)
				if err := env.Run(stack, ResilienceConfig{}); !journal.IsCrash(err) {
					t.Fatalf("crash run: want a crash error, got %v", err)
				}
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
				return env, rec.Path()
			}
			binEnv, binPath := crashed()
			jsonEnv, jsonPath := crashed()

			raw, err := os.ReadFile(binPath)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := journal.Scan(bytes.NewReader(raw))
			if err != nil || scan.Torn || len(scan.Records) == 0 {
				t.Fatalf("scan crashed journal: %v torn=%v records=%d", err, scan.Torn, len(scan.Records))
			}
			var transcoded []byte
			for i := range scan.Records {
				transcoded = append(transcoded, legacyFrame(t, &scan.Records[i])...)
			}
			if bytes.HasPrefix(raw[8:], []byte("{")) || len(transcoded) <= len(raw) {
				t.Fatalf("the live journal (%d bytes) is not the binary one (JSON: %d bytes)", len(raw), len(transcoded))
			}
			if err := os.WriteFile(jsonPath, transcoded, 0o644); err != nil {
				t.Fatal(err)
			}

			binRec, jsonRec := openJournal(t, filepath.Dir(binPath)), openJournal(t, filepath.Dir(jsonPath))
			defer binRec.Close()
			defer jsonRec.Close()
			if binRec.TornTail || jsonRec.TornTail || binRec.RecoveredRecords != jsonRec.RecoveredRecords {
				t.Fatalf("binary: torn=%v, %d records; JSON: torn=%v, %d records",
					binRec.TornTail, binRec.RecoveredRecords, jsonRec.TornTail, jsonRec.RecoveredRecords)
			}
			if b, j := binRec.State(), jsonRec.State(); !reflect.DeepEqual(b, j) {
				t.Fatalf("states differ:\nbinary %+v\n  JSON %+v", b, j)
			}
			if b, j := binRec.InFlight(), jsonRec.InFlight(); len(b) != 1 || !reflect.DeepEqual(b, j) {
				t.Fatalf("in-flight instances differ:\nbinary %+v\n  JSON %+v", b, j)
			}
			if b, j := binRec.DeadLetters(), jsonRec.DeadLetters(); !reflect.DeepEqual(b, j) {
				t.Fatalf("dead letters differ:\nbinary %+v\n  JSON %+v", b, j)
			}
			for _, side := range []struct {
				name string
				env  *Environment
				rec  *journal.Recorder
			}{{"binary", binEnv, binRec}, {"JSON", jsonEnv, jsonRec}} {
				host := recoverOn(t, side.env, stack, side.rec)
				if got := confirmationRows(t, host); !sameRows(got, want) {
					t.Fatalf("%s journal: recovered confirmations diverge from baseline:\n got %v\nwant %v", side.name, got, want)
				}
				ledgerMatches(t, host, want)
			}
		})
	}
}

// TestRecoveryFromFailedMemoWrite: the write of an activity-complete
// record fails half-way, and the host stops like a dead process — no fault
// handler, no cleanup of what the journal still holds in flight (a BIS
// instance that dropped its result table could not be resumed). The
// recorder's file cannot be made to fail from here, so the failure is put
// together from its halves: an append guard refuses the record, and like
// the latch every record after it, with the error a failed write returns,
// and the first half of the frame is then appended to the closed WAL.
// (That the recorder itself acknowledges nothing behind such a frame is
// internal/journal's TestWriteErrorLatches.) The
// effect ran and its memo is torn, which is the in-doubt window: recovery
// repeats that one effect, and only it.
func TestRecoveryFromFailedMemoWrite(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	for _, stack := range Stacks() {
		stack, tgt := stack, crashTargets[stack.Name]
		want := baselineRows(t, w, stack)
		for _, target := range []struct{ label, activity string }{{"invoke", tgt.invokeAct}, {"sql", tgt.sqlAct}} {
			target := target
			t.Run(matrixName(stack)+"/"+target.label, func(t *testing.T) {
				env := NewEnvironment(w)
				inserts := &chaos.SQLFaultPlan{Kinds: []string{"INSERT"}}
				chaos.InstallSQL(env.DB, inserts)
				defer chaos.InstallSQL(env.DB, nil)

				dir := t.TempDir()
				rec := openJournal(t, dir)
				diskFull := fmt.Errorf("%w: append: no space left on device", journal.ErrWriteFailed)
				var lost []byte
				rec.SetAppendGuard(func(r *journal.Record) error {
					if lost != nil { // latched: the instance's faulted completion is refused too
						return diskFull
					}
					if r.Kind != journal.KindActivityComplete || r.Activity != target.activity || r.Occurrence != 2 {
						return nil
					}
					lost = legacyFrame(t, r)
					return diskFull
				})
				env.AttachJournal(rec)
				if err := env.Run(stack, ResilienceConfig{}); !errors.Is(err, diskFull) {
					t.Fatalf("run: want the write error, got %v", err)
				}
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(rec.Path(), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(lost[:len(lost)/2]); err != nil {
					t.Fatal(err)
				}
				f.Close()

				rec2 := openJournal(t, dir)
				defer rec2.Close()
				if !rec2.TornTail || len(rec2.InFlight()) != 1 {
					t.Fatalf("re-opened journal: torn=%v, %d in flight; want the half frame cut off and 1 instance", rec2.TornTail, len(rec2.InFlight()))
				}
				host := recoverOn(t, env, stack, rec2)
				expectRecovered(t, host, tgt, want, 1, inserts.Seen(), target.label, 1)
			})
		}
	}
}

// TestCrashRecoveryBISShortRunning covers the transaction-mode row of the
// recovery matrix: in a short-running BIS process the whole instance is
// one unit of work, so a crash rolls the open transaction back server-side
// (nothing visible survives) and the journal drops the un-committed SQL
// memos — the SQL re-runs as a whole on recovery, while the durable invoke
// memos still replay (an external service's effects do not roll back).
// That holds for an insert caught in the in-doubt window too: it rolls
// back with its unit, so the unit converges to the baseline with no
// repeat.
func TestCrashRecoveryBISShortRunning(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	want := baselineRows(t, w, StackBIS)
	items := len(want)

	for _, tc := range []struct {
		name     string
		point    journal.CrashPoint
		activity string
	}{
		// After the third invoke: two confirmations are already inserted
		// inside the open transaction.
		{"after-invoke-memo", journal.CrashAfterEffect, "invoke"},
		// After the third insert ran, before its memo.
		{"insert-in-doubt", journal.CrashAfterEffectBeforeJournal, "SQL2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnvironment(w)
			inserts := &chaos.SQLFaultPlan{Kinds: []string{"INSERT"}}
			chaos.InstallSQL(env.DB, inserts)
			defer chaos.InstallSQL(env.DB, nil)

			dir := t.TempDir()
			rec := openJournal(t, dir)
			env.Engine.AttachJournal(rec)
			plan := &chaos.CrashPlan{Point: tc.point, Activity: tc.activity, AtEffect: 3}
			chaos.Crash(rec, plan)

			p := env.BuildFigure4BISResilient(ResilienceConfig{})
			p.Mode = engine.ShortRunning
			d, err := env.Engine.Deploy(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(nil); !journal.IsCrash(err) {
				t.Fatalf("want a crash error, got %v", err)
			}
			crashInserts := inserts.Seen()
			if crashInserts < 2 {
				t.Fatalf("crash run executed %d inserts before dying, want >= 2", crashInserts)
			}
			if n := env.ConfirmationCount(); n != 0 {
				t.Fatalf("crash leaked %d confirmations (open transaction must roll back server-side)", n)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			rec2 := openJournal(t, dir)
			defer rec2.Close()
			inflight := rec2.InFlight()
			if len(inflight) != 1 {
				t.Fatalf("want 1 in-flight instance, got %d", len(inflight))
			}
			// The un-committed SQL memos are gone; the durable invoke memos stay.
			for act, memos := range inflight[0].Memos {
				for _, m := range memos {
					if m.Kind != journal.EffectInvoke {
						t.Fatalf("journal kept un-committed %s memo for %s across the crash", m.Kind, act)
					}
				}
			}

			host := env.Rebuild()
			host.Engine.AttachJournal(rec2)
			p2 := host.BuildFigure4BISResilient(ResilienceConfig{})
			p2.Mode = engine.ShortRunning
			d2, err := host.Engine.Deploy(p2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Recover(rec2, map[string]*engine.Deployment{"Figure4": d2}); err != nil {
				t.Fatalf("recovery: %v", err)
			}

			if got := confirmationRows(t, host); !sameRows(got, want) {
				t.Fatalf("recovered confirmations diverge:\n got %v\nwant %v", got, want)
			}
			ledgerMatches(t, host, want)
			// The rolled-back inserts re-ran as part of the unit of work; the
			// invokes did not.
			if got := inserts.Seen(); got != crashInserts+items {
				t.Fatalf("%d INSERT executions total, want %d (whole-unit re-run)", got, crashInserts+items)
			}
			if got := env.Bus.Attempts(); got != int64(items) {
				t.Fatalf("%d supplier invocations, want %d (durable invoke memos must replay)", got, items)
			}
		})
	}
}

// TestCrashRecoveryBISAtomicSequence crashes inside an atomic SQL
// sequence: the journaled SQL memo is transaction-scoped and never
// committed, so recovery discards it and re-runs the whole atomic unit.
func TestCrashRecoveryBISAtomicSequence(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	want := baselineRows(t, w, StackBIS)
	items := len(want)

	build := func(env *Environment) *engine.Process {
		sql1 := bis.NewSQL("SQL1", "DS",
			`SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders#
			 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID`).
			Into("SR_ItemList")
		invoke := engine.NewInvoke("invoke", "OrderFromSupplier").
			In("ItemID", "$CurrentItem/ItemID").
			In("Quantity", "$CurrentItem/Quantity").
			Out("OrderConfirmation", "OrderConfirmation")
		sql2 := bis.NewSQL("SQL2", "DS",
			`INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation)
			 VALUES (#CurrentItemID#, #CurrentQuantity#, #OrderConfirmation#)`)
		body := engine.NewSequence("main",
			bis.NewAtomicSequence("atomicHead",
				sql1,
				bis.NewRetrieveSet("retrieveSet", "DS", "SR_ItemList", "SV_ItemList"),
			),
			bis.CursorLoop("cursor", "SV_ItemList", "CurrentItem", "pos",
				engine.NewSequence("loopBody",
					engine.NewAssign("extract").
						Copy("$CurrentItem/ItemID", "CurrentItemID").
						Copy("$CurrentItem/Quantity", "CurrentQuantity"),
					invoke,
					sql2,
				)),
		)
		return bis.NewProcess("Figure4Atomic").
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

	env := NewEnvironment(w)
	dir := t.TempDir()
	rec := openJournal(t, dir)
	env.Engine.AttachJournal(rec)
	// Die right after SQL1's effect, with the atomic transaction open: the
	// memo was journaled but its transaction never committed.
	plan := &chaos.CrashPlan{Point: journal.CrashAfterEffect, Activity: "SQL1", AtEffect: 1}
	chaos.Crash(rec, plan)
	d, err := env.Engine.Deploy(build(env))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); !journal.IsCrash(err) {
		t.Fatalf("want a crash error, got %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rec2 := openJournal(t, dir)
	defer rec2.Close()
	inflight := rec2.InFlight()
	if len(inflight) != 1 {
		t.Fatalf("want 1 in-flight instance, got %d", len(inflight))
	}
	if n := inflight[0].MemoCount(); n != 0 {
		t.Fatalf("journal kept %d memo(s) from the un-committed atomic unit, want 0", n)
	}

	host := env.Rebuild()
	host.Engine.AttachJournal(rec2)
	d2, err := host.Engine.Deploy(build(host))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Recover(rec2, map[string]*engine.Deployment{"Figure4Atomic": d2}); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := confirmationRows(t, host); !sameRows(got, want) {
		t.Fatalf("recovered confirmations diverge:\n got %v\nwant %v", got, want)
	}
	ledgerMatches(t, host, want)
	if got := env.Bus.Attempts(); got != int64(items) {
		t.Fatalf("%d supplier invocations, want %d", got, items)
	}
}
