package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	id := r.AllocateID()
	if id != 1 {
		t.Fatalf("first id = %d, want 1", id)
	}
	if err := r.InstanceCreated(id, "Figure4", "long-running", map[string]string{"orderId": "7"}); err != nil {
		t.Fatal(err)
	}
	if err := r.ActivityStart(id, "SQL1", 1, EffectSQL); err != nil {
		t.Fatal(err)
	}
	if err := r.ActivityComplete(id, "SQL1", 1, EffectSQL, map[string]string{"table": "SR_ItemList_i1"}); err != nil {
		t.Fatal(err)
	}
	// A kind this reader does not know (older journals hold
	// variable-write records) must fold to nothing, not fail the replay.
	if err := r.Append(&Record{Kind: "variable-write", Instance: id, Data: map[string]string{"s:Status": "open"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: state must be rebuilt from disk.
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if r2.TornTail {
		t.Fatalf("unexpected torn tail: %s", r2.TornTailReason)
	}
	inflight := r2.InFlight()
	if len(inflight) != 1 {
		t.Fatalf("inflight = %d, want 1", len(inflight))
	}
	ij := inflight[0]
	if ij.ID != id || ij.Process != "Figure4" || ij.Mode != "long-running" {
		t.Fatalf("bad instance journal: %+v", ij)
	}
	if ij.Input["orderId"] != "7" {
		t.Fatalf("input lost: %+v", ij.Input)
	}
	if got := len(ij.Memos["SQL1"]); got != 1 {
		t.Fatalf("memos = %d, want 1", got)
	}
	if ij.Memos["SQL1"][0].Data["table"] != "SR_ItemList_i1" {
		t.Fatalf("memo data lost: %+v", ij.Memos["SQL1"][0])
	}
	// ID allocation resumes past recovered IDs.
	if next := r2.AllocateID(); next != 2 {
		t.Fatalf("next id = %d, want 2", next)
	}
}

func TestInstanceCompleteRemovesFromInFlight(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := r.AllocateID()
	must(t, r.InstanceCreated(id, "P", "", nil))
	must(t, r.InstanceComplete(id, ""))
	must(t, r.Close())

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if n := len(r2.InFlight()); n != 0 {
		t.Fatalf("inflight = %d, want 0", n)
	}
	st := r2.State()
	if len(st.Completed) != 1 {
		t.Fatalf("completed = %d, want 1", len(st.Completed))
	}
}

// Pending SQL memos are transaction-scoped: promoted on commit,
// dropped on rollback, dropped when the journal ends mid-transaction.
func TestTransactionScopedMemos(t *testing.T) {
	t.Run("commit promotes", func(t *testing.T) {
		dir := t.TempDir()
		r, _ := Open(dir)
		id := r.AllocateID()
		must(t, r.InstanceCreated(id, "P", "short-running", nil))
		must(t, r.Txn(id, KindTxnBegin, "uow"))
		must(t, r.ActivityComplete(id, "SQL2", 1, EffectSQL, map[string]string{"rows": "1"}))
		must(t, r.Txn(id, KindTxnCommit, "uow"))
		must(t, r.Close())
		r2, _ := Open(dir)
		defer r2.Close()
		ij := r2.InFlight()[0]
		if got := len(ij.Memos["SQL2"]); got != 1 {
			t.Fatalf("committed memos = %d, want 1", got)
		}
	})
	t.Run("rollback drops", func(t *testing.T) {
		dir := t.TempDir()
		r, _ := Open(dir)
		id := r.AllocateID()
		must(t, r.InstanceCreated(id, "P", "short-running", nil))
		must(t, r.Txn(id, KindTxnBegin, "uow"))
		must(t, r.ActivityComplete(id, "SQL2", 1, EffectSQL, map[string]string{"rows": "1"}))
		must(t, r.Txn(id, KindTxnRollback, "uow"))
		must(t, r.Close())
		r2, _ := Open(dir)
		defer r2.Close()
		ij := r2.InFlight()[0]
		if got := len(ij.Memos["SQL2"]); got != 0 {
			t.Fatalf("memos after rollback = %d, want 0", got)
		}
	})
	t.Run("crash with open txn drops", func(t *testing.T) {
		dir := t.TempDir()
		r, _ := Open(dir)
		id := r.AllocateID()
		must(t, r.InstanceCreated(id, "P", "short-running", nil))
		must(t, r.Txn(id, KindTxnBegin, "uow"))
		must(t, r.ActivityComplete(id, "SQL2", 1, EffectSQL, map[string]string{"rows": "1"}))
		// Invoke memos are NOT transaction-scoped: external effects
		// survive the database rollback.
		must(t, r.ActivityComplete(id, "InvokeSupplier", 1, EffectInvoke, map[string]string{"out:conf": "C1"}))
		must(t, r.Close()) // no commit journaled: in-doubt
		r2, _ := Open(dir)
		defer r2.Close()
		ij := r2.InFlight()[0]
		if got := len(ij.Memos["SQL2"]); got != 0 {
			t.Fatalf("SQL memos after in-doubt txn = %d, want 0", got)
		}
		if got := len(ij.Memos["InvokeSupplier"]); got != 1 {
			t.Fatalf("invoke memos = %d, want 1 (external effects are durable)", got)
		}
	})
}

func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.SetCheckpointEvery(0) // manual
	id := r.AllocateID()
	must(t, r.InstanceCreated(id, "P", "", nil))
	for i := 1; i <= 5; i++ {
		must(t, r.ActivityComplete(id, "Invoke", i, EffectInvoke, map[string]string{"n": "x"}))
	}
	must(t, r.Checkpoint())
	must(t, r.ActivityComplete(id, "Invoke", 6, EffectInvoke, map[string]string{"n": "y"}))
	must(t, r.Close())

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ij := r2.InFlight()[0]
	if got := len(ij.Memos["Invoke"]); got != 6 {
		t.Fatalf("memos after checkpoint+tail = %d, want 6", got)
	}
	// AllocateID continuity survives the checkpoint.
	if next := r2.AllocateID(); next != 2 {
		t.Fatalf("next id = %d, want 2", next)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.SetCheckpointEvery(3)
	id := r.AllocateID()
	must(t, r.InstanceCreated(id, "P", "", nil))
	for i := 1; i <= 7; i++ {
		must(t, r.ActivityComplete(id, "A", i, EffectInvoke, nil))
	}
	must(t, r.Close())
	// Count checkpoint records on disk.
	f, err := os.Open(filepath.Join(dir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := Scan(f)
	if err != nil {
		t.Fatal(err)
	}
	cps := 0
	for _, rec := range res.Records {
		if rec.Kind == KindCheckpoint {
			cps++
		}
	}
	if cps == 0 {
		t.Fatal("no automatic checkpoint written")
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.InFlight()[0].MemoCount(); got != 7 {
		t.Fatalf("memos = %d, want 7", got)
	}
}

// Torn-write handling: a partial or corrupt final record must not
// fail recovery or replay garbage -- the scan stops at the last valid
// checksum and Open truncates the tail.
func TestTornWriteRecovery(t *testing.T) {
	build := func(t *testing.T) (string, int64) {
		dir := t.TempDir()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		id := r.AllocateID()
		must(t, r.InstanceCreated(id, "P", "", nil))
		must(t, r.ActivityComplete(id, "A", 1, EffectInvoke, map[string]string{"ok": "1"}))
		must(t, r.Close())
		fi, err := os.Stat(filepath.Join(dir, WALName))
		if err != nil {
			t.Fatal(err)
		}
		return dir, fi.Size()
	}

	check := func(t *testing.T, dir string, wantValid int64, wantReason string) {
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("open after corruption: %v", err)
		}
		defer r.Close()
		if !r.TornTail {
			t.Fatal("torn tail not detected")
		}
		if wantReason != "" && r.TornTailReason == "" {
			t.Fatal("missing torn-tail reason")
		}
		// The two intact records must have survived.
		ij := r.InFlight()
		if len(ij) != 1 || len(ij[0].Memos["A"]) != 1 {
			t.Fatalf("valid prefix lost: %+v", ij)
		}
		// The file must have been truncated to the valid prefix so
		// appends resume on a frame boundary.
		fi, err := os.Stat(filepath.Join(dir, WALName))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != wantValid {
			t.Fatalf("file size after truncate = %d, want %d", fi.Size(), wantValid)
		}
		// And appending + reopening must work cleanly.
		must(t, r.ActivityComplete(1, "A", 2, EffectInvoke, nil))
		must(t, r.Close())
		r2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Close()
		if r2.TornTail {
			t.Fatalf("tail still torn after repair: %s", r2.TornTailReason)
		}
		if got := len(r2.InFlight()[0].Memos["A"]); got != 2 {
			t.Fatalf("memos after repair+append = %d, want 2", got)
		}
	}

	t.Run("truncated mid-payload", func(t *testing.T) {
		dir, size := build(t)
		path := filepath.Join(dir, WALName)
		// Append a full record, then chop its payload in half.
		r, _ := Open(dir)
		must(t, r.ActivityComplete(1, "B", 1, EffectSQL, map[string]string{"rows": "3"}))
		must(t, r.Close())
		fi, _ := os.Stat(path)
		cut := size + (fi.Size()-size)/2
		if cut <= size+frameHeaderLen {
			cut = size + frameHeaderLen + 1
		}
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		check(t, dir, size, "partial payload")
	})

	t.Run("truncated mid-header", func(t *testing.T) {
		dir, size := build(t)
		path := filepath.Join(dir, WALName)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x05, 0x00, 0x00}); err != nil { // 3 of 8 header bytes
			t.Fatal(err)
		}
		f.Close()
		check(t, dir, size, "partial frame header")
	})

	t.Run("corrupt payload bytes", func(t *testing.T) {
		dir, size := build(t)
		path := filepath.Join(dir, WALName)
		r, _ := Open(dir)
		must(t, r.ActivityComplete(1, "B", 1, EffectSQL, map[string]string{"rows": "3"}))
		must(t, r.Close())
		// Flip bits inside the final record's payload: checksum must
		// catch it.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[size+frameHeaderLen+2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, size, "checksum mismatch")
	})

	t.Run("garbage length field", func(t *testing.T) {
		dir, size := build(t)
		path := filepath.Join(dir, WALName)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 0xFFFFFFF0) // absurd length
		binary.LittleEndian.PutUint32(hdr[4:8], 0xDEADBEEF)
		if _, err := f.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(bytes.Repeat([]byte{0x42}, 64)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		check(t, dir, size, "implausible record length")
	})
}

func TestDeadLetterJournaling(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	must(t, r.DeadLetter(1, DeadLetterRecord{Seq: 1, Activity: "Invoke1", Target: "OrderFromSupplier", Key: "dl-1", Attempts: 4, Reason: "exhausted", LastErr: "boom"}))
	must(t, r.DeadLetter(1, DeadLetterRecord{Seq: 2, Activity: "Invoke2", Target: "OrderFromSupplier", Key: "dl-2", Attempts: 4, Reason: "exhausted"}))
	must(t, r.RequeueDeadLetter("dl-1"))
	must(t, r.Close())

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	dls := r2.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("dead letters after requeue = %d, want 1", len(dls))
	}
	if dls[0].Key != "dl-2" || dls[0].Seq != 2 || dls[0].Attempts != 4 {
		t.Fatalf("dead letter round-trip lost fields: %+v", dls[0])
	}
}

func TestCrashErrorClassification(t *testing.T) {
	ce := &CrashError{Instance: 3, Activity: "SQL2", Point: CrashAfterEffect}
	if ce.Temporary() {
		t.Fatal("crash errors must be permanent (not retryable in-process)")
	}
	wrapped := fmt.Errorf("wrap: %w", ce)
	if !IsCrash(wrapped) {
		t.Fatal("IsCrash must see through wrapping")
	}
	got, ok := AsCrash(wrapped)
	if !ok || got.Point != CrashAfterEffect {
		t.Fatalf("AsCrash = %+v, %v", got, ok)
	}
	if IsCrash(nil) || IsCrash(os.ErrNotExist) {
		t.Fatal("false positive IsCrash")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointSizeIndependentOfHistory: a checkpoint holds what
// recovery reads — in-flight instances, dead letters, the id and
// completion counters — so its size must not depend on how many
// instances have ever run. (The state used to list every completed id
// and every deploy record, so checkpoints grew without bound.)
func TestCheckpointSizeIndependentOfHistory(t *testing.T) {
	f := &fakeWAL{}
	r := newFakeRecorder(f)
	run := func(n int) {
		for i := 0; i < n; i++ {
			must(t, r.Deploy("P"))
			id := r.AllocateID()
			must(t, r.InstanceCreated(id, "P", "", map[string]string{"k": "v"}))
			must(t, r.ActivityStart(id, "A", 1, EffectInvoke))
			must(t, r.ActivityComplete(id, "A", 1, EffectInvoke, map[string]string{"out": "x"}))
			must(t, r.Append(&Record{Kind: KindCompensation, Instance: id, Activity: "scope"}))
			must(t, r.InstanceComplete(id, ""))
		}
	}
	checkpointFrame := func() int {
		before := f.buf.Len()
		must(t, r.Checkpoint())
		return f.buf.Len() - before
	}
	run(10)
	small := checkpointFrame()
	run(2000)
	large := checkpointFrame()
	if d := large - small; d < 0 || d > 16 { // the two counters gain digits
		t.Fatalf("checkpoint frame grew with history: %d bytes after 10 instances, %d after 2010", small, large)
	}
	if n := len(r.State().Completed); n != 2010 {
		t.Fatalf("completed = %d, want 2010", n)
	}
	// The count survives a replay of the log, checkpoints included.
	res, err := Scan(bytes.NewReader(f.buf.Bytes()))
	must(t, err)
	if n := len(Replay(res.Records).Completed); n != 2010 {
		t.Fatalf("replayed completed = %d, want 2010", n)
	}
}
