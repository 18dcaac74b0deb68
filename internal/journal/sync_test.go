package journal

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"wfsql/internal/obsv"
)

// fakeWAL is an in-memory walFile that records the sync protocol: how
// many bytes were written before each fsync, and how many fsyncs were
// issued in total.
type fakeWAL struct {
	buf         bytes.Buffer
	syncs       int
	syncedAt    []int // buf length at each Sync call
	closed      bool
	syncOnClose bool
}

func (f *fakeWAL) Write(p []byte) (int, error) { return f.buf.Write(p) }

func (f *fakeWAL) Sync() error {
	f.syncs++
	f.syncedAt = append(f.syncedAt, f.buf.Len())
	return nil
}

func (f *fakeWAL) Close() error {
	f.closed = true
	return nil
}

// newFakeRecorder builds a Recorder over an injected fake file, skipping
// the disk-backed Open path.
func newFakeRecorder(f *fakeWAL) *Recorder {
	return &Recorder{
		f:     f,
		path:  "fake://wal",
		state: Replay(nil),
		sync:  SyncPolicy{Mode: SyncCritical},
	}
}

func TestAppendSyncsCommitCriticalRecords(t *testing.T) {
	f := &fakeWAL{}
	r := newFakeRecorder(f)

	// Non-critical records must not trigger fsync on their own.
	if err := r.Deploy("P"); err != nil {
		t.Fatal(err)
	}
	if err := r.InstanceCreated(1, "P", "long-running", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.ActivityStart(1, "Invoke", 0, "invoke"); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 0 {
		t.Fatalf("non-critical records caused %d fsyncs", f.syncs)
	}

	// The activity-complete memo is the record whose loss breaks
	// exactly-once replay: it MUST be synced before Append returns.
	if err := r.ActivityComplete(1, "Invoke", 0, "invoke", map[string]string{"out": "1"}); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 1 {
		t.Fatalf("activity-complete: want 1 fsync, got %d", f.syncs)
	}
	// The fsync must cover everything written so far (WAL is ordered,
	// so syncing the tail syncs the prefix).
	if f.syncedAt[0] != f.buf.Len() {
		t.Fatalf("fsync at %d bytes but buffer has %d", f.syncedAt[0], f.buf.Len())
	}

	// txn-commit and instance-complete are also commit-critical.
	if err := r.Txn(1, KindTxnBegin, "uow"); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 1 {
		t.Fatalf("txn-begin should not sync, got %d", f.syncs)
	}
	if err := r.Txn(1, KindTxnCommit, "uow"); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 2 {
		t.Fatalf("txn-commit: want 2 fsyncs, got %d", f.syncs)
	}
	if err := r.InstanceComplete(1, ""); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 3 {
		t.Fatalf("instance-complete: want 3 fsyncs, got %d", f.syncs)
	}
	if got := r.SyncCount(); got != 3 {
		t.Fatalf("SyncCount = %d", got)
	}
}

func TestCheckpointIsSynced(t *testing.T) {
	f := &fakeWAL{}
	r := newFakeRecorder(f)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 1 {
		t.Fatalf("checkpoint: want 1 fsync, got %d", f.syncs)
	}
	if f.syncedAt[0] != f.buf.Len() {
		t.Fatalf("checkpoint fsync did not cover the snapshot bytes")
	}
}

func TestSyncModes(t *testing.T) {
	// SyncAlways: every record is synced.
	f := &fakeWAL{}
	r := newFakeRecorder(f)
	r.SetSyncPolicy(SyncPolicy{Mode: SyncAlways})
	if err := r.Deploy("P"); err != nil {
		t.Fatal(err)
	}
	if err := r.ActivityStart(1, "A", 0, "sql"); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 2 {
		t.Fatalf("SyncAlways: want 2, got %d", f.syncs)
	}

	// SyncNever: nothing syncs until Close.
	f2 := &fakeWAL{}
	r2 := newFakeRecorder(f2)
	r2.SetSyncPolicy(SyncPolicy{Mode: SyncNever})
	if err := r2.Txn(1, KindTxnCommit, "uow"); err != nil {
		t.Fatal(err)
	}
	if f2.syncs != 0 {
		t.Fatalf("SyncNever: got %d fsyncs", f2.syncs)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if f2.syncs != 1 || !f2.closed {
		t.Fatalf("Close must sync+close: syncs=%d closed=%v", f2.syncs, f2.closed)
	}
}

func TestSyncMetricsCounted(t *testing.T) {
	f := &fakeWAL{}
	r := newFakeRecorder(f)
	o := obsv.New()
	r.SetObservability(o)

	if err := r.ActivityStart(1, "A", 0, "sql"); err != nil {
		t.Fatal(err)
	}
	if err := r.ActivityComplete(1, "A", 0, "sql", nil); err != nil {
		t.Fatal(err)
	}
	m := o.M()
	if got := m.Counter("journal.appends").Value(); got != 2 {
		t.Fatalf("journal.appends = %d", got)
	}
	if got := m.Counter("journal.syncs").Value(); got != 1 {
		t.Fatalf("journal.syncs = %d", got)
	}
	if got := m.Counter("journal.appends.activity-complete").Value(); got != 1 {
		t.Fatalf("per-kind append counter = %d", got)
	}
	if m.Histogram("journal.append_ms").Count() != 2 {
		t.Fatalf("append_ms observations = %d", m.Histogram("journal.append_ms").Count())
	}
}

// TestMetricsMatchTheJournal: after a seeded mix of typed and raw appends
// (of kinds the codec numbers and of two it does not), fenced refusals of
// appends and checkpoints, explicit and automatic checkpoints, explicit
// syncs and every sync mode, the registry holds what the journal itself
// accounts for, and nothing else: journal.appends.<kind> per record of
// that kind in the WAL, journal.appends their sum, journal.checkpoints
// per checkpoint frame, journal.syncs as the file saw them, the refusals
// as replica.fenced_writes, one latency observation per count — and no
// metric the mix never touched.
func TestMetricsMatchTheJournal(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		f := &fakeWAL{}
		r := newFakeRecorder(f)
		o := obsv.New()
		r.SetObservability(o)
		rng := rand.New(rand.NewSource(seed))
		fence := false
		r.SetAppendGuard(func(*Record) error {
			if fence {
				return fmt.Errorf("seeded: %w", ErrFenced)
			}
			return nil
		})
		for i := 0; i < 200; i++ {
			fence = rng.Intn(8) == 0
			id := int64(rng.Intn(4) + 1)
			var err error
			switch rng.Intn(14) {
			case 0:
				err = r.InstanceCreated(id, "P", "wf", map[string]string{"state": "<s/>"})
			case 1, 2:
				err = r.ActivityComplete(id, "A", i, EffectSQL, map[string]string{"s:x": "1"})
			case 3:
				err = r.InstanceComplete(id, "")
			case 4:
				err = r.InstanceComplete(id, "boom")
			case 5:
				err = r.Txn(id, KindTxnBegin, "t")
			case 6:
				err = r.Txn(id, KindTxnCommit, "t")
			case 7:
				err = r.SQLEffect(SQLEffectRecord{Seq: int64(i), Kind: "INSERT", SQL: "INSERT INTO t VALUES (?)", Params: []string{"i1"}})
			case 8:
				err = r.Append(&Record{Kind: Kind("custom-kind-" + string(rune('a'+rng.Intn(2)))), Instance: id})
			case 9:
				err = r.DeadLetter(id, DeadLetterRecord{Seq: int64(i), Activity: "A", Key: "k"})
			case 10:
				err = r.Checkpoint()
			case 11:
				err = r.Sync()
			case 12:
				err = r.Deploy("P")
			case 13:
				r.SetSyncPolicy(SyncPolicy{Mode: SyncMode(rng.Intn(3))})
				r.SetCheckpointEvery(rng.Intn(3) * 9)
			}
			if err != nil && !IsFenced(err) {
				t.Fatalf("seed %d, step %d: %v", seed, i, err)
			}
		}
		res, err := Scan(bytes.NewReader(f.buf.Bytes()))
		if err != nil || res.Torn {
			t.Fatalf("seed %d: scan: %v, torn %v", seed, err, res.Torn)
		}
		want := map[string]int64{"journal.recover.records": 0}
		for _, rec := range res.Records {
			if rec.Kind == KindCheckpoint {
				want["journal.checkpoints"]++
				continue
			}
			want["journal.appends."+string(rec.Kind)]++
			want["journal.appends"]++
		}
		if f.syncs > 0 {
			want["journal.syncs"] = int64(f.syncs)
		}
		if n := r.FencedWrites(); n > 0 {
			want["replica.fenced_writes"] = n
		}
		wantObs := map[string]int64{"journal.recover_ms": 1}
		for h, c := range map[string]string{"journal.append_ms": "journal.appends", "journal.sync_ms": "journal.syncs", "journal.checkpoint_ms": "journal.checkpoints"} {
			if want[c] > 0 {
				wantObs[h] = want[c]
			}
		}
		snap := o.M().Snapshot()
		got := map[string]int64{}
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "journal.") || strings.HasPrefix(k, "replica.") {
				got[k] = v
			}
		}
		gotObs := map[string]int64{}
		for k, h := range snap.Histograms {
			if strings.HasPrefix(k, "journal.") {
				gotObs[k] = h.Count
			}
		}
		if !maps.Equal(got, want) || !maps.Equal(gotObs, wantObs) {
			t.Fatalf("seed %d: counters %v, histogram counts %v\nwant %v, %v", seed, got, gotObs, want, wantObs)
		}
		if want["replica.fenced_writes"] == 0 || want["journal.checkpoints"] == 0 || want["journal.syncs"] == 0 || want["journal.appends.custom-kind-a"] == 0 || want["journal.appends.custom-kind-b"] == 0 {
			t.Fatalf("seed %d covers too little: %v", seed, want)
		}
	}
}

// TestDiskRecorderStillWorks pins that the real Open path composes with
// the sync policy (os.File satisfies walFile).
func TestDiskRecorderStillWorks(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.InstanceCreated(1, "P", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.ActivityComplete(1, "A", 0, "sql", map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if r.SyncCount() < 1 {
		t.Fatalf("disk recorder never fsynced a critical record")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and confirm the memo survived.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	st := r2.State()
	ij := st.Instances[1]
	if ij == nil || ij.MemoCount() != 1 {
		t.Fatalf("memo lost across reopen: %+v", ij)
	}
}

// TestAppendReportsItsOwnOutcome: the automatic checkpoint an append
// triggers is not that append's business. With the guard refusing only
// checkpoints, the append that reaches the checkpoint interval has
// written, folded and synced its record and says so; the refusal is
// counted, and it is the next append the guard fences. (Append used to
// return the checkpoint's error, so a standby that took over counted one
// record more than the old primary had acknowledged.)
func TestAppendReportsItsOwnOutcome(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	must(t, err)
	r.SetCheckpointEvery(1)
	r.SetAppendGuard(func(rec *Record) error {
		if rec.Kind == KindCheckpoint {
			return fmt.Errorf("checkpoint at epoch 2: %w", ErrFenced)
		}
		return nil
	})
	if err := r.InstanceCreated(1, "P", "", nil); err != nil {
		t.Fatalf("append whose automatic checkpoint was refused: %v, want nil", err)
	}
	if got := r.FencedWrites(); got != 1 {
		t.Fatalf("FencedWrites = %d, want the 1 refused checkpoint", got)
	}
	r.SetAppendGuard(func(*Record) error { return ErrFenced })
	if err := r.InstanceCreated(2, "P", "", nil); !IsFenced(err) {
		t.Fatalf("next append under a guard that fences everything: %v, want ErrFenced", err)
	}
	must(t, r.Close())

	r2, err := Open(dir)
	must(t, err)
	defer r2.Close()
	if st := r2.State(); st.Instances[1] == nil || st.Instances[2] != nil {
		t.Fatalf("reopened state holds %v, want the acknowledged instance 1 only", st.Instances)
	}
}
