package wfsql

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfsql/internal/chaos"
	"wfsql/internal/journal"
)

// This file is the failover chaos matrix: the running example bursts
// multiple instances on each product stack, the primary is killed
// mid-burst at each of the journal protocol's crash points, and a warm
// standby — which has been tailing the WAL all along — performs the
// lease-fenced takeover and resumes the in-flight work on a rebuilt
// host. Convergence is asserted the same three ways as the crash
// matrix and against the same per-point contract (expectRecovered:
// confirmations, supplier ledger, passive INSERT count), plus the
// fencing property: the dead primary's recorder refuses writes
// before and after the takeover.

// failoverClock is a frozen manual clock starting at the real present,
// so lease stamps written with the real clock interoperate and tests
// advance time instead of sleeping through TTLs.
type failoverClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFailoverClock() *failoverClock { return &failoverClock{t: time.Now()} }

func (c *failoverClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *failoverClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// repeatRows is the expected confirmation multiset for a burst: every
// instance appends the same per-item rows.
func repeatRows(rows []string, n int) []string {
	out := make([]string, 0, len(rows)*n)
	for i := 0; i < n; i++ {
		out = append(out, rows...)
	}
	sort.Strings(out)
	return out
}

// TestFailoverChaosMatrix kills each product stack at every crash point
// mid-burst — once on a supplier invocation, once on a confirmation
// insert — and proves the standby's takeover converges to the
// fault-free burst, give or take exactly what the crash point's contract
// allows, with a fenced old primary.
func TestFailoverChaosMatrix(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	const burst = 4
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
					clock := newFailoverClock()
					env := NewEnvironment(w)
					inserts := &chaos.SQLFaultPlan{Kinds: []string{"INSERT"}}
					chaos.InstallSQL(env.DB, inserts)
					defer chaos.InstallSQL(env.DB, nil)

					dir := t.TempDir()
					pri, err := env.StartPrimary(dir, "primary-a", time.Second)
					if err != nil {
						t.Fatalf("start primary: %v", err)
					}
					pri.Lease.SetClock(clock.Now)

					// The standby follows from the start (warm).
					ws := NewWarmStandby(dir, time.Second)
					ws.Lease.SetClock(clock.Now)
					if _, err := ws.CatchUp(); err != nil {
						t.Fatal(err)
					}

					// Kill mid-burst: the crash fires during the third
					// instance's loop (the first two instances' effects
					// already interleave in the shared WAL).
					plan := cp.install(t, pri.Rec, target.activity, 2*items+2)

					_, err = env.RunParallel(stack, ParallelConfig{Instances: burst, Workers: 2})
					if !journal.IsCrash(err) {
						t.Fatalf("burst: want a crash error, got %v", err)
					}
					if !plan.Fired() {
						t.Fatal("crash plan never fired")
					}

					// The primary process is dead: its heartbeat stops and
					// the TTL lapses. Its own guard self-fences even before
					// the standby moves.
					clock.Advance(5 * time.Second)
					if err := pri.Rec.Deploy("zombie-before-takeover"); !journal.IsFenced(err) {
						t.Fatalf("dead primary append: err = %v, want ErrFenced", err)
					}

					// Warm takeover: catch up, promote, rebuild, recover.
					if _, err := ws.CatchUp(); err != nil {
						t.Fatal(err)
					}
					if n := len(ws.Standby.InFlight()); n != 1 {
						t.Fatalf("standby sees %d in-flight instances, want 1", n)
					}
					host, rec2, _, err := ws.Takeover(env, "standby-b", stack)
					if err != nil {
						t.Fatalf("takeover: %v", err)
					}
					defer rec2.Close()

					expectRecovered(t, host, tgt, want, burst, inserts.Seen(), target.label, cp.repeats)
					if n := len(rec2.InFlight()); n != 0 {
						t.Fatalf("journal still holds %d in-flight instances after failover recovery", n)
					}

					// The old primary stays fenced after the takeover too —
					// epoch advance, not just expiry.
					if err := pri.Rec.Deploy("zombie-after-takeover"); !journal.IsFenced(err) {
						t.Fatalf("zombie append after takeover: err = %v, want ErrFenced", err)
					}
					if pri.Rec.FencedWrites() < 2 {
						t.Fatalf("FencedWrites = %d, want >= 2", pri.Rec.FencedWrites())
					}
					// The new primary is live.
					if err := rec2.Deploy("post-takeover"); err != nil {
						t.Fatalf("new primary append: %v", err)
					}
				})
			}
		}
	}
}

// TestFollowSurfacesTerminalError: a Follow loop that dies on a CatchUp
// error must not vanish silently — the standby would quietly go stale.
// The terminal error is retained for LastError and delivered to the
// OnFollowError callback, mirroring a heartbeat's onLost.
func TestFollowSurfacesTerminalError(t *testing.T) {
	dir := t.TempDir()
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	ws := NewWarmStandby(dir, time.Second)
	wantErr := errors.New("replica apply wedged")
	ws.Standby.OnSQLEffect(func(journal.SQLEffectRecord) error { return wantErr })
	notified := make(chan error, 1)
	ws.OnFollowError = func(err error) { notified <- err }

	stop := ws.Follow(time.Millisecond)
	defer stop()
	// A SQL effect lands in the WAL; the consumer refuses it, so the
	// next poll fails and the loop must terminate loudly.
	if err := rec.SQLEffect(journal.SQLEffectRecord{Seq: 1, Session: 1, Kind: "INSERT", SQL: "INSERT INTO t VALUES (1)"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-notified:
		if !errors.Is(err, wantErr) {
			t.Fatalf("OnFollowError got %v, want %v", err, wantErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow died without invoking OnFollowError")
	}
	if err := ws.LastError(); !errors.Is(err, wantErr) {
		t.Fatalf("LastError = %v, want %v", err, wantErr)
	}
}

// TestFollowBacksOffWhenStalled: an idle follower must not poll a quiet
// WAL at the full base rate — the loop backs off exponentially (capped)
// while nothing arrives, and snaps back to prompt absorption the moment
// the primary writes again.
func TestFollowBacksOffWhenStalled(t *testing.T) {
	dir := t.TempDir()
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	ws := NewWarmStandby(dir, time.Second)
	// The tailer itself is single-goroutine, so absorption is observed
	// through the standby's effect hook, not Tailer counters.
	var absorbed atomic.Int64
	ws.Standby.OnSQLEffect(func(journal.SQLEffectRecord) error {
		absorbed.Add(1)
		return nil
	})
	base := 2 * time.Millisecond
	stop := ws.Follow(base)
	defer stop()

	// Active phase: records arrive and are absorbed.
	effect := func(seq int64) error {
		return rec.SQLEffect(journal.SQLEffectRecord{
			Seq: seq, Session: 1, Kind: "INSERT",
			SQL: fmt.Sprintf("INSERT INTO t VALUES (%d)", seq),
		})
	}
	for i := int64(1); i <= 5; i++ {
		if err := effect(i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for absorbed.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("follower absorbed %d records, want 5", absorbed.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Stall phase: nothing arrives. A fixed-rate loop would poll
	// ~stall/base times; the backoff ramps to the cap, so the count
	// must come in far below that.
	p0 := ws.Polls()
	stall := 160 * base
	time.Sleep(stall)
	stalled := ws.Polls() - p0
	fixedRate := int64(stall / base)
	if stalled >= fixedRate/2 {
		t.Fatalf("stalled follower polled %d times in %v (fixed rate would be ~%d) — backoff is not engaging", stalled, stall, fixedRate)
	}
	if stalled == 0 {
		t.Fatal("stalled follower stopped polling entirely")
	}

	// Wake phase: a new record is absorbed within a few capped
	// intervals — the backoff bounds staleness, it does not park the
	// follower forever.
	if err := effect(6); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for absorbed.Load() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up after the stall (absorbed %d)", absorbed.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailoverSQLReplicaOffload: the standby's read replica follows the
// primary's database through the WAL's SQL-effect stream — reporting
// queries read the replica, writes there are refused — and converges to
// the primary byte-for-byte; after takeover it opens for writes.
func TestFailoverSQLReplicaOffload(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	env := NewEnvironment(w)
	dir := t.TempDir()
	clock := newFailoverClock()
	pri, err := env.StartPrimary(dir, "primary-a", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pri.Lease.SetClock(clock.Now)

	ws := NewWarmStandby(dir, time.Second)
	ws.Lease.SetClock(clock.Now)
	if err := ws.AttachSQLReplica(env, "replica"); err != nil {
		t.Fatal(err)
	}

	if _, err := env.RunParallel(StackBIS, ParallelConfig{Instances: 3, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := ws.SQL.Complete(ws.Standby); err != nil {
		t.Fatalf("stream completeness: %v", err)
	}
	if pd, rd := env.DB.Dump(), ws.SQL.DB().Dump(); pd != rd {
		t.Fatalf("replica diverged:\nprimary:\n%s\nreplica:\n%s", pd, rd)
	}

	// Reporting offload: reads serve, writes are refused.
	res, err := ws.SQL.DB().Exec("SELECT COUNT(*) FROM OrderConfirmations")
	if err != nil {
		t.Fatalf("replica read: %v", err)
	}
	if n, _ := res.Rows[0][0].AsInt(); int(n) != 3*env.ApprovedItemTypes() {
		t.Fatalf("replica sees %d confirmations, want %d", n, 3*env.ApprovedItemTypes())
	}
	if _, err := ws.SQL.DB().Exec("DELETE FROM OrderConfirmations"); err == nil {
		t.Fatal("replica accepted a direct write before takeover")
	}

	// Primary dies; takeover opens the replica for writes.
	pri.Pause()
	clock.Advance(5 * time.Second)
	if _, _, _, err := ws.Takeover(env, "standby-b", Stack{}); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if _, err := ws.SQL.DB().Exec("DELETE FROM OrderConfirmations"); err != nil {
		t.Fatalf("replica write after takeover: %v", err)
	}
}
