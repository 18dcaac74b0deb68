package wfsql

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wfsql/internal/admit"
	"wfsql/internal/chaos"
	"wfsql/internal/journal"
	"wfsql/internal/shard"
)

// This file is the fleet chaos matrix: N shards each running the paper's
// example on an independent lease-fenced primary, one shard's primary
// killed mid-burst at every crash point on all three product stacks,
// and the fleet supervisor promoting that shard's warm standby while
// the router buffers the shard's submissions. Fleet-wide conservation
// (Completed + Failed + Shed == Submitted), per-shard SQL and invoke
// effects against the crash point's contract (expectRecovered: the
// victim repeats at most the one in-doubt effect, siblings nothing), no
// cross-shard instance duplication, and fencing of the zombie primary
// are all asserted per cell.

// fleetKeys generates instance keys until every shard is placed at
// least min instances and some shard (the victim) at least min+1,
// returning the keys, per-shard placement counts, and the victim.
func fleetKeys(t *testing.T, f *Fleet, shards, min int) (keys []string, placed []int, victim int) {
	t.Helper()
	placed = make([]int, shards)
	for j := 0; j < 256; j++ {
		key := fmt.Sprintf("order#%d", j)
		keys = append(keys, key)
		placed[f.Router.Place(key)]++
		lo, hi := placed[0], placed[0]
		for _, n := range placed[1:] {
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if len(keys) >= 4*shards && lo >= min && hi >= min+1 {
			break
		}
	}
	for i, n := range placed {
		if n < min {
			t.Fatalf("placement never gave shard %d >= %d instances: %v", i, min, placed)
		}
		if n > placed[victim] {
			victim = i
		}
	}
	return keys, placed, victim
}

// victimKeysAfter returns extra keys homed on the victim shard,
// starting the key sequence after the burst keys.
func victimKeysAfter(f *Fleet, victim, from, n int) []string {
	var out []string
	for j := from; len(out) < n && j < from+4096; j++ {
		key := fmt.Sprintf("order#%d", j)
		if f.Router.Place(key) == victim {
			out = append(out, key)
		}
	}
	return out
}

// TestFleetChaosMatrix kills 1-of-3 shard primaries mid-burst — each
// product stack, each crash point, once on an invoke and once on a SQL
// insert — and proves the fleet converges: the victim's standby is
// promoted by the health state machine, submissions buffered across the
// window complete on the home shard, every shard's confirmations equal
// exactly its placements (no duplication; the victim alone repeats what
// its crash point's contract allows), and the zombie primary stays fenced
// with the latch surfaced as a shard-level event.
func TestFleetChaosMatrix(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	const shards = 3
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
				t.Run(stack.Name+"/"+cp.name+"/"+target.label, func(t *testing.T) {
					f, err := StartFleet(FleetConfig{
						Shards:       shards,
						Workers:      1, // one worker per shard: the victim's crash is deterministic
						QueueBound:   256,
						TTL:          time.Second,
						FailoverWait: 30 * time.Second,
						Workload:     w,
						Dir:          t.TempDir(),
						Stack:        stack,
					})
					if err != nil {
						t.Fatalf("start fleet: %v", err)
					}
					defer f.Close()

					// Per-shard manual clocks: only the victim's time
					// advances, so healthy shards' leases never expire.
					clocks := make([]*failoverClock, shards)
					for i := range clocks {
						clocks[i] = newFailoverClock()
						f.SetShardClock(i, clocks[i].Now)
					}

					keys, placed, victim := fleetKeys(t, f, shards, 2)
					inserts := make([]*chaos.SQLFaultPlan, shards)
					for i := range inserts {
						inserts[i] = &chaos.SQLFaultPlan{Kinds: []string{"INSERT"}}
						chaos.InstallSQL(f.ShardEnv(i).DB, inserts[i])
					}

					// Kill the victim mid-burst: the crash fires during
					// its second instance's loop.
					plan := cp.install(t, f.ShardPrimary(victim).Rec, target.activity, items+2)

					ctx := context.Background()
					for _, key := range keys {
						if err := f.Submit(ctx, key); err != nil {
							t.Fatalf("submit %s: %v", key, err)
						}
					}

					// Wait for the victim's process death to be recorded.
					deadline := time.Now().Add(20 * time.Second)
					for !(plan.Fired() && f.ShardDead(victim)) {
						if time.Now().After(deadline) {
							t.Fatalf("victim shard %d never died (fired=%v dead=%v)", victim, plan.Fired(), f.ShardDead(victim))
						}
						time.Sleep(time.Millisecond)
					}

					// Submissions for the dead shard keep flowing: they
					// queue behind the failover and must complete on the
					// home shard, not error.
					late := victimKeysAfter(f, victim, len(keys), 2)
					if len(late) != 2 {
						t.Fatalf("found %d late victim keys, want 2", len(late))
					}
					for _, key := range late {
						if err := f.Submit(ctx, key); err != nil {
							t.Fatalf("late submit %s: %v", key, err)
						}
					}
					placed[victim] += len(late)

					// The victim's TTL lapses; its own guard self-fences
					// even before the supervisor reacts.
					clocks[victim].Advance(5 * time.Second)
					if err := f.ShardPrimary(victim).Rec.Deploy("zombie-before-takeover"); !journal.IsFenced(err) {
						t.Fatalf("dead primary append: err = %v, want ErrFenced", err)
					}

					// Drive the health state machine: first sweep turns
					// the victim Suspect, second starts the failover and
					// promotes the standby inline.
					f.Super.CheckOnce()
					if got := f.Health.State(victim); got != shard.Suspect {
						t.Fatalf("after first sweep: victim is %s, want Suspect", got)
					}
					f.Super.CheckOnce()
					if got := f.Health.State(victim); got != shard.ServingOnStandby {
						t.Fatalf("after second sweep: victim is %s, want ServingOnStandby", got)
					}
					if n := f.ShardTakeovers(victim); n != 1 {
						t.Fatalf("victim took over %d times, want 1", n)
					}

					rep := f.Drain()

					// Fleet-wide conservation.
					total := int64(len(keys) + len(late))
					if rep.Submitted != total {
						t.Fatalf("report says %d submitted, fleet saw %d", rep.Submitted, total)
					}
					if rep.Completed+rep.Failed+rep.Shed != rep.Submitted {
						t.Fatalf("conservation violated: completed %d + failed %d + shed %d != submitted %d",
							rep.Completed, rep.Failed, rep.Shed, rep.Submitted)
					}
					if rep.Shed != 0 {
						t.Fatalf("fleet shed %d instances with generous queues", rep.Shed)
					}
					if rep.Failed != 1 {
						t.Fatalf("fleet failed %d jobs, want exactly the crashed one", rep.Failed)
					}
					if rep.PerShard[victim].Failed != 1 {
						t.Fatalf("victim pool failed %d jobs, want 1", rep.PerShard[victim].Failed)
					}

					// Per-shard convergence: each shard holds exactly its
					// own placements' effects — the crashed instance and
					// the buffered late ones complete through the promoted
					// standby; nothing leaks onto a sibling shard.
					for i := 0; i < shards; i++ {
						repeats := 0
						if i == victim {
							repeats = cp.repeats
						}
						expectRecovered(t, f.ShardEnv(i), tgt, want, placed[i], inserts[i].Seen(), target.label, repeats)
						if n := int64(rep.Router.Placed[i]); n != int64(placed[i]) {
							t.Fatalf("router placed %d on shard %d, expected %d", n, i, placed[i])
						}
					}

					// Healthy shards never left Serving.
					for i := 0; i < shards; i++ {
						if i == victim {
							continue
						}
						if got := f.Health.State(i); got != shard.Serving {
							t.Fatalf("healthy shard %d ended %s", i, got)
						}
					}

					// The zombie stays fenced after the takeover (epoch
					// advance, not just expiry), the latch is surfaced as
					// a shard-level event, and the promoted recorder is
					// live with no residual in-flight work.
					pri := f.ShardPrimary(victim)
					if err := pri.Rec.Deploy("zombie-after-takeover"); !journal.IsFenced(err) {
						t.Fatalf("zombie append after takeover: err = %v, want ErrFenced", err)
					}
					if pri.Rec.FencedWrites() < 2 {
						t.Fatalf("FencedWrites = %d, want >= 2", pri.Rec.FencedWrites())
					}
					if n := f.Health.FencedCount(victim); n < 1 {
						t.Fatalf("no fencing latch surfaced as a shard event (count %d)", n)
					}
					rec := f.ShardRecorder(victim)
					if rec.Epoch() < 2 {
						t.Fatalf("promoted recorder epoch = %d, want >= 2", rec.Epoch())
					}
					if err := rec.Deploy("post-takeover"); err != nil {
						t.Fatalf("promoted recorder append: %v", err)
					}
					if n := len(rec.InFlight()); n != 0 {
						t.Fatalf("victim journal still holds %d in-flight instances", n)
					}
				})
			}
		}
	}
}

// TestFleetSelfDriving exercises the background path the benchmark
// uses: real heartbeats keep every lease fresh, real Follow loops keep
// the standbys warm, and the supervisor loop detects a mid-burst
// primary death and promotes without any test choreography. The
// failover here waits out a real TTL (the dead primary's last renewal
// is still live when the supervisor reacts), covering the
// ErrLeaseHeld retry in the takeover path.
func TestFleetSelfDriving(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	ttl := 200 * time.Millisecond
	f, err := StartFleet(FleetConfig{
		Shards:       2,
		Workers:      1,
		QueueBound:   64,
		TTL:          ttl,
		Heartbeat:    ttl / 5,
		CheckEvery:   ttl / 5,
		FailoverWait: 30 * time.Second,
		Workload:     w,
		Dir:          t.TempDir(),
		Stack:        StackBIS,
	})
	if err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	defer f.Close()

	want := baselineRows(t, w, StackBIS)
	items := len(want)
	keys, placed, victim := fleetKeys(t, f, 2, 2)
	plan := &chaos.CrashPlan{Point: journal.CrashBeforeJournal, Activity: "invoke", AtEffect: items + 2}
	chaos.Crash(f.ShardPrimary(victim).Rec, plan)

	ctx := context.Background()
	for _, key := range keys {
		if err := f.Submit(ctx, key); err != nil {
			t.Fatalf("submit %s: %v", key, err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for f.ShardTakeovers(victim) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never promoted the victim (state %s, fired %v)", f.Health.State(victim), plan.Fired())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Post-takeover submissions run on the promoted shard.
	late := victimKeysAfter(f, victim, len(keys), 2)
	for _, key := range late {
		if err := f.Submit(ctx, key); err != nil {
			t.Fatalf("late submit %s: %v", key, err)
		}
	}
	placed[victim] += len(late)

	rep := f.Drain()
	if rep.Completed+rep.Failed+rep.Shed != rep.Submitted {
		t.Fatalf("conservation violated: %+v", rep)
	}
	if rep.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", rep.Takeovers)
	}
	for i := 0; i < 2; i++ {
		wantRows := repeatRows(want, placed[i])
		if got := confirmationRows(t, f.ShardEnv(i)); !sameRows(got, wantRows) {
			t.Fatalf("shard %d confirmations diverge (placed %d):\n got %v\nwant %v", i, placed[i], got, wantRows)
		}
	}
	if got := f.Health.State(victim); got != shard.ServingOnStandby {
		t.Fatalf("victim ended %s, want ServingOnStandby", got)
	}
}

// TestFleetHotShardIsolation: per-shard admission front doors — a shard
// slowed to a crawl sheds its own overflow under a Shed policy while
// its sibling, fed through a separate queue, completes everything.
func TestFleetHotShardIsolation(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	const bound = 8
	f, err := StartFleet(FleetConfig{
		Shards:     2,
		Workers:    1,
		QueueBound: bound,
		Policy:     admit.Shed,
		TTL:        time.Second,
		Workload:   w,
		Dir:        t.TempDir(),
		Stack:      StackBIS,
	})
	if err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	defer f.Close()

	hot := f.Router.Place("order#0")
	cold := 1 - hot
	// 2×bound submissions for the hot shard guarantee overflow (at most
	// 1 running + bound queued are admitted); the cold shard gets fewer
	// keys than its queue is deep, so it can never shed regardless of
	// timing — that asymmetry is the isolation claim.
	hotKeys := victimKeysAfter(f, hot, 0, 2*bound)
	coldKeys := victimKeysAfter(f, cold, 0, bound-2)
	// Slow the hot shard's supplier bus so its queue actually backs up.
	f.ShardEnv(hot).Bus.SetLatency(15 * time.Millisecond)

	ctx := context.Background()
	for _, key := range hotKeys {
		if err := f.Submit(ctx, key); err != nil && admit.ShedReason(err) == "" {
			t.Fatalf("hot submit %s: %v", key, err)
		}
	}
	for _, key := range coldKeys {
		if err := f.Submit(ctx, key); err != nil {
			t.Fatalf("cold submit %s refused while sibling is hot: %v", key, err)
		}
	}

	rep := f.Drain()
	if rep.Completed+rep.Failed+rep.Shed != rep.Submitted {
		t.Fatalf("conservation violated: %+v", rep)
	}
	hotRep, coldRep := rep.PerShard[hot], rep.PerShard[cold]
	if hotRep.Shed == 0 {
		t.Fatalf("hot shard shed nothing across %d submissions: %+v", len(hotKeys), hotRep)
	}
	if coldRep.Shed != 0 || coldRep.Completed != int64(len(coldKeys)) {
		t.Fatalf("cold shard was affected by its hot sibling: %+v (submitted %d)", coldRep, len(coldKeys))
	}
}
