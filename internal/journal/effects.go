package journal

import (
	"fmt"
	"sync"

	"wfsql/internal/obsv"
	"wfsql/internal/resilience"
)

// Effects is one workflow instance's side of the effect-then-memo
// protocol: the per-activity occurrence counters that label journal
// records across loop iterations, and the queues of memoized effect
// results a resumed instance replays instead of re-executing. Both
// workflow hosts (engine.Instance, mswf.Context) embed one by value, so
// the ordering recovery depends on is written once, in Run. The zero
// value is ready to use.
type Effects struct {
	mu     sync.Mutex
	replay map[string][]Memo
	occs   map[string]int
}

// Load queues a recovered instance's memoized effect results for replay
// (FIFO per activity name, so loop iterations line up in execution
// order) and returns how many there are.
func (p *Effects) Load(ij *InstanceJournal) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.replay = cloneMemos(ij.Memos)
	return ij.MemoCount()
}

// next advances the activity's occurrence counter (1-based) and pops
// its next queued memo, if any remain from a Load.
func (p *Effects) next(activity string) (occ int, m Memo, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.occs == nil {
		p.occs = map[string]int{}
	}
	p.occs[activity]++
	occ = p.occs[activity]
	if q := p.replay[activity]; len(q) > 0 {
		m, ok = q[0], true
		p.replay[activity] = q[1:]
	}
	return occ, m, ok
}

// Outcome is what an effect publishes: the visible state an activity
// leaves behind (output variables, a bound result table, a DataSet).
// Save captures it into a fresh memo, which Run hands to the journal and
// drops (see Recorder.Append); Restore re-applies a journaled memo. A pair
// of funcs, not an interface: Run only calls them, so the closures and
// method values a call site passes stay on its stack.
type Outcome struct {
	Save    func() (map[string]string, error)
	Restore func(memo map[string]string) error
}

// Run routes one effectful activity (invoke, SQL) of instance id
// through the protocol and reports whether it was replayed.
//
// Replay: if a memo for this activity is queued, the effect is NOT
// executed; out.Restore re-applies the memoized result, so the activity
// completes with identical visible state and no repeated side effect.
//
// Live: the effect, then one journal append — the memo out.Save builds —
// bracketed by the three chaos crash points (see CrashPoint):
//
//	crash?(before-journal)
//	effect()
//	crash?(after-effect-before-journal)
//	journal activity-complete(out.Save())
//	crash?(after-effect)
//
// The effect is exactly-once from its memo onward; a crash between the
// two leaves that one effect in doubt and recovery repeats it
// (at-least-once inside the window, never a loss). With no journal
// attached (rec == nil) the effect runs bare: nobody would write a memo,
// so none is built.
func (p *Effects) Run(rec *Recorder, id int64, activity, effectKind string, effect func() error, out Outcome) (replayed bool, err error) {
	occ, m, ok := p.next(activity)
	if ok {
		if err := out.Restore(m.Data); err != nil {
			return true, fmt.Errorf("%s: replay: %w", activity, err)
		}
		return true, nil
	}
	if rec == nil {
		return false, effect()
	}
	if ce := rec.ShouldCrash(id, activity, CrashBeforeJournal); ce != nil {
		return false, ce
	}
	if err := effect(); err != nil {
		return false, err
	}
	if ce := rec.ShouldCrash(id, activity, CrashAfterEffectBeforeJournal); ce != nil {
		return false, ce
	}
	memo, err := out.Save()
	if err != nil {
		return false, err
	}
	if err := rec.ActivityComplete(id, activity, occ, effectKind, memo); err != nil {
		return false, err
	}
	if ce := rec.ShouldCrash(id, activity, CrashAfterEffect); ce != nil {
		return false, ce
	}
	return false, nil
}

// BindHost prepares the recorder for a workflow host it is being
// attached to: it joins the host's observability bundle (when one is
// attached), seeds the host's dead-letter log from the journal's
// persisted records, and installs persistence hooks so future dead
// letters and requeues are journaled.
func (r *Recorder) BindHost(obs *obsv.Observability, log *resilience.DeadLetterLog) {
	if obs != nil {
		r.SetObservability(obs)
	}
	if log == nil {
		return
	}
	var entries []resilience.DeadLetter
	for _, d := range r.DeadLetters() {
		entries = append(entries, resilience.DeadLetter{
			Seq:      int(d.Seq),
			Activity: d.Activity,
			Target:   d.Target,
			Key:      d.Key,
			Attempts: d.Attempts,
			Reason:   d.Reason,
			LastErr:  d.LastErr,
		})
	}
	log.Restore(entries)
	log.SetPersistence(
		func(dl resilience.DeadLetter) {
			_ = r.DeadLetter(0, DeadLetterRecord{
				Seq:      int64(dl.Seq),
				Time:     dl.Time.UTC().Format("2006-01-02T15:04:05.999999999Z"),
				Activity: dl.Activity,
				Target:   dl.Target,
				Key:      dl.Key,
				Attempts: dl.Attempts,
				Reason:   dl.Reason,
				LastErr:  dl.LastErr,
			})
		},
		func(key string) { _ = r.RequeueDeadLetter(key) },
	)
}
