package wfsql

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wfsql/internal/journal"
	"wfsql/internal/replica"
)

// This file is the warm-standby failover facade. A Primary is an
// environment whose journal recorder is lease-fenced and whose database
// change stream rides the WAL; a WarmStandby tails that WAL from
// another "host" (the same machine here — the shared directory models
// the replicated log transport), replaying lifecycle records into a
// hot materialized state and SQL effects into a read replica. On
// primary death the standby performs the lease-fenced takeover and a
// rebuilt environment resumes the in-flight instances with the
// crash-recovery guarantee of journal.Effects.Run (exactly-once from
// each memo onward, one repeat of an effect caught between running and
// its memo), now with a warm follower instead of a cold restart.

// Primary bundles a running environment with its lease-fenced journal.
type Primary struct {
	Env   *Environment
	Rec   *journal.Recorder
	Lease *replica.Lease
	State replica.LeaseState

	stopHeartbeat func()
}

// StartPrimary turns env into a lease-fenced primary: it opens the
// journal in dir, acquires the fencing lease as holder (ttl <= 0 uses
// replica.DefaultTTL), installs the append guard, attaches the journal
// to both workflow hosts, and wires the database's change stream into
// the WAL so SQL state replicates over the same channel as workflow
// lifecycle. The caller keeps the lease alive with Heartbeat (or
// manual Lease.Renew with an injected clock in tests).
func (env *Environment) StartPrimary(dir, holder string, ttl time.Duration) (*Primary, error) {
	rec, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	lease := replica.OpenLease(dir, ttl)
	st, err := replica.AttachPrimary(rec, lease, holder)
	if err != nil {
		rec.Close()
		return nil, err
	}
	env.AttachJournal(rec)
	replica.CaptureSQL(env.DB, rec)
	return &Primary{Env: env, Rec: rec, Lease: lease, State: st}, nil
}

// Heartbeat starts background lease renewal at the given interval
// (choose well under the TTL). Idempotent per Primary; Pause stops it.
func (p *Primary) Heartbeat(interval time.Duration) {
	if p.stopHeartbeat != nil {
		return
	}
	p.stopHeartbeat = p.Lease.StartHeartbeat(p.State.Holder, p.State.Epoch, interval, nil)
}

// Pause stops lease renewal without closing anything — the facade's
// model of a stalled or dying primary process. Once the TTL lapses the
// standby may take over, and this primary's own guard self-fences.
func (p *Primary) Pause() {
	if p.stopHeartbeat != nil {
		p.stopHeartbeat()
		p.stopHeartbeat = nil
	}
}

// Close stops the heartbeat, detaches SQL capture, and closes the
// recorder (clean shutdown; the lease simply expires).
func (p *Primary) Close() error {
	p.Pause()
	replica.CaptureSQL(p.Env.DB, nil)
	return p.Rec.Close()
}

// WarmStandby follows a primary's journal directory, ready to take
// over. It wraps the replica-layer standby with the facade-level
// takeover sequence (promote, rebuild hosts, recover in-flight work).
type WarmStandby struct {
	Standby *replica.Standby
	Lease   *replica.Lease
	SQL     *replica.SQLReplica

	// HeartbeatEvery, when non-zero, makes Takeover start background
	// lease renewal at this interval immediately after promotion —
	// before the recovery closure runs, which can take longer than the
	// TTL. Deterministic tests leave it zero and drive the clock.
	HeartbeatEvery time.Duration

	// OnFollowError, when non-nil, is invoked once with the CatchUp
	// error that terminated a Follow loop (mirroring StartHeartbeat's
	// onLost). Set it before calling Follow.
	OnFollowError func(error)

	stopHB func()
	polls  int64 // atomic: CatchUp polls executed by Follow loops

	mu      sync.Mutex
	lastErr error
}

// NewWarmStandby builds a standby on the primary's journal directory.
// ttl must match the primary's lease TTL (they share the lease file, so
// in practice: same configuration).
func NewWarmStandby(dir string, ttl time.Duration) *WarmStandby {
	lease := replica.OpenLease(dir, ttl)
	return &WarmStandby{Standby: replica.NewStandby(dir, lease), Lease: lease}
}

// AttachSQLReplica bootstraps a read replica of the primary's database
// from a consistent dump and subscribes it to the tailed SQL-effect
// stream: every CatchUp advances it. Reporting sessions read
// ws.SQL.DB(); direct writes there are refused until takeover.
func (ws *WarmStandby) AttachSQLReplica(primary *Environment, name string) error {
	rep, err := replica.BootstrapSQLReplica(primary.DB, name)
	if err != nil {
		return err
	}
	ws.SQL = rep
	ws.Standby.OnSQLEffect(rep.ApplyEffect)
	return nil
}

// CatchUp drains the primary's WAL tail (lifecycle fold + SQL replica
// apply), returning records absorbed.
func (ws *WarmStandby) CatchUp() (int, error) { return ws.Standby.CatchUp() }

// followBackoffCap bounds Follow's idle backoff at this multiple of the
// base interval: deep enough to stop a parked standby from hammering a
// quiet WAL, shallow enough that the first poll after a stall is never
// more than ~8 intervals late.
const followBackoffCap = 8

// Follow polls CatchUp on a background goroutine until the returned
// stop function is called or a poll fails. The poll cadence adapts: a
// poll that absorbs records is followed after the base interval, while
// idle polls — a standby parked at the tip (or a torn tail) of a quiet
// primary — back off exponentially up to followBackoffCap× the base,
// resetting to the base the moment progress resumes. A poll error ends
// the loop — a standby cannot keep following a stream it can no longer
// read — but never silently: the error is retained for LastError and
// handed to OnFollowError, so the operator learns the standby went
// stale instead of discovering it at takeover time. stop blocks until
// the goroutine has exited, so after it returns the caller may use
// CatchUp directly — the tailer is single-goroutine.
func (ws *WarmStandby) Follow(interval time.Duration) (stop func()) {
	ws.mu.Lock()
	ws.lastErr = nil
	ws.mu.Unlock()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		wait := interval
		t := time.NewTimer(wait)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				n, err := ws.CatchUp()
				atomic.AddInt64(&ws.polls, 1)
				if err != nil {
					ws.mu.Lock()
					ws.lastErr = err
					ws.mu.Unlock()
					if ws.OnFollowError != nil {
						ws.OnFollowError(err)
					}
					return
				}
				if n > 0 {
					wait = interval
				} else if wait < followBackoffCap*interval {
					wait *= 2
					if wait > followBackoffCap*interval {
						wait = followBackoffCap * interval
					}
				}
				t.Reset(wait)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Polls returns the number of CatchUp polls Follow loops have executed
// over this standby's lifetime — the observable the backoff test (and a
// curious operator) reads to verify an idle follower really slows down.
func (ws *WarmStandby) Polls() int64 { return atomic.LoadInt64(&ws.polls) }

// LastError returns the error that terminated the most recent Follow
// loop, nil while it is healthy (or was stopped cleanly). It is the
// poll-loop analogue of a heartbeat's onLost signal.
func (ws *WarmStandby) LastError() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.lastErr
}

// Heartbeat starts background renewal of the lease this standby holds
// after a successful Takeover, at the given interval (choose well under
// the TTL — the promoted recorder self-fences once its lease expires,
// exactly like the old primary's did). Prefer setting HeartbeatEvery
// before Takeover, which closes the renewal gap across the recovery
// closure too.
func (ws *WarmStandby) Heartbeat(interval time.Duration) (stop func(), err error) {
	st, err := ws.Lease.Read()
	if err != nil {
		return nil, err
	}
	return ws.Lease.StartHeartbeat(st.Holder, st.Epoch, interval, nil), nil
}

// StopHeartbeat stops the renewal loop Takeover started via
// HeartbeatEvery (no-op when none is running). The lease then simply
// expires, as on any primary death.
func (ws *WarmStandby) StopHeartbeat() {
	if ws.stopHB != nil {
		ws.stopHB()
		ws.stopHB = nil
	}
}

// Takeover is the full facade-level failover: lease-fenced promotion
// (refused with replica.ErrLeaseHeld while the primary's heartbeat is
// live), host rebuild via Environment.Rebuild, journal attachment, and
// — unless stack is the zero Stack — preparing the stack on the rebuilt
// host and resuming its in-flight instances, exactly as the
// crash-recovery tests do. If a SQL replica is attached, its orphaned
// transactions are aborted and it opens for writes (the promoted
// side's reporting store).
//
// On success the returned environment is the new primary's, with the
// promoted recorder attached to its hosts and the database change
// stream re-captured into it; the returned Prepared (nil without a
// stack) runs further instances there.
func (ws *WarmStandby) Takeover(env *Environment, holder string, stack Stack) (*Environment, *journal.Recorder, *Prepared, error) {
	rec, err := ws.Standby.Promote(holder)
	if err != nil {
		return nil, nil, nil, err
	}
	if ws.HeartbeatEvery > 0 {
		ws.stopHB = ws.Lease.StartHeartbeat(holder, rec.Epoch(), ws.HeartbeatEvery, nil)
	}
	host := env.Rebuild()
	host.AttachJournal(rec)
	if ws.SQL != nil {
		ws.SQL.Promote()
	}
	replica.CaptureSQL(host.DB, rec)
	if stack.Prepare == nil {
		return host, rec, nil, nil
	}
	p, err := stack.Prepare(host, ResilienceConfig{})
	if err == nil {
		err = p.Recover(rec)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wfsql: takeover recovery: %w", err)
	}
	return host, rec, p, nil
}
