package shard

import (
	"sync"
	"time"
)

// State is a shard's position in the health state machine:
//
//	Serving --missed heartbeats--> Suspect --more misses--> FailingOver
//	   ^                             |                          |
//	   +------beat received----------+              takeover via standby
//	                                                            |
//	                                                            v
//	                                    Down <--error-- ServingOnStandby
//
// ServingOnStandby is Serving in every operational sense (the router
// places work there); the distinct state records that the shard is on
// its promoted standby with the original primary fenced behind it.
type State int

const (
	Serving State = iota
	Suspect
	FailingOver
	ServingOnStandby
	Down
)

func (s State) String() string {
	switch s {
	case Serving:
		return "Serving"
	case Suspect:
		return "Suspect"
	case FailingOver:
		return "FailingOver"
	case ServingOnStandby:
		return "ServingOnStandby"
	case Down:
		return "Down"
	}
	return "Unknown"
}

// Routable reports whether the router may hand new work to a shard in
// this state. Suspect stays routable — a missed probe is a hint, not a
// verdict, and shedding on the first miss would brown out healthy
// shards during GC pauses.
func (s State) Routable() bool {
	return s == Serving || s == Suspect || s == ServingOnStandby
}

// Event is one recorded health transition (or a fencing latch, which
// keeps From == To). Events are the shard-level surface for operator
// alerting: every zombie append refused by the journal's epoch guard
// shows up here, not just in a counter.
type Event struct {
	Shard    int
	From, To State
	Reason   string
	Time     time.Time
}

// Health tracks per-shard state, consecutive probe misses, and fencing
// latches. All transitions append to an event log and invoke the
// optional onEvent callback (outside the lock).
type Health struct {
	onEvent      func(Event)
	suspectAfter int

	mu     sync.Mutex
	states []State
	misses []int
	fenced []int64
	events []Event
}

// NewHealth tracks n shards, all initially Serving. A shard turns
// Suspect after suspectAfter consecutive missed probes (values < 1 mean
// 1). onEvent, when non-nil, receives every transition and fence latch.
func NewHealth(n, suspectAfter int, onEvent func(Event)) *Health {
	if suspectAfter < 1 {
		suspectAfter = 1
	}
	return &Health{
		onEvent:      onEvent,
		suspectAfter: suspectAfter,
		states:       make([]State, n),
		misses:       make([]int, n),
		fenced:       make([]int64, n),
	}
}

// State returns shard i's current state.
func (h *Health) State(i int) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.states[i]
}

// Beat records a successful probe: the miss counter resets and a
// Suspect shard returns to Serving.
func (h *Health) Beat(i int) {
	h.mu.Lock()
	h.misses[i] = 0
	var ev *Event
	if h.states[i] == Suspect {
		ev = h.transition(i, Serving, "heartbeat recovered")
	}
	h.mu.Unlock()
	h.emit(ev)
}

// Miss records a failed probe and returns the consecutive-miss count.
// A Serving shard turns Suspect once the count reaches the threshold.
func (h *Health) Miss(i int) int {
	h.mu.Lock()
	h.misses[i]++
	n := h.misses[i]
	var ev *Event
	if (h.states[i] == Serving || h.states[i] == ServingOnStandby) && n >= h.suspectAfter {
		ev = h.transition(i, Suspect, "missed heartbeats")
	}
	h.mu.Unlock()
	h.emit(ev)
	return n
}

// StartFailover moves a Suspect (or Serving — a probe can report an
// unambiguous death directly) shard to FailingOver and reports whether
// this call won the transition; a false return means a failover is
// already running or the shard is Down, and the caller must not start
// another takeover.
func (h *Health) StartFailover(i int) bool {
	h.mu.Lock()
	s := h.states[i]
	if s == FailingOver || s == Down {
		h.mu.Unlock()
		return false
	}
	ev := h.transition(i, FailingOver, "takeover started")
	h.mu.Unlock()
	h.emit(ev)
	return true
}

// Promoted completes a failover: the shard serves from its promoted
// standby and the miss counter resets.
func (h *Health) Promoted(i int) {
	h.mu.Lock()
	h.misses[i] = 0
	ev := h.transition(i, ServingOnStandby, "standby promoted")
	h.mu.Unlock()
	h.emit(ev)
}

// MarkDown records a terminal failure (failover error, second death
// with no standby left). Down shards are never routed to again.
func (h *Health) MarkDown(i int, reason string) {
	h.mu.Lock()
	ev := h.transition(i, Down, reason)
	h.mu.Unlock()
	h.emit(ev)
}

// Fenced latches one refused zombie append (journal.ErrFenced) as a
// shard-level event. The state does not change — fencing is evidence
// the protection worked, not a new failure.
func (h *Health) Fenced(i int) {
	h.mu.Lock()
	h.fenced[i]++
	s := h.states[i]
	ev := &Event{Shard: i, From: s, To: s, Reason: "zombie append fenced", Time: time.Now()}
	h.events = append(h.events, *ev)
	h.mu.Unlock()
	h.emit(ev)
}

// FencedCount returns the number of fence latches recorded for shard i.
func (h *Health) FencedCount(i int) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fenced[i]
}

// Events returns a copy of the transition log.
func (h *Health) Events() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.events...)
}

// transition records a state change under h.mu and returns the event
// for post-unlock emission.
func (h *Health) transition(i int, to State, reason string) *Event {
	ev := &Event{Shard: i, From: h.states[i], To: to, Reason: reason, Time: time.Now()}
	h.states[i] = to
	h.events = append(h.events, *ev)
	return ev
}

func (h *Health) emit(ev *Event) {
	if ev != nil && h.onEvent != nil {
		h.onEvent(*ev)
	}
}
