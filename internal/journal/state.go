package journal

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// State is the materialized view of a journal: what the recovery
// manager needs to resume work after a crash, and nothing else — every
// field is folded on each append and cloned and serialized into each
// checkpoint, so a field no reader consumes is pure cost. It is rebuilt
// by folding records in order (see Apply); records that carry no
// recovery state (deploy, activity-start, compensation, and kinds this
// reader does not know, such as older journals' variable-write) fold
// to nothing.
type State struct {
	// NextID is one past the highest instance ID ever allocated, so
	// recovered engines keep IDs unique across restarts.
	NextID int64 `json:"next_id,omitempty"`
	// Instances maps instance ID to its journal, for every instance
	// that has been created and not yet completed (in-flight).
	Instances map[int64]*InstanceJournal `json:"instances,omitempty"`
	// Completed counts the instances that ran to completion (or
	// faulted terminally); they need no recovery.
	Completed Completed `json:"completed,omitempty"`
	// DeadLetters is the persisted dead-letter log, in order.
	// Requeued entries are removed.
	DeadLetters []DeadLetterRecord `json:"dead_letters,omitempty"`
}

// Completed is a count shaped as a slice of nothing: len is the number
// of finished instances, and it occupies no memory and one number in a
// checkpoint however many instances have run (a list of their ids made
// every checkpoint grow with the journal's whole history). It keeps the
// slice shape because bench/ reads len(rec.State().Completed).
type Completed []struct{}

func (c Completed) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, int64(len(c)), 10), nil
}

// UnmarshalJSON reads the count.
func (c *Completed) UnmarshalJSON(b []byte) error {
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("journal: completed count %d", n)
	}
	*c = make(Completed, n)
	return nil
}

// InstanceJournal is the durable state of one instance.
type InstanceJournal struct {
	ID      int64             `json:"id"`
	Process string            `json:"process"`
	Mode    string            `json:"mode,omitempty"` // product transaction mode label
	Input   map[string]string `json:"input,omitempty"`
	// Memos holds committed activity results keyed by activity
	// name, each a FIFO queue in execution order. On replay the
	// recovered instance consumes them front-to-back, so repeated
	// executions of the same activity (loops) line up without
	// needing stable occurrence numbering across retries.
	Memos map[string][]Memo `json:"memos,omitempty"`
	// Pending holds SQL memos recorded while a product-layer
	// transaction was open. They are promoted into Memos when the
	// COMMIT is journaled, dropped on ROLLBACK, and implicitly
	// dropped if the journal ends with the transaction still open
	// (the database rolled the work back when the connection died,
	// so the activities must re-run).
	Pending map[string][]Memo `json:"pending,omitempty"`
	// OpenTxns counts journaled txn-begin records without a
	// matching commit/rollback.
	OpenTxns int `json:"open_txns,omitempty"`
}

// Memo is one memoized activity result.
type Memo struct {
	Occurrence int               `json:"n"`
	Kind       string            `json:"e,omitempty"`
	Data       map[string]string `json:"d,omitempty"`
}

// DeadLetterRecord is the journaled form of a resilience dead letter.
type DeadLetterRecord struct {
	Seq      int64  `json:"seq"`
	Time     string `json:"time,omitempty"`
	Activity string `json:"activity"`
	Target   string `json:"target,omitempty"`
	Key      string `json:"key"`
	Attempts int    `json:"attempts,omitempty"`
	Reason   string `json:"reason,omitempty"`
	LastErr  string `json:"last_err,omitempty"`
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Instances: map[int64]*InstanceJournal{}}
}

func (s *State) instance(id int64) *InstanceJournal {
	ij, ok := s.Instances[id]
	if !ok {
		ij = &InstanceJournal{ID: id}
		s.Instances[id] = ij
	}
	return ij
}

// Apply folds one record into the state — the incremental form of
// Replay, and what keeps a warm standby driving it from a Tailer
// byte-equivalent to a fresh Replay of the whole journal. Unknown kinds
// are ignored so newer (and older) writers do not break this reader.
func (s *State) Apply(r *Record) {
	switch r.Kind {
	case KindInstanceCreated:
		ij := s.instance(r.Instance)
		ij.Process = r.Process
		ij.Input = copyMap(r.Data)
		if r.EffectKind != "" {
			ij.Mode = r.EffectKind
		}
		if r.Instance >= s.NextID {
			s.NextID = r.Instance + 1
		}
	case KindActivityComplete:
		ij := s.instance(r.Instance)
		// Kept, not copied: its producer (an effect, the decoder) built the
		// map for this record, and readers outside get clones.
		m := Memo{Occurrence: r.Occurrence, Kind: r.EffectKind, Data: r.Data}
		if r.EffectKind == EffectSQL && ij.OpenTxns > 0 {
			if ij.Pending == nil {
				ij.Pending = map[string][]Memo{}
			}
			ij.Pending[r.Activity] = append(ij.Pending[r.Activity], m)
		} else {
			if ij.Memos == nil {
				ij.Memos = map[string][]Memo{}
			}
			ij.Memos[r.Activity] = append(ij.Memos[r.Activity], m)
		}
	case KindTxnBegin:
		s.instance(r.Instance).OpenTxns++
	case KindTxnCommit:
		ij := s.instance(r.Instance)
		if ij.OpenTxns > 0 {
			ij.OpenTxns--
		}
		// The transaction's SQL work is durable now: promote every
		// pending memo, preserving per-activity FIFO order.
		for act, memos := range ij.Pending {
			if ij.Memos == nil {
				ij.Memos = map[string][]Memo{}
			}
			ij.Memos[act] = append(ij.Memos[act], memos...)
		}
		ij.Pending = nil
	case KindTxnRollback:
		ij := s.instance(r.Instance)
		if ij.OpenTxns > 0 {
			ij.OpenTxns--
		}
		// Rolled back: the statements never happened as far as the
		// database is concerned, so they must re-run on replay.
		ij.Pending = nil
	case KindDeadLetter:
		s.DeadLetters = append(s.DeadLetters, deadLetterFromData(r.Data))
	case KindDeadLetterRequeue:
		key := r.Data["key"]
		out := s.DeadLetters[:0]
		for _, dl := range s.DeadLetters {
			if dl.Key != key {
				out = append(out, dl)
			}
		}
		s.DeadLetters = out
	case KindInstanceComplete:
		delete(s.Instances, r.Instance)
		s.Completed = append(s.Completed, struct{}{})
	case KindCheckpoint:
		if r.Checkpoint != nil {
			*s = *r.Checkpoint.Clone()
		}
	}
}

// Replay folds a sequence of scanned records into a fresh state.
func Replay(records []Record) *State {
	s := NewState()
	for i := range records {
		s.Apply(&records[i])
	}
	return s
}

// InFlight returns the journals of instances that were created but
// never completed -- the set the recovery manager must resume. An
// instance whose journal ends with an open transaction has its
// pending memos dropped here (the database rolled that work back when
// the crash killed the connection), matching PR 1's unit-of-work
// recovery: the whole short-running / atomic sequence re-runs.
func (s *State) InFlight() []*InstanceJournal {
	out := make([]*InstanceJournal, 0, len(s.Instances))
	for _, ij := range s.Instances {
		c := ij.Clone()
		if c.OpenTxns > 0 {
			c.Pending = nil
			c.OpenTxns = 0
		}
		out = append(out, c)
	}
	return out
}

// Clone deep-copies the state (used for checkpointing so the snapshot
// is decoupled from subsequent mutation).
func (s *State) Clone() *State {
	c := &State{
		NextID:      s.NextID,
		Instances:   make(map[int64]*InstanceJournal, len(s.Instances)),
		Completed:   s.Completed,
		DeadLetters: append([]DeadLetterRecord(nil), s.DeadLetters...),
	}
	for id, ij := range s.Instances {
		c.Instances[id] = ij.Clone()
	}
	return c
}

// Clone deep-copies an instance journal.
func (ij *InstanceJournal) Clone() *InstanceJournal {
	c := &InstanceJournal{
		ID:       ij.ID,
		Process:  ij.Process,
		Mode:     ij.Mode,
		Input:    copyMap(ij.Input),
		OpenTxns: ij.OpenTxns,
	}
	c.Memos = cloneMemos(ij.Memos)
	c.Pending = cloneMemos(ij.Pending)
	return c
}

// MemoCount returns the total number of committed memos (test/audit
// helper).
func (ij *InstanceJournal) MemoCount() int {
	n := 0
	for _, ms := range ij.Memos {
		n += len(ms)
	}
	return n
}

func cloneMemos(in map[string][]Memo) map[string][]Memo {
	if in == nil {
		return nil
	}
	out := make(map[string][]Memo, len(in))
	for k, ms := range in {
		cp := make([]Memo, len(ms))
		for i, m := range ms {
			cp[i] = Memo{Occurrence: m.Occurrence, Kind: m.Kind, Data: copyMap(m.Data)}
		}
		out[k] = cp
	}
	return out
}

func copyMap(in map[string]string) map[string]string {
	if in == nil {
		return nil
	}
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func deadLetterFromData(d map[string]string) DeadLetterRecord {
	rec := DeadLetterRecord{
		Activity: d["activity"],
		Target:   d["target"],
		Key:      d["key"],
		Reason:   d["reason"],
		LastErr:  d["last_err"],
		Time:     d["time"],
	}
	rec.Seq, _ = strconv.ParseInt(d["seq"], 10, 64) // absent or malformed: 0
	rec.Attempts, _ = strconv.Atoi(d["attempts"])
	return rec
}
