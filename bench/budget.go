package main

import (
	"sort"
	"time"

	"wfsql/internal/obsv"
)

// The per-layer budget is computed from outside the program: the span
// tree the program already emits (read through obsv.NewCollector), the
// journal's own histograms in the metrics registry, and the wall time the
// harness measures around each op.

// selfTimes returns, per span id, the span's self time in µs: its
// duration minus the part of that interval its child spans cover. It is
// computed as a partition of the timeline — every instant belongs to the
// running span that started last — so that self times add up to the wall
// time the spans cover even when siblings overlap (Flow branches) or a
// child outlives its parent, and no instant is counted twice.
func selfTimes(spans []*obsv.Span) map[uint64]float64 {
	type event struct {
		t   time.Time
		end bool
		s   *obsv.Span
	}
	events := make([]event, 0, 2*len(spans))
	for _, s := range spans {
		events = append(events, event{s.Start, false, s}, event{s.EndTime, true, s})
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if !a.t.Equal(b.t) {
			return a.t.Before(b.t)
		}
		if a.end != b.end {
			return !a.end // a span of zero length starts before it ends
		}
		return a.s.ID < b.s.ID
	})
	self := make(map[uint64]float64, len(spans))
	// running is ordered by start time because events arrive in time
	// order; its last element owns the current instant.
	var running []*obsv.Span
	var last time.Time
	for _, e := range events {
		if n := len(running); n > 0 {
			self[running[n-1].ID] += us(e.t.Sub(last))
		}
		last = e.t
		if !e.end {
			running = append(running, e.s)
			continue
		}
		for i := len(running) - 1; i >= 0; i-- {
			if running[i] == e.s {
				running = append(running[:i], running[i+1:]...)
				break
			}
		}
	}
	return self
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Layers of the budget; a layer is a module of the program.
const (
	layerEngine  = "engine"
	layerMSWF    = "mswf"
	layerSQLDB   = "sqldb"
	layerWSBus   = "wsbus"
	layerJournal = "journal"
)

// layerOf names the module whose code runs during a span's self time.
// Instance and activity spans on the BPEL stacks cover the engine, the
// bis/orasoa activity code and the still-dark xpath/xdm/rowset; on WF
// they cover mswf and dataset.
func layerOf(s *obsv.Span) string {
	switch s.Kind {
	case obsv.KindSQL:
		return layerSQLDB
	case obsv.KindBus:
		return layerWSBus
	case obsv.KindJournal:
		return layerJournal
	}
	if s.Stack == "WF" {
		return layerMSWF
	}
	return layerEngine
}

// stamp is a point on an op's timeline: when, and how many journal
// appends the recorder had counted by then.
type stamp struct {
	t       time.Time
	appends int64
}

// budget is the traced wall time of a set of ops split by layer, in µs.
// The rows and unattributed sum to op by construction.
type budget struct {
	layer        map[string]float64
	unattributed float64 // op wall time outside every span
	op           float64
	spans        int
}

// sliceBudget attributes the wall time of the ops in a traced slice.
// bounds holds, per workflow instance run, the stamps at its start and
// end. journalUS is the recorder's busy time over the slice (its append
// histogram); the recorder emits no spans of its own, so
// that time sits wherever the call came from and is moved to the journal
// row here: an instance's appends made inside its activity spans are
// deducted from that stack's self time, and the instance-complete append
// — made after the root span has ended — is the whole gap between the
// root span's end and the run's return. The one unsynced instance-created
// append per instance, made before the root span starts, stays in
// unattributed.
func sliceBudget(spans []*obsv.Span, bounds [][2]stamp, journalUS float64) budget {
	b := budget{layer: map[string]float64{}, spans: len(spans)}
	self := selfTimes(spans)
	var roots []*obsv.Span
	var covered float64 // wall time inside some span
	for _, s := range spans {
		b.layer[layerOf(s)] += self[s.ID]
		covered += self[s.ID]
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	var appends int64
	for _, seg := range bounds {
		b.op += us(seg[1].t.Sub(seg[0].t))
		appends += seg[1].appends - seg[0].appends
	}
	b.unattributed = b.op - covered
	if journalUS <= 0 || appends == 0 || len(roots) != len(bounds) {
		return b
	}
	// One root span per instance run, in the same order.
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	for k, seg := range bounds {
		share := journalUS * float64(seg[1].appends-seg[0].appends) / float64(appends)
		after := us(seg[1].t.Sub(roots[k].EndTime))
		inside := share - after
		if inside < 0 {
			inside = 0
		}
		b.layer[layerOf(roots[k])] -= inside
		b.layer[layerJournal] += inside + after
		b.unattributed -= after
	}
	return b
}

// add accumulates o scaled into reference-machine time.
func (b *budget) add(o budget, scale float64) {
	if b.layer == nil {
		b.layer = map[string]float64{}
	}
	for k, v := range o.layer {
		b.layer[k] += v * scale
	}
	b.unattributed += o.unattributed * scale
	b.op += o.op * scale
	b.spans += o.spans
}
