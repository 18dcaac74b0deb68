package main

import (
	"math"
	"testing"
	"time"

	"wfsql/internal/obsv"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSummarizeSliceScalesByTheKernel(t *testing.T) {
	lats := make([]float64, 100)
	for i := range lats {
		lats[i] = float64(100 - i) // 100..1 µs, unsorted
	}
	// The kernel took twice its reference time: the host is half speed,
	// so every time halves and throughput doubles.
	s := summarizeSlice(100, 5050, 2*CalibRefUS, lats)
	if !near(s.p50, 25) || !near(s.p90, 45) {
		t.Errorf("calibrated p50/p90 = %v/%v, want 25/45", s.p50, s.p90)
	}
	if !near(s.rawP50, 50) || !near(s.rawP99, 99) {
		t.Errorf("raw p50/p99 = %v/%v, want 50/99", s.rawP50, s.rawP99)
	}
	if want := 100 / (5050e-6 / 2); !near(s.opsPerS, want) {
		t.Errorf("calibrated ops/s = %v, want %v", s.opsPerS, want)
	}
	if want := 100 / 5050e-6; !near(s.rawOpsS, want) {
		t.Errorf("raw ops/s = %v, want %v", s.rawOpsS, want)
	}
}

// A host that slows down for a third of the run stretches slices and
// kernel calls alike; the median of the per-slice ratios must not move,
// while the median of the raw times does.
func TestMedianOfRatiosCancelsDrift(t *testing.T) {
	var slices []sliceStat
	for i := 0; i < 30; i++ {
		slow := 1.0
		if i >= 20 {
			slow = 1.4
		}
		lats := make([]float64, 10)
		for j := range lats {
			lats[j] = 100 * slow
		}
		slices = append(slices, summarizeSlice(10, 1000*slow, CalibRefUS*slow, lats))
	}
	// One slice hit by a stall the kernel did not see: an outlier the
	// median ignores.
	slices[3] = summarizeSlice(10, 5000, CalibRefUS, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 4100})
	if got := medianOf(slices, func(s sliceStat) float64 { return s.opsPerS }); !near(got, 10000) {
		t.Errorf("calibrated throughput = %v, want 10000", got)
	}
	if got := medianOf(slices, func(s sliceStat) float64 { return s.p50 }); !near(got, 100) {
		t.Errorf("calibrated p50 = %v, want 100", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// span builds a finished span from offsets in µs.
func span(id, parent uint64, kind obsv.SpanKind, stack string, from, to int) *obsv.Span {
	base := time.Unix(1000, 0)
	return &obsv.Span{ID: id, Parent: parent, Kind: kind, Stack: stack,
		Start: base.Add(time.Duration(from) * time.Microsecond), EndTime: base.Add(time.Duration(to) * time.Microsecond)}
}

func TestSelfTimesPartitionTheTimeline(t *testing.T) {
	spans := []*obsv.Span{
		span(1, 0, obsv.KindInstance, "BIS", 0, 100),
		span(2, 1, obsv.KindActivity, "BIS", 10, 50), // overlaps 3
		span(3, 1, obsv.KindActivity, "BIS", 30, 70),
		span(4, 1, obsv.KindActivity, "BIS", 40, 45),  // inside 2 and 3: adds nothing
		span(5, 1, obsv.KindActivity, "BIS", 90, 120), // sticks out of the parent
		span(6, 2, obsv.KindSQL, "", 20, 30),          // nested two deep
		span(7, 3, obsv.KindBus, "", 60, 70),
	}
	self := selfTimes(spans)
	// 0-10 root, 10-20 #2, 20-30 #6, 30-40 #3, 40-45 #4, 45-60 #3, 60-70 #7,
	// 70-90 root, 90-120 #5: a partition of the 120 µs the spans cover.
	want := map[uint64]float64{1: 30, 2: 10, 3: 25, 4: 5, 5: 30, 6: 10, 7: 10}
	for id, w := range want {
		if !near(self[id], w) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestBudgetRowsSumToTheOpTime(t *testing.T) {
	at := func(us int) time.Time { return time.Unix(1000, 0).Add(time.Duration(us) * time.Microsecond) }
	// Two instance runs: a BPEL one over [0,200] and a WF one over
	// [200,380], each with its root span strictly inside.
	spans := []*obsv.Span{
		span(1, 0, obsv.KindInstance, "BIS", 10, 150),
		span(2, 1, obsv.KindActivity, "BIS", 20, 100),
		span(3, 2, obsv.KindSQL, "", 30, 60),
		span(4, 2, obsv.KindBus, "", 50, 80), // overlaps the SQL span
		span(5, 0, obsv.KindInstance, "WF", 205, 350),
		span(6, 5, obsv.KindActivity, "WF", 210, 300),
		span(7, 6, obsv.KindSQL, "", 220, 260),
	}
	bounds := [][2]stamp{
		{{at(0), 0}, {at(200), 30}},
		{{at(200), 30}, {at(380), 40}},
	}
	check := func(b budget, wantOp float64) {
		t.Helper()
		sum := b.unattributed
		for _, v := range b.layer {
			sum += v
		}
		if !near(b.op, wantOp) || !near(sum, b.op) {
			t.Errorf("rows sum to %v, op %v, want both %v (%+v)", sum, b.op, wantOp, b)
		}
	}

	plain := sliceBudget(spans, bounds, 0)
	check(plain, 380)
	if !near(plain.unattributed, 380-140-145) {
		t.Errorf("unattributed = %v, want time outside the root spans", plain.unattributed)
	}
	if !near(plain.layer[layerSQLDB], 20+40) || !near(plain.layer[layerWSBus], 30) {
		t.Errorf("sqldb/wsbus = %v/%v, want 60/30", plain.layer[layerSQLDB], plain.layer[layerWSBus])
	}

	// 80 µs of journal time, split 3:1 by appends. The first run's 60 µs
	// exceed its 50 µs post-root gap by 10 (deducted from engine); the
	// second's 20 µs fit inside its 30 µs gap.
	durable := sliceBudget(spans, bounds, 80)
	check(durable, 380)
	if !near(durable.layer[layerJournal], 60+30) {
		t.Errorf("journal = %v, want 90", durable.layer[layerJournal])
	}
	if !near(plain.layer[layerEngine]-durable.layer[layerEngine], 10) || !near(plain.layer[layerMSWF], durable.layer[layerMSWF]) {
		t.Errorf("journal time inside spans was not deducted from the right stack: %+v vs %+v", plain.layer, durable.layer)
	}

	var acc budget
	acc.add(durable, 0.5)
	acc.add(durable, 0.5)
	check(acc, 380)
}
