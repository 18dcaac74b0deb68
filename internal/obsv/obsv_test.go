package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndCollector(t *testing.T) {
	col := NewCollector()
	tr := NewTracer(col)

	root := tr.Start(0, KindInstance, "Figure4")
	root.Stack = "BIS"
	act := tr.Start(root.SpanID(), KindActivity, "RetrieveOrder")
	sql := tr.Start(act.SpanID(), KindSQL, "SELECT")
	sql.Set("table", "Orders").End(OutcomeOK)
	act.End(OutcomeOK)
	root.End(OutcomeOK)

	if col.Len() != 3 {
		t.Fatalf("want 3 spans, got %d", col.Len())
	}
	roots := col.Roots()
	if len(roots) != 1 || roots[0].Name != "Figure4" {
		t.Fatalf("roots = %+v", roots)
	}
	kids := col.Children(roots[0].ID)
	if len(kids) != 1 || kids[0].Name != "RetrieveOrder" {
		t.Fatalf("children of root = %+v", kids)
	}
	grand := col.Children(kids[0].ID)
	if len(grand) != 1 || grand[0].Kind != KindSQL {
		t.Fatalf("grandchildren = %+v", grand)
	}
	if grand[0].Attrs["table"] != "Orders" {
		t.Fatalf("attrs = %v", grand[0].Attrs)
	}
	tree := col.TreeString()
	if !strings.Contains(tree, "instance Figure4 [ok] stack=BIS") {
		t.Fatalf("tree rendering:\n%s", tree)
	}
}

func TestSpanEndIdempotentAndNilSafety(t *testing.T) {
	col := NewCollector()
	tr := NewTracer(col)
	s := tr.Start(0, KindActivity, "a")
	s.End(OutcomeFault)
	s.End(OutcomeOK) // second End must not re-export or change outcome
	if col.Len() != 1 {
		t.Fatalf("want 1 export, got %d", col.Len())
	}
	if col.Spans()[0].Outcome != OutcomeFault {
		t.Fatalf("outcome overwritten: %s", col.Spans()[0].Outcome)
	}

	// Nil tracer and nil span must be inert everywhere.
	var nt *Tracer
	ns := nt.Start(0, KindSQL, "x")
	if ns != nil {
		t.Fatal("nil tracer should return nil span")
	}
	ns.Set("k", "v")
	ns.SetOutcome(OutcomeOK)
	ns.End(OutcomeOK)
	if ns.SpanID() != 0 || ns.Duration() != 0 {
		t.Fatal("nil span methods should no-op")
	}
	nt.SetAmbient(7)
	if nt.Ambient() != 0 {
		t.Fatal("nil tracer ambient should be 0")
	}
}

func TestTracerAmbient(t *testing.T) {
	tr := NewTracer()
	if tr.Ambient() != 0 {
		t.Fatal("fresh tracer ambient must be 0")
	}
	tr.SetAmbient(42)
	if tr.Ambient() != 42 {
		t.Fatalf("ambient = %d", tr.Ambient())
	}
}

func TestCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("retry.attempts").Add(3)
	r.Counter("retry.attempts").Inc()
	if got := r.Counter("retry.attempts").Value(); got != 4 {
		t.Fatalf("counter = %d", got)
	}

	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean < 50 || s.Mean > 51 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.P50 < 45 || s.P50 > 55 || s.P99 < 95 {
		t.Fatalf("quantiles = p50 %v p99 %v", s.P50, s.P99)
	}

	// Nil registry and nil metrics are inert.
	var nr *Registry
	nr.Counter("x").Inc()
	nr.Histogram("y").Observe(1)
	if nr.Counter("x").Value() != 0 || nr.Histogram("y").Count() != 0 {
		t.Fatal("nil registry should no-op")
	}
	snap := nr.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestHistogramDecimationKeepsSummaryExact(t *testing.T) {
	h := &Histogram{}
	n := maxSamples*4 + 17
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != int64(n) {
		t.Fatalf("count = %d want %d", s.Count, n)
	}
	if s.Min != 0 || s.Max != float64(n-1) {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// Quantiles are estimates after decimation but should stay in band.
	if s.P50 < float64(n)*0.4 || s.P50 > float64(n)*0.6 {
		t.Fatalf("p50 = %v out of band for n=%d", s.P50, n)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 8000 {
		t.Fatalf("counter = %d", r.Counter("c").Value())
	}
	if r.Histogram("h").Count() != 8000 {
		t.Fatalf("hist count = %d", r.Histogram("h").Count())
	}
}

func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	tr := NewTracer(jw)

	root := tr.Start(0, KindInstance, "Figure6")
	root.Stack = "WF"
	child := tr.Start(root.SpanID(), KindSQL, "UPDATE")
	child.End(OutcomeOK)
	root.End(OutcomeOK)
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	// Child ends first (JSONL is end-ordered).
	if lines[0]["kind"] != "sql" || lines[1]["kind"] != "instance" {
		t.Fatalf("order: %v then %v", lines[0]["kind"], lines[1]["kind"])
	}
	if lines[1]["stack"] != "WF" {
		t.Fatalf("stack label missing: %v", lines[1])
	}
	if lines[0]["parent"] != lines[1]["id"] {
		t.Fatalf("parent linkage broken: %v vs %v", lines[0]["parent"], lines[1]["id"])
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("journal.appends").Add(12)
	r.Histogram("sqldb.exec").ObserveDuration(3 * time.Millisecond)
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["journal.appends"] != 12 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Histograms["sqldb.exec"].Count != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
}
