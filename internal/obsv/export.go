package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Collector is an in-memory SpanSink for tests: it retains every finished
// span and offers tree-shaped queries over them.
type Collector struct {
	mu    sync.Mutex
	spans []*Span
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// ExportSpan implements SpanSink.
func (c *Collector) ExportSpan(s *Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// Spans returns a copy of all collected spans in end order.
func (c *Collector) Spans() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Len returns the number of collected spans.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// ByKind returns all spans of the given kind.
func (c *Collector) ByKind(k SpanKind) []*Span {
	var out []*Span
	for _, s := range c.Spans() {
		if s.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns all spans with the given name.
func (c *Collector) ByName(name string) []*Span {
	var out []*Span
	for _, s := range c.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Children returns the spans whose Parent is id.
func (c *Collector) Children(id uint64) []*Span {
	var out []*Span
	for _, s := range c.Spans() {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// Roots returns spans with no parent.
func (c *Collector) Roots() []*Span { return c.Children(0) }

// Reset discards all collected spans.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
}

// TreeString renders the collected spans as an indented tree (for test
// failure messages and the DESIGN doc example). Children are ordered by
// span id.
func (c *Collector) TreeString() string {
	spans := c.Spans()
	children := map[uint64][]*Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
	}
	var b []byte
	var walk func(id uint64, depth int)
	walk = func(id uint64, depth int) {
		for _, s := range children[id] {
			for i := 0; i < depth; i++ {
				b = append(b, ' ', ' ')
			}
			line := fmt.Sprintf("%s %s [%s]", s.Kind, s.Name, s.Outcome)
			if s.Stack != "" {
				line += " stack=" + s.Stack
			}
			b = append(b, line...)
			b = append(b, '\n')
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return string(b)
}

// JSONLWriter streams each finished span as one JSON line — the sink
// behind the -trace flag on cmd/wfrun and cmd/bpelrun. Writes are
// serialized; errors are retained and reported by Err.
type JSONLWriter struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	err error
}

// NewJSONLWriter returns a writer exporting JSONL to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: w, enc: json.NewEncoder(w)}
}

// ExportSpan implements SpanSink.
func (j *JSONLWriter) ExportSpan(s *Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	// Encode under the span mutex so concurrent Set calls cannot race
	// the serialization of Attrs.
	s.mu.Lock()
	err := j.enc.Encode(s)
	s.mu.Unlock()
	if err != nil {
		j.err = err
	}
}

// Err returns the first write error, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ActivityLog prints one line per finished activity span — instance,
// activity, outcome, then the span's attributes in key order — the
// per-activity console output of cmd/wfrun and cmd/bpelrun.
type ActivityLog struct {
	mu sync.Mutex
	w  io.Writer
}

// NewActivityLog returns a sink printing activity lines to w.
func NewActivityLog(w io.Writer) *ActivityLog { return &ActivityLog{w: w} }

// ExportSpan implements SpanSink.
func (l *ActivityLog) ExportSpan(s *Span) {
	if s.Kind != KindActivity {
		return
	}
	s.mu.Lock()
	line := fmt.Sprintf("  [%d] %-30s %s", s.Instance, s.Name, s.Outcome)
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line += " " + k + "=" + s.Attrs[k]
	}
	s.mu.Unlock()
	l.mu.Lock()
	fmt.Fprintln(l.w, line)
	l.mu.Unlock()
}

// WriteMetricsJSON serializes a registry snapshot as indented JSON — the
// payload behind the -metrics flag and the bench fold.
func WriteMetricsJSON(w io.Writer, r *Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// OpenRunner wires the observability of a one-shot command-line runner:
// nil when it asks for no trace, no metrics and no activity log; else a
// bundle that prints the activity log to stdout (activityLog) and appends
// every finished span to tracePath as a JSON line. flush, once the run is
// over, reports a failed trace write, closes the trace and writes the
// metrics snapshot to metricsPath. A path is "-" for stdout, "" for none.
func OpenRunner(tracePath, metricsPath string, activityLog bool) (o *Observability, flush func() error, err error) {
	if tracePath == "" && metricsPath == "" && !activityLog {
		return nil, func() error { return nil }, nil
	}
	o = New()
	if activityLog {
		o.Tracer.AddSink(NewActivityLog(os.Stdout))
	}
	var trace *JSONLWriter
	closeTrace := func() error { return nil }
	if tracePath != "" {
		f, err := createSink(tracePath)
		if err != nil {
			return nil, nil, err
		}
		trace, closeTrace = NewJSONLWriter(f), f.Close
		o.Tracer.AddSink(trace)
	}
	return o, func() error {
		if trace != nil && trace.Err() != nil {
			return fmt.Errorf("trace: %w", trace.Err())
		}
		if err := closeTrace(); err != nil || metricsPath == "" {
			return err
		}
		f, err := createSink(metricsPath)
		if err != nil {
			return err
		}
		if err := WriteMetricsJSON(f, o.M()); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		return f.Close()
	}, nil
}

// createSink opens path for writing; "-" is stdout, which Close leaves open.
func createSink(path string) (io.WriteCloser, error) {
	if path == "-" {
		return struct {
			io.Writer
			io.Closer
		}{os.Stdout, io.NopCloser(nil)}, nil
	}
	return os.Create(path)
}
