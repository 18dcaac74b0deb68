package obsv

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64. Nil-safe.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// maxSamples caps the reservoir a histogram keeps for quantile
// estimation. All observations still count toward Count/Sum/Min/Max;
// beyond the cap the reservoir decimates deterministically (keep every
// other slot), which is adequate for the bench summaries.
const maxSamples = 4096

// Histogram records latency (or size) observations and summarizes them
// as count/sum/min/max plus estimated quantiles. Nil-safe.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	samples []float64
	stride  int64 // record every stride-th observation once decimating
	seen    int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.stride == 0 {
		h.stride = 1
	}
	h.seen++
	if h.seen%h.stride == 0 {
		h.samples = append(h.samples, v)
		if len(h.samples) >= maxSamples {
			// Decimate: keep every other sample, double the stride.
			kept := h.samples[:0]
			for i := 0; i < len(h.samples); i += 2 {
				kept = append(kept, h.samples[i])
			}
			h.samples = kept
			h.stride *= 2
		}
	}
}

// ObserveDuration records d in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// HistogramSummary is a point-in-time summary of a histogram. Values are
// in the unit observed (milliseconds for ObserveDuration).
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary computes the current summary.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSummary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	if len(h.samples) > 0 {
		sorted := make([]float64, len(h.samples))
		copy(sorted, h.samples)
		sort.Float64s(sorted)
		s.P50 = quantile(sorted, 0.50)
		s.P90 = quantile(sorted, 0.90)
		s.P99 = quantile(sorted, 0.99)
	}
	return s
}

// quantile returns the q-th quantile of sorted (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Registry is a named collection of counters and histograms. Metric
// names are dot-separated, optionally with .<label> suffixes chosen by
// the call site (e.g. "retry.attempts.OrderFromSupplier"). Lookup
// creates on first use. A nil *Registry is safe: it hands out nil
// counters/histograms whose methods no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	gauges     map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating if absent) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if absent) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time view of every metric in a registry, with
// deterministically ordered keys (sorted maps serialize sorted in Go's
// encoding/json).
type Snapshot struct {
	Counters   map[string]int64            `json:"counters"`
	Histograms map[string]HistogramSummary `json:"histograms"`
	Gauges     map[string]GaugeSummary     `json:"gauges,omitempty"`
}

// Snapshot captures all current metric values.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSummary{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Summary()
	}
	if len(gauges) > 0 {
		snap.Gauges = map[string]GaugeSummary{}
		for k, g := range gauges {
			snap.Gauges[k] = GaugeSummary{Value: g.Value(), High: g.High()}
		}
	}
	return snap
}
