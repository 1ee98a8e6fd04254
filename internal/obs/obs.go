// Package obs is the repository's observability substrate: a small,
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms), a Prometheus-text-format exposition
// handler, and a structured JSON-lines event sink.
//
// The package exists because the supervisor of internal/platform must run
// for hours against live volunteer hosts, and redundancy systems are tuned
// from latency and detection *distributions*, not means: operators need
// counters for assignment throughput and verification outcomes (the
// paper's detection quantity P_k made measurable), histograms for
// round-trip times, and a machine-readable event stream to replay what
// happened. Everything is standard library only, like the rest of the
// repository; metric mutation paths are lock-free (single atomic
// operations) so instrumentation stays off the supervisor's critical-path
// profile.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds —
// a latency-shaped exponential ladder from 1ms to 10s (matching the
// round-trip scales of a loopback platform through a congested WAN).
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// DoublingBuckets returns n histogram bucket upper bounds doubling from
// first: first, 2·first, 4·first, .... Every bucket has the same relative
// width, so one ladder resolves a microsecond lease and a second-long
// fsync alike.
func DoublingBuckets(first float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = first * float64(uint64(1)<<i)
	}
	return b
}

// validName reports whether s is a metric or label name of the Prometheus
// data-model grammar, [a-zA-Z_:][a-zA-Z0-9_:]*: a byte loop, since every
// family of every supervisor is checked at its construction.
func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

// Metric family types, as rendered in Prometheus TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families and renders them for exposition. The zero
// value is not usable; call NewRegistry. All methods are safe for
// concurrent use, and registration methods are idempotent: registering an
// existing name with an identical shape returns the existing family, while
// a conflicting shape panics (programmer error, like Prometheus client
// libraries).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric family with zero or more labeled children.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any // label-value key → *Counter | *Gauge | *Histogram
	order    []string       // child keys in first-use order
}

// register looks up or creates a family, enforcing shape consistency.
func (r *Registry) register(name, help, typ string, labelNames []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		children:   make(map[string]any),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child returns the metric for the given label values, creating it on
// first use. make builds a fresh metric value. The key is built in a stack
// buffer and looked up without a copy, so only a child's creation
// allocates its key string.
func (f *family) child(labelValues []string, make func() any) any {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	var buf [64]byte
	key := appendLabelKey(buf[:0], labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c
	}
	c := make()
	k := string(key)
	f.children[k] = c
	f.order = append(f.order, k)
	return c
}

// appendLabelKey appends the serialization of label values to dst,
// unambiguously (values may contain any byte, so a separator alone would
// not do): each value as its length, a colon, the value and a comma.
func appendLabelKey(dst []byte, values []string) []byte {
	for _, v := range values {
		dst = strconv.AppendInt(dst, int64(len(v)), 10)
		dst = append(dst, ':')
		dst = append(dst, v...)
		dst = append(dst, ',')
	}
	return dst
}

// Counter registers (or returns) an unlabeled monotonically increasing
// counter. By Prometheus convention the name should end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers (or returns) a counter family partitioned by the
// given label names; obtain children with With.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labelNames, nil)}
}

// Gauge registers (or returns) an unlabeled gauge — a value that can go up
// and down. The zero value of a fresh gauge reads 0.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or returns) a gauge family partitioned by the given
// label names; obtain children with With.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labelNames, nil)}
}

// Histogram registers (or returns) an unlabeled histogram with the given
// bucket upper bounds (ascending; an implicit +Inf bucket is always
// appended). Nil or empty buckets fall back to DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	buckets = normalizeBuckets(buckets)
	f := r.register(name, help, typeHistogram, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec registers (or returns) a histogram family partitioned by
// the given label names; obtain children with With.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	buckets = normalizeBuckets(buckets)
	return &HistogramVec{f: r.register(name, help, typeHistogram, labelNames, buckets)}
}

func normalizeBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		return DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly ascending at index %d", i))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		buckets = buckets[:len(buckets)-1] // +Inf is implicit
	}
	return buckets
}

// MetricNames returns the registered family names, sorted. It is the
// contract surface for the documentation-coverage test: every name listed
// here must appear in OBSERVABILITY.md.
func (r *Registry) MetricNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f.name)
	}
	sort.Strings(out)
	return out
}

// Counter is a monotonically increasing value. The zero value is ready to
// use and reads 0; all methods are lock-free and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (counters only go up, so n is unsigned).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter family partitioned by labels.
type CounterVec struct {
	f *family
}

// With returns the child counter for the given label values (one per label
// name, in registration order), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family partitioned by labels (e.g. per-participant
// health scores).
type GaugeVec struct {
	f *family
}

// With returns the child gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues, func() any { return &Gauge{} }).(*Gauge)
}

// Gauge is a value that can rise and fall (e.g. connected workers). The
// zero value is ready to use and reads 0; safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket upper bounds
// are inclusive (an observation equal to a bound lands in that bucket),
// matching the Prometheus le convention; every observation also lands in
// the implicit +Inf bucket via Count. Safe for concurrent use.
type Histogram struct {
	upper   []float64       // ascending; implicit +Inf afterwards
	counts  []atomic.Uint64 // len(upper)+1, non-cumulative
	sumBits atomic.Uint64   // float64 bits of the sum of observations
	count   atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v: le is inclusive
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramVec is a histogram family partitioned by labels; all children
// share the family's buckets.
type HistogramVec struct {
	f *family
}

// With returns the child histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Snapshot is a point-in-time copy of every metric in a registry — the
// in-process twin of the /metrics endpoint, for tests and programmatic
// consumers.
type Snapshot struct {
	Families []FamilySnapshot
}

// FamilySnapshot is one metric family in a Snapshot.
type FamilySnapshot struct {
	Name       string
	Help       string
	Type       string // "counter", "gauge", or "histogram"
	LabelNames []string
	Metrics    []MetricSnapshot
}

// MetricSnapshot is one (labeled) metric instance in a Snapshot.
type MetricSnapshot struct {
	// LabelValues parallels the family's LabelNames.
	LabelValues []string
	// Value holds the counter or gauge reading; 0 for histograms.
	Value float64
	// Histogram fields. UpperBounds excludes the implicit +Inf bucket;
	// Buckets has len(UpperBounds)+1 non-cumulative counts, the final one
	// being the overflow (+Inf) bucket.
	UpperBounds []float64
	Buckets     []uint64
	Sum         float64
	Count       uint64
}

// Snapshot copies the current value of every registered metric. Children
// appear in first-use order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var snap Snapshot
	for _, f := range families {
		fs := FamilySnapshot{
			Name:       f.name,
			Help:       f.help,
			Type:       f.typ,
			LabelNames: append([]string(nil), f.labelNames...),
		}
		f.mu.Lock()
		for _, key := range f.order {
			ms := MetricSnapshot{LabelValues: labelValuesFromKey(key)}
			switch m := f.children[key].(type) {
			case *Counter:
				ms.Value = float64(m.Value())
			case *Gauge:
				ms.Value = m.Value()
			case *Histogram:
				ms.UpperBounds = append([]float64(nil), m.upper...)
				ms.Buckets = make([]uint64, len(m.counts))
				for i := range m.counts {
					ms.Buckets[i] = m.counts[i].Load()
				}
				ms.Sum = m.Sum()
				ms.Count = m.Count()
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		f.mu.Unlock()
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// labelValuesFromKey inverts appendLabelKey.
func labelValuesFromKey(key string) []string {
	var out []string
	for len(key) > 0 {
		var n int
		var rest string
		if _, err := fmt.Sscanf(key, "%d:", &n); err != nil {
			return out // cannot happen for keys built by appendLabelKey
		}
		rest = key[len(fmt.Sprintf("%d:", n)):]
		out = append(out, rest[:n])
		key = rest[n+1:] // skip trailing comma
	}
	return out
}

// Value returns the reading of the named counter or gauge with the given
// label values, and whether it exists. For histograms it returns the
// observation count.
func (s Snapshot) Value(name string, labelValues ...string) (float64, bool) {
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if equalStrings(m.LabelValues, labelValues) {
				if f.Type == typeHistogram {
					return float64(m.Count), true
				}
				return m.Value, true
			}
		}
	}
	return 0, false
}
