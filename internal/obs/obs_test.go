package obs

import (
	"fmt"
	"math"
	"math/rand/v2"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Idempotent re-registration returns the same counter.
	if r.Counter("c_total", "help") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("g", "help")
	if g.Value() != 0 {
		t.Errorf("zero gauge = %v, want 0", g.Value())
	}
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %v, want 2", got)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("errs_total", "help", "kind")
	v.With("io").Add(2)
	v.With("io").Inc()
	v.With("parse").Inc()
	snap := r.Snapshot()
	if got, ok := snap.Value("errs_total", "io"); !ok || got != 3 {
		t.Errorf("errs_total{io} = %v,%v want 3,true", got, ok)
	}
	if got, ok := snap.Value("errs_total", "parse"); !ok || got != 1 {
		t.Errorf("errs_total{parse} = %v,%v want 1,true", got, ok)
	}
	if _, ok := snap.Value("errs_total", "absent"); ok {
		t.Error("absent child reported present")
	}
	// Label values containing the key separator bytes must round-trip.
	v.With(`tricky,3:"x"`).Inc()
	if got, ok := r.Snapshot().Value("errs_total", `tricky,3:"x"`); !ok || got != 1 {
		t.Errorf("tricky label value = %v,%v want 1,true", got, ok)
	}
}

func TestGaugeVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("health", "help", "participant")
	v.With("1").Set(0.75)
	v.With("2").Set(0.25)
	v.With("1").Set(0.5)
	snap := r.Snapshot()
	if got, ok := snap.Value("health", "1"); !ok || got != 0.5 {
		t.Errorf("health{1} = %v,%v want 0.5,true", got, ok)
	}
	if got, ok := snap.Value("health", "2"); !ok || got != 0.25 {
		t.Errorf("health{2} = %v,%v want 0.25,true", got, ok)
	}
	// Re-registration is idempotent; a shape conflict panics like other vecs.
	if r.GaugeVec("health", "help", "participant").With("1") != v.With("1") {
		t.Error("re-registration returned a different child")
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "help")
	for name, fn := range map[string]func(){
		"shape conflict":   func() { r.Gauge("ok_total", "help") },
		"bad metric name":  func() { r.Counter("bad-name", "help") },
		"bad label name":   func() { r.CounterVec("v_total", "help", "bad-label") },
		"reserved le":      func() { r.HistogramVec("h", "help", nil, "le") },
		"arity mismatch":   func() { r.CounterVec("v2_total", "help", "a").With("x", "y") },
		"unsorted buckets": func() { r.Histogram("h2", "help", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestValidNameMatchesRegexp holds the byte loop that checks metric and
// label names to the Prometheus grammar's regular expression, its
// reference, on a generated corpus: every name of up to three bytes over
// an alphabet of each class's edges and their neighbours (the empty name,
// a leading digit, colons, non-ASCII and invalid UTF-8 among them), and
// longer random names over the same alphabet. Registering each as a
// metric and as a label panics exactly when the reference refuses it, or
// when the label is the reserved le.
func TestValidNameMatchesRegexp(t *testing.T) {
	ref := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	alphabet := []string{"a", "z", "A", "Z", "_", ":", "0", "9", "/", "@", "[", "`", "{", "-", " ", "\n", "é", "\xff", "l", "e"}
	corpus := []string{"", "le", "le_", "_le", "Le", "9lives", "::", "a:b:c", "résumé", "metric\n", "\x00"}
	var grow func(prefix string, n int)
	grow = func(prefix string, n int) {
		corpus = append(corpus, prefix)
		if n == 0 {
			return
		}
		for _, c := range alphabet {
			grow(prefix+c, n-1)
		}
	}
	grow("", 3)
	rnd := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		var b strings.Builder
		for range 4 + rnd.IntN(20) {
			b.WriteString(alphabet[rnd.IntN(len(alphabet))])
		}
		corpus = append(corpus, b.String())
	}
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	valid := 0
	for i, name := range corpus {
		want := ref.MatchString(name)
		if got := validName(name); got != want {
			t.Fatalf("validName(%q) = %v, the grammar's regexp says %v", name, got, want)
		}
		if want {
			valid++
		}
		r := NewRegistry()
		if p := panics(func() { r.Gauge(name, "help") }); p != !want {
			t.Errorf("registering metric %q: panic %v, want %v", name, p, !want)
		}
		label := fmt.Sprintf("m%d", i)
		if p := panics(func() { r.CounterVec(label, "help", name) }); p != (!want || name == "le") {
			t.Errorf("registering label %q: panic %v, want %v", name, p, !want || name == "le")
		}
	}
	if valid == 0 || valid == len(corpus) {
		t.Fatalf("%d of %d names valid: the corpus does not split", valid, len(corpus))
	}
}

// TestHistogramBucketEdges pins the le-inclusive bucket convention on
// exact boundary values, including the implicit +Inf overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		name    string
		buckets []float64
		obs     []float64
		want    []uint64 // non-cumulative, len(buckets)+1
		wantSum float64
	}{
		{
			name:    "exact bounds are inclusive",
			buckets: []float64{1, 2.5, 5},
			obs:     []float64{1, 2.5, 5},
			want:    []uint64{1, 1, 1, 0},
			wantSum: 8.5,
		},
		{
			name:    "just above a bound spills to the next bucket",
			buckets: []float64{1, 2.5, 5},
			obs:     []float64{math.Nextafter(1, 2), math.Nextafter(2.5, 3), math.Nextafter(5, 6)},
			want:    []uint64{0, 1, 1, 1},
			wantSum: 8.5,
		},
		{
			name:    "below the first bound",
			buckets: []float64{1, 2.5, 5},
			obs:     []float64{0, 0.5, -1},
			want:    []uint64{3, 0, 0, 0},
			wantSum: -0.5,
		},
		{
			name:    "overflow bucket",
			buckets: []float64{1, 2.5, 5},
			obs:     []float64{5.5, 100},
			want:    []uint64{0, 0, 0, 2},
			wantSum: 105.5,
		},
		{
			name:    "single bucket",
			buckets: []float64{0.5},
			obs:     []float64{0.5, 0.75},
			want:    []uint64{1, 1},
			wantSum: 1.25,
		},
		{
			name:    "explicit +Inf bound is folded into the implicit one",
			buckets: []float64{1, math.Inf(1)},
			obs:     []float64{0.5, 2},
			want:    []uint64{1, 1},
			wantSum: 2.5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("h", "help", tc.buckets)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			snap := r.Snapshot()
			m := snap.Families[0].Metrics[0]
			if len(m.Buckets) != len(tc.want) {
				t.Fatalf("got %d buckets, want %d", len(m.Buckets), len(tc.want))
			}
			for i := range tc.want {
				if m.Buckets[i] != tc.want[i] {
					t.Errorf("bucket %d = %d, want %d", i, m.Buckets[i], tc.want[i])
				}
			}
			if m.Count != uint64(len(tc.obs)) {
				t.Errorf("count = %d, want %d", m.Count, len(tc.obs))
			}
			if math.Abs(m.Sum-tc.wantSum) > 1e-9 {
				t.Errorf("sum = %v, want %v", m.Sum, tc.wantSum)
			}
		})
	}
}

func TestDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", nil)
	h.Observe(0.003)
	m := r.Snapshot().Families[0].Metrics[0]
	if len(m.UpperBounds) != len(DefBuckets) {
		t.Fatalf("got %d default bounds, want %d", len(m.UpperBounds), len(DefBuckets))
	}
	if m.Buckets[2] != 1 { // 0.003 lands in le=0.005
		t.Errorf("0.003 landed wrong: %v", m.Buckets)
	}
}

func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	g := r.Gauge("g", "help")
	hv := r.HistogramVec("h_seconds", "help", []float64{0.5, 1}, "who")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				hv.With([]string{"a", "b"}[i%2]).Observe(0.75)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.Snapshot()
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	a, b := hv.With("a"), hv.With("b")
	if a.Count()+b.Count() != 8000 {
		t.Errorf("histogram counts = %d+%d, want 8000", a.Count(), b.Count())
	}
}

func TestMetricNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "help")
	r.Gauge("a", "help")
	r.Histogram("m_seconds", "help", nil)
	got := r.MetricNames()
	want := []string{"a", "m_seconds", "z_total"}
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

// TestWithExistingChildAllocFree: With on a label set that already has a
// child builds its key on the stack and allocates nothing, for every
// family kind and one label or several; a key longer than the stack
// buffer still finds its child.
func TestWithExistingChildAllocFree(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c_total", "help", "participant")
	gv := r.GaugeVec("g", "help", "shard", "participant")
	hv := r.HistogramVec("h_seconds", "help", nil, "participant")
	for _, v := range []string{"7", "participant-1234567"} {
		cv.With(v)
		gv.With("shard-0", v)
		hv.With(v)
		if n := testing.AllocsPerRun(100, func() {
			cv.With(v).Inc()
			gv.With("shard-0", v).Set(1)
			hv.With(v).Observe(0.5)
		}); n != 0 {
			t.Errorf("With(%q) on existing children allocates %v times", v, n)
		}
		if got := cv.With(v).Value(); got != 101 {
			t.Errorf("the counter child of %q read %d, want 101: With did not find the existing child", v, got)
		}
	}
	long := string(make([]byte, 100))
	cv.With(long).Inc()
	cv.With(long).Inc()
	if got := cv.With(long).Value(); got != 2 {
		t.Errorf("the counter child of a 100-byte value read %d, want 2", got)
	}
}

// TestLabelKeyFormat: the key is each value's length, a colon, the value
// and a comma, so values holding the separators stay apart.
func TestLabelKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		values []string
		want   string
	}{
		{nil, ""},
		{[]string{""}, "0:,"},
		{[]string{"a,1:b"}, "5:a,1:b,"},
		{[]string{"a", "1:b"}, "1:a,3:1:b,"},
		{[]string{string(make([]byte, 70)), "x"}, "70:" + string(make([]byte, 70)) + ",1:x,"},
	} {
		if got := string(appendLabelKey(nil, tc.values)); got != tc.want {
			t.Errorf("key of %q = %q, want %q", tc.values, got, tc.want)
		}
	}
}
