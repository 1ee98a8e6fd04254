package stats

import (
	"fmt"
	"math"
)

// Sketch is a fixed-memory mergeable quantile sketch over positive values:
// log-spaced buckets give a relative-error guarantee on every quantile,
// bucket counts are integers so Merge is exactly associative and
// commutative (bit-identical results regardless of merge order or
// grouping), and the memory footprint is a fixed few tens of kilobytes
// however many observations are added. The Monte-Carlo harnesses rely on
// both properties: trials stream per-task latencies into per-trial
// sketches on many goroutines, and the reduction must produce the same
// p50/p99/p999 whether one worker folded a million samples or sixty-four
// workers folded shards of it.
//
// Buckets subdivide each power-of-two octave into 2^k linear steps, so
// the bucket index is pure float-bit arithmetic — no logarithm on the hot
// path, which matters when the tail engine feeds it one observation per
// completed copy. A value in [2^e·(1+j/m), 2^e·(1+(j+1)/m)) reports the
// bucket midpoint, bounding relative error by 1/(2m) ≤ alpha.
//
// Alongside the bucketed quantiles the sketch tracks exact count, sum
// (Kahan-compensated), min and max, so Mean and Max carry no bucketing
// error. The zero value is not usable; construct with NewSketch.
type Sketch struct {
	alpha float64 // advertised relative accuracy of quantiles
	shift uint    // 52 - k: mantissa bits dropped to get the subbucket
	m     int     // subbuckets per octave (2^k), with 1/(2m) <= alpha

	bins []uint64
	// zeros counts observations at or below zero (quantile value 0); low
	// and high count observations clamped into the extreme buckets.
	zeros     uint64
	low, high uint64

	count    uint64
	sum, c   float64 // Kahan-compensated running sum
	min, max float64
}

// Sketch range: minSketchExp..maxSketchExp are the covered power-of-two
// octaves (~1e-9 .. ~1e12); values outside clamp into the boundary
// buckets (their exact magnitude still reaches min/max/sum), which covers
// virtual-time latencies from nanoseconds to ~1e12 units.
const (
	defaultSketchAlpha = 0.01
	minSketchExp       = -30 // 2^-30 ~ 9.3e-10
	maxSketchExp       = 40  // 2^40  ~ 1.1e12
)

// NewSketch creates a sketch with the default 1% relative accuracy.
func NewSketch() *Sketch { return NewSketchAlpha(defaultSketchAlpha) }

// NewSketchAlpha creates a sketch whose quantiles carry relative error at
// most alpha, for alpha in (0, 0.5). Smaller alpha costs proportionally
// more (fixed) memory.
func NewSketchAlpha(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 0.5) {
		panic(fmt.Sprintf("stats: sketch alpha must lie in (0,0.5), got %v", alpha))
	}
	// Smallest power-of-two subdivision m with midpoint error
	// 1/(2m) <= alpha.
	k := uint(0)
	for ; k < 32; k++ {
		if 1.0/float64(int(2)<<k) <= alpha { // 2m = 2^(k+1)
			break
		}
	}
	m := 1 << k
	return &Sketch{
		alpha: alpha,
		shift: 52 - k,
		m:     m,
		bins:  make([]uint64, (maxSketchExp-minSketchExp)*m),
		min:   math.Inf(1),
		max:   math.Inf(-1),
	}
}

// Alpha returns the sketch's relative-accuracy parameter.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Add incorporates one observation. Values at or below zero are recorded
// in a dedicated zero bucket (they quantize to 0); values outside the
// representable range clamp into the boundary buckets. NaN and infinities
// are programming errors and panic. Add performs no heap allocation.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic("stats: sketch observation must be finite")
	}
	s.count++
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	// Kahan summation keeps the mean exact to the last few ulps over long
	// runs; the order of Adds is fixed by the caller, so the sum is
	// deterministic as well.
	y := x - s.c
	t := s.sum + y
	s.c = (t - s.sum) - y
	s.sum = t

	if x <= 0 {
		s.zeros++
		return
	}
	switch i := s.index(x); {
	case i < 0:
		s.low++
	case i >= len(s.bins):
		s.high++
	default:
		s.bins[i]++
	}
}

// index is the bucket of a positive x straight from its float bits:
// biased exponent octave, top k mantissa bits subbucket. It is below 0 or
// past the last bucket when x clamps. Subnormals have biased exponent 0
// and land below the low clamp like any tiny value.
func (s *Sketch) index(x float64) int {
	return int(math.Float64bits(x)>>s.shift) - ((1023 + minSketchExp) << (52 - s.shift))
}

// Count returns the number of observations.
func (s *Sketch) Count() int { return int(s.count) }

// Sum returns the exact (compensated) sum of all observations.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the exact sample mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest observation, exactly (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, exactly (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// value returns the representative value of bucket i — the arithmetic
// midpoint 2^e·(1+(j+1/2)/m), which bounds the relative error of any
// member of the bucket by 1/(2m) ≤ alpha.
func (s *Sketch) value(i int) float64 {
	e := i/s.m + minSketchExp
	j := i % s.m
	return math.Ldexp(1+(float64(j)+0.5)/float64(s.m), e)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) with
// relative error at most Alpha for in-range observations. The rank
// convention matches sorting the sample and indexing at floor(q·(n-1)),
// so Quantile(0) is the minimum bucket; Quantile(1) is the exact maximum.
// An empty sketch returns 0.
func (s *Sketch) Quantile(q float64) float64 { return s.quantile(q, nil) }

// quantile is Quantile over the observations of s and, when o is not nil,
// of o as well: it walks both sets of bins as one sketch, with no merged
// copy. o must share s's alpha.
func (s *Sketch) quantile(q float64, o *Sketch) float64 {
	count, zeros, low, lo, hi := s.count, s.zeros, s.low, s.min, s.max
	var obins []uint64
	if o != nil {
		count, zeros, low = count+o.count, zeros+o.zeros, low+o.low
		lo, hi = math.Min(lo, o.min), math.Max(hi, o.max)
		obins = o.bins[:len(s.bins)]
	}
	if count == 0 {
		return 0
	}
	if math.IsNaN(q) {
		panic("stats: sketch quantile must not be NaN")
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return hi // the maximum is tracked exactly
	}
	rank := uint64(q * float64(count-1)) // 0-based target rank
	cum := zeros
	if rank < cum {
		return 0
	}
	cum += low
	if rank < cum {
		return s.value(0) // clamped-low observations report the first bucket
	}
	// Past the zero and low mass hi is positive, and no bucket outside
	// the ones of lo and hi holds an observation.
	from, to := 0, min(s.index(hi), len(s.bins)-1)
	if lo > 0 {
		from = max(s.index(lo), 0)
	}
	for i := from; i <= to; i++ {
		n := s.bins[i]
		if obins != nil {
			n += obins[i]
		}
		if cum += n; rank < cum {
			return s.value(i)
		}
	}
	// Remaining mass is the clamped-high bucket; its exact max is tracked.
	return hi
}

// Merge folds o into s, exactly as if every observation of o had been
// Added to s. Bucket counts are integers, so the bucketed state after any
// sequence of Merges is identical regardless of order or grouping; the
// floating-point sum is order-sensitive only in its final ulps.
// Both sketches must share the same alpha.
func (s *Sketch) Merge(o *Sketch) {
	if o.alpha != s.alpha {
		panic("stats: cannot merge sketches with different alpha")
	}
	if o.count == 0 {
		return
	}
	for i, n := range o.bins {
		s.bins[i] += n
	}
	s.zeros += o.zeros
	s.low += o.low
	s.high += o.high
	s.count += o.count
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	y := o.sum - s.c
	t := s.sum + y
	s.c = (t - s.sum) - y
	s.sum = t
}

// Reset empties the sketch for reuse, keeping its configuration and
// allocated buckets.
func (s *Sketch) Reset() {
	clear(s.bins)
	s.zeros, s.low, s.high = 0, 0, 0
	s.count = 0
	s.sum, s.c = 0, 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Clone returns an independent deep copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.bins = make([]uint64, len(s.bins))
	copy(c.bins, s.bins)
	return &c
}

// MinQuantileSamples is the fewest held observations a Window answers a
// quantile from, so a clone threshold does not trigger off noise: the
// health roster's default MinLatencySamples and the tail engine's gate.
const MinQuantileSamples = 20

// Window is the q-quantile of recent observations, the clone threshold of
// the platform's speculative tier and of the tail engine. A window of w is
// two sketches of h = max(ceil(w/2), minSamples) observations each: when
// the current one fills it becomes the previous one, and the old previous
// one is emptied to take the next. So once h observations have arrived it
// holds between h and 2h-1 of the latest, at most w when the gate is at
// most ceil(w/2), and never fewer than the gate. An unbounded window
// (w <= 0) never rotates: its previous sketch stays empty. Neither Add nor
// Quantile allocates.
type Window struct {
	cur, prev  *Sketch
	half, gate int // observations per sketch (0 when unbounded); the gate
}

// NewWindow returns a window over the latest w observations (all of them
// when w <= 0) that answers from minSamples held observations on.
func NewWindow(w, minSamples int) *Window {
	win := &Window{cur: NewSketch(), prev: NewSketch(), gate: minSamples}
	if w > 0 {
		win.half = max((w+1)/2, minSamples)
	}
	return win
}

// Add incorporates one observation, as Sketch.Add does.
func (w *Window) Add(x float64) {
	w.cur.Add(x)
	if w.cur.Count() == w.half {
		w.cur, w.prev = w.prev, w.cur
		w.cur.Reset()
	}
}

// Count returns the number of held observations.
func (w *Window) Count() int { return w.cur.Count() + w.prev.Count() }

// Quantile is Sketch.Quantile over the held observations, reading both
// sketches' bins in place; ok is false while fewer than minSamples are
// held.
func (w *Window) Quantile(q float64) (v float64, ok bool) {
	if w.Count() < w.gate {
		return 0, false
	}
	return w.cur.quantile(q, w.prev), true
}

// Reset empties the window.
func (w *Window) Reset() {
	w.cur.Reset()
	w.prev.Reset()
}
