package stats

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"redundancy/internal/rng"
)

// windowStream draws observations that exercise every path of a window's
// quantile: zeros and negatives (the zero bucket), ties, values below and
// above the sketch's range (the clamp buckets) and a lognormal bulk.
func windowStream(r *rng.Source) float64 {
	switch u := r.Float64(); {
	case u < 0.08:
		return 0
	case u < 0.1:
		return -r.Float64()
	case u < 0.3:
		return float64(1 + r.Intn(3)) // ties
	case u < 0.35:
		return 1e-12 * (1 + r.Float64()) // below 2^minSketchExp
	case u < 0.4:
		return 1e13 * (1 + r.Float64()) // above 2^maxSketchExp
	default:
		return r.LogNormal(1, 2)
	}
}

// expectedQuantile is what a window answers for exact, the order
// statistic of its held samples: 0 for the zero bucket, the first bucket's
// value for a clamped-low sample and held's exact maximum for a
// clamped-high one; any in-range answer is checked within Alpha instead.
func expectedQuantile(exact, max float64) (want float64, inRange bool) {
	switch {
	case exact <= 0:
		return 0, false
	case exact < math.Ldexp(1, minSketchExp):
		return NewSketch().value(0), false
	case exact >= math.Ldexp(1, maxSketchExp):
		return max, false
	}
	return exact, true
}

// TestWindowMatchesExactReference holds a window to the samples it holds,
// at W = 1, 2, 3, 4, 1024 and unbounded: once W samples have arrived it
// holds the latest n of them, ceil(W/2) <= n <= W; it answers from its
// gate on and never below it; each quantile is within Alpha of the exact
// floor(q·(n−1)) order statistic of those n samples; and Quantile(1) is
// their exact maximum. A window of 30 gated on 20, whose halves grow to
// the gate, holds 20 <= n <= 39 instead.
func TestWindowMatchesExactReference(t *testing.T) {
	qs := []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1}
	for _, c := range []struct{ w, gate int }{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {1024, 20}, {0, 20}, {30, 20}} {
		w, gate := c.w, c.gate
		t.Run(fmt.Sprintf("W=%d,gate=%d", w, gate), func(t *testing.T) {
			total, stride := 5000, 1
			if w == 0 || w > 4 {
				stride = 37 // sorting a held set of thousands each step is slow
			}
			lo, hi := (w+1)/2, w // the held count once W samples have arrived
			if gate > lo {
				lo, hi = gate, 2*gate-1
			}
			win := NewWindow(w, gate)
			if _, ok := win.Quantile(0.5); ok {
				t.Fatal("an empty window answered")
			}
			r := rng.New(uint64(17 + w))
			var seen, held []float64
			for i := 1; i <= total; i++ {
				x := windowStream(r)
				win.Add(x)
				seen = append(seen, x)
				n := win.Count()
				switch {
				case w == 0 && n != i:
					t.Fatalf("after %d samples an unbounded window holds %d", i, n)
				case w > 0 && i >= w && (n < lo || n > hi):
					t.Fatalf("after %d samples the window holds %d, outside [%d, %d]", i, n, lo, hi)
				case n > i:
					t.Fatalf("after %d samples the window holds %d", i, n)
				}
				if _, ok := win.Quantile(0.5); ok != (n >= gate) {
					t.Fatalf("after %d samples, holding %d with gate %d: ok = %v", i, n, gate, ok)
				}
				if n < gate || i%stride != 0 {
					continue
				}
				held = append(held[:0], seen[i-n:]...)
				slices.Sort(held)
				max := held[n-1]
				for _, q := range qs {
					v, _ := win.Quantile(q)
					exact := held[int(q*float64(n-1))]
					want, inRange := expectedQuantile(exact, max)
					if q == 1 {
						want, inRange = max, false
					}
					if inRange && relErr(v, want) > win.cur.Alpha()*1.0001 || !inRange && v != want {
						t.Fatalf("after %d samples (holding %d) q%v = %v, exact %v", i, n, q, v, exact)
					}
				}
			}
		})
	}
}

// TestWindowUnboundedIsOneSketch: an unbounded window answers exactly what
// one sketch of the same observations answers, from its gate on, so the
// tail engine's clone threshold is the sketch's to the bit.
func TestWindowUnboundedIsOneSketch(t *testing.T) {
	win, s := NewWindow(0, MinQuantileSamples), NewSketch()
	r := rng.New(5)
	for i := 1; i <= 2000; i++ {
		x := windowStream(r)
		win.Add(x)
		s.Add(x)
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			v, ok := win.Quantile(q)
			if ok != (i >= MinQuantileSamples) || ok && v != s.Quantile(q) {
				t.Fatalf("after %d samples q%v = %v ok=%v, sketch %v", i, q, v, ok, s.Quantile(q))
			}
		}
	}
	win.Reset()
	if win.Count() != 0 {
		t.Errorf("Reset left %d samples", win.Count())
	}
}

// TestWindowAllocFree: Add, through its rotations, and Quantile allocate
// nothing.
func TestWindowAllocFree(t *testing.T) {
	win := NewWindow(64, 1)
	r := rng.New(9)
	allocs := testing.AllocsPerRun(1000, func() {
		win.Add(1 + 100*r.Float64())
		win.Quantile(0.95)
	})
	if allocs != 0 {
		t.Fatalf("Window.Add and Quantile allocate %.1f allocs/op, want 0", allocs)
	}
}
