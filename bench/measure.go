package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// stat is one metric as reported: the median over the workload's timed
// rounds with the rounds' own quartiles, min, max and count alongside.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func summarize(vals []float64, unit string) stat {
	if len(vals) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return stat{
		Value: medianSorted(s), Unit: unit, N: len(s),
		Q1: quantileSorted(s, 0.25), Q3: quantileSorted(s, 0.75),
		Min: s[0], Max: s[len(s)-1],
	}
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile picks the highest of p99, p95, p90 and p75 that still has at
// least ten samples beyond it, so a reported tail is never one outlier.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func durationsToMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

// usage is a reading of the process counters a round is bracketed with.
type usage struct {
	user, sys time.Duration
	mallocs   uint64
	gcPause   time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		user:    time.Duration(ru.Utime.Nano()),
		sys:     time.Duration(ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

func (u usage) since(start usage) usage {
	return usage{
		user:    u.user - start.user,
		sys:     u.sys - start.sys,
		mallocs: u.mallocs - start.mallocs,
		gcPause: u.gcPause - start.gcPause,
	}
}

func (u usage) cpu() time.Duration { return u.user + u.sys }

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// mallocsDuring counts heap allocations made by fn on this goroutine's
// behalf (and any other goroutine's, so callers run it on a quiet process).
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
