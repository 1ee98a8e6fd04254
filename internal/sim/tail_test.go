package sim

import (
	"math"
	"reflect"
	"testing"

	"redundancy/internal/plan"
)

func tailCfg(tasks int) TailConfig {
	return TailConfig{
		Classes:        []TailClass{{Copies: 2, Tasks: tasks / 2}, {Copies: 3, Tasks: tasks / 2}},
		Participants:   50,
		SpeedBase:      1.0,
		SpeedJitter:    0.5,
		SpeedSpread:    0.3,
		StragglerP:     0.02,
		StragglerDelay: 20,
		Seed:           42,
	}
}

func TestTailConfigValidate(t *testing.T) {
	bad := []TailConfig{
		{},
		{Classes: []TailClass{{Copies: 2, Tasks: 0}}, Participants: 1, SpeedBase: 1},
		{Classes: []TailClass{{Copies: 0, Tasks: 5}}, Participants: 1, SpeedBase: 1},
		{Classes: []TailClass{{Copies: 256, Tasks: 5}}, Participants: 1, SpeedBase: 1},
		{Classes: []TailClass{{Copies: 1, Tasks: -5}}, Participants: 1, SpeedBase: 1},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: 0, SpeedBase: 1},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: math.MaxInt32 + 1, SpeedBase: 1},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: 1, SpeedBase: 0},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: 1, SpeedBase: math.NaN()},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: 1, SpeedBase: 1, StragglerP: 1.5},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: 1, SpeedBase: 1, SpeedJitter: math.Inf(1)},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: 1, SpeedBase: 1, StragglerDelay: -1},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: 1, SpeedBase: 1, Speculate: true},
		{Classes: []TailClass{{Copies: 1, Tasks: 5}}, Participants: 1, SpeedBase: 1, Speculate: true, SpeculatePct: 1},
		{Classes: []TailClass{{Copies: 200, Tasks: 20_000_000}}, Participants: 1, SpeedBase: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
	good := tailCfg(100)
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestTailExactTinyCase pins the model on a case small enough to work by
// hand: one worker, deterministic service times, FIFO order.
func TestTailExactTinyCase(t *testing.T) {
	cfg := TailConfig{
		Classes:      []TailClass{{Copies: 1, Tasks: 3}},
		Participants: 1,
		SpeedBase:    2.0,
		Seed:         1,
	}
	e, err := NewTailEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := e.RunTrial(0)
	// Three single-copy tasks on one worker at 2.0 each: completions at
	// 2, 4, 6; makespan 6; mean latency 4.
	if tr.Makespan != 6 {
		t.Errorf("makespan: got %v want 6", tr.Makespan)
	}
	if tr.Latency.Count() != 3 {
		t.Errorf("latency count: got %d want 3", tr.Latency.Count())
	}
	if got := tr.Latency.Mean(); got != 4 {
		t.Errorf("mean latency: got %v want 4", got)
	}
	if got := tr.Latency.Max(); got != 6 {
		t.Errorf("max latency: got %v want 6", got)
	}
	if tr.Completions != 3 {
		t.Errorf("completions: got %d want 3", tr.Completions)
	}

	// Full-quorum rule: the same three tasks at multiplicity 2 on one
	// worker certify when their LAST copy returns.
	cfg.Classes = []TailClass{{Copies: 2, Tasks: 1}}
	e2, err := NewTailEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := e2.RunTrial(0)
	if tr2.Makespan != 4 || tr2.Latency.Max() != 4 {
		t.Errorf("2-copy task on 1 worker: makespan %v latency %v, want 4 and 4", tr2.Makespan, tr2.Latency.Max())
	}
}

// TestTailTrialDeterministicAndReusable checks that a trial's outcome
// depends only on (config, trial index): rerunning it on a reused engine,
// a fresh engine, or after other trials gives identical results.
func TestTailTrialDeterministicAndReusable(t *testing.T) {
	cfg := tailCfg(2000)
	cfg.Speculate = true
	cfg.SpeculatePct = 0.9
	e1, err := NewTailEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := e1.RunTrial(7)
	// Pollute the engine with different trials, then rerun 7.
	e1.RunTrial(3)
	e1.RunTrial(11)
	b := e1.RunTrial(7)
	e2, _ := NewTailEngine(cfg)
	c := e2.RunTrial(7)

	for name, pair := range map[string][2]TailTrial{"reused": {a, b}, "fresh": {a, c}} {
		x, y := pair[0], pair[1]
		if x.Makespan != y.Makespan || x.Completions != y.Completions ||
			x.SpecIssued != y.SpecIssued || x.SpecWins != y.SpecWins || x.SpecWasted != y.SpecWasted {
			t.Errorf("%s: counters diverge: %+v vs %+v", name, x, y)
		}
		for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
			if x.Latency.Quantile(q) != y.Latency.Quantile(q) {
				t.Errorf("%s: q%v diverges", name, q)
			}
		}
		if x.Latency.Sum() != y.Latency.Sum() {
			t.Errorf("%s: latency sums diverge", name)
		}
	}
	// Distinct trials must actually differ.
	d := e1.RunTrial(8)
	if d.Latency.Sum() == a.Latency.Sum() {
		t.Errorf("trials 7 and 8 produced identical latency sums")
	}
}

// TestTailParallelByteIdentical is the determinism-under-parallelism
// guarantee: the reduced result is identical at workers 1, 4, and 16.
func TestTailParallelByteIdentical(t *testing.T) {
	cfg := tailCfg(2000)
	cfg.Speculate = true
	cfg.SpeculatePct = 0.9
	const trials = 24
	base, err := RunTailTrials(cfg, trials, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		got, err := RunTailTrials(cfg, trials, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.MakespanSum != base.MakespanSum || got.Completions != base.Completions ||
			got.SpecIssued != base.SpecIssued || got.SpecWins != base.SpecWins ||
			got.SpecWasted != base.SpecWasted || got.Trials != base.Trials {
			t.Errorf("workers=%d: counters diverge from workers=1", workers)
		}
		if got.Latency.Sum() != base.Latency.Sum() || got.Latency.Count() != base.Latency.Count() {
			t.Errorf("workers=%d: merged sketch diverges", workers)
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if got.Latency.Quantile(q) != base.Latency.Quantile(q) {
				t.Errorf("workers=%d: q%v diverges", workers, q)
			}
		}
	}
}

// TestTailSpeculationCutsTail: with a heavy straggler mix in the
// diversity regime (shallow backlogs, so the tail is straggler service
// time rather than queueing behind stragglers — the regime speculation
// can actually fix), the speculative tier must cut p99 substantially
// while keeping its counters consistent.
func TestTailSpeculationCutsTail(t *testing.T) {
	cfg := TailConfig{
		Classes:        []TailClass{{Copies: 1, Tasks: 20000}},
		Participants:   10000,
		SpeedBase:      1.0,
		SpeedJitter:    0.2,
		StragglerP:     0.03,
		StragglerDelay: 50,
		Seed:           7,
	}
	off, err := RunTailTrials(cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Speculate = true
	cfg.SpeculatePct = 0.9
	on, err := RunTailTrials(cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if on.SpecIssued == 0 {
		t.Fatalf("speculation never triggered")
	}
	if on.SpecWins+on.SpecWasted > on.Completions {
		t.Errorf("inconsistent counters: wins %d + wasted %d > completions %d", on.SpecWins, on.SpecWasted, on.Completions)
	}
	if on.SpecWins == 0 {
		t.Errorf("clones never won a race despite %d issued", on.SpecIssued)
	}
	p99off := off.Latency.Quantile(0.99)
	p99on := on.Latency.Quantile(0.99)
	if p99on > 0.7*p99off {
		t.Errorf("speculation did not cut the tail: p99 off=%v on=%v", p99off, p99on)
	}
	// The median must not degrade much: clones add load but only for
	// stragglers.
	if on.Latency.Quantile(0.5) > 1.5*off.Latency.Quantile(0.5) {
		t.Errorf("speculation wrecked the median: off=%v on=%v",
			off.Latency.Quantile(0.5), on.Latency.Quantile(0.5))
	}
}

// TestTailUniformGolden pins a multiplicity-1 workload, with speculation
// off and on, to the figures the engine gave when it still ran such
// workloads on a path of their own that skipped the quorum bookkeeping
// and the pull-order shuffle: the one path must reproduce them exactly.
func TestTailUniformGolden(t *testing.T) {
	for _, c := range []struct {
		spec                      bool
		q50, q90, q99, q999, mean float64
		makespan                  float64
		completions, issued, wins int
	}{
		{false, 38.75, 71.5, 79.5, 96.5, 38.77975151723849, 295.98105619402816, 60000, 0, 0},
		{true, 44.25, 80.5, 88.5, 89.5, 44.21917227208266, 330.245927330254, 67853, 7853, 1736},
	} {
		cfg := TailConfig{
			Classes: []TailClass{{Copies: 1, Tasks: 20000}}, Participants: 500,
			SpeedBase: 1, SpeedJitter: 0.5, SpeedSpread: 0.3, StragglerP: 0.03, StragglerDelay: 20,
			Speculate: c.spec, SpeculatePct: 0.9, Seed: 9,
		}
		r, err := RunTailTrials(cfg, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		l := r.Latency
		got := []float64{l.Quantile(0.5), l.Quantile(0.9), l.Quantile(0.99), l.Quantile(0.999), l.Mean(), r.MakespanSum}
		want := []float64{c.q50, c.q90, c.q99, c.q999, c.mean, c.makespan}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("speculate=%v: q50/q90/q99/q999/mean/makespan-sum %v, want %v", c.spec, got, want)
				break
			}
		}
		if l.Count() != 60000 || r.Completions != c.completions || r.SpecIssued != c.issued ||
			r.SpecWins != c.wins || r.SpecWasted != c.issued {
			t.Errorf("speculate=%v: %d latencies, %d completions, %d/%d/%d issued/wins/wasted; want 60000, %d, %d/%d/%d",
				c.spec, l.Count(), r.Completions, r.SpecIssued, r.SpecWins, r.SpecWasted,
				c.completions, c.issued, c.wins, c.issued)
		}
	}
}

// TestTailRedundancyRaisesLatency: at fixed fleet size, full-quorum
// certification means more copies cost latency (the price the tail
// analysis quantifies).
func TestTailRedundancyRaisesLatency(t *testing.T) {
	mk := func(copies int) *TailResult {
		cfg := TailConfig{
			Classes:      []TailClass{{Copies: copies, Tasks: 10000}},
			Participants: 100,
			SpeedBase:    1.0,
			SpeedJitter:  0.5,
			Seed:         3,
		}
		r, err := RunTailTrials(cfg, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := mk(1), mk(2)
	if !(r2.Latency.Mean() > r1.Latency.Mean()) {
		t.Errorf("doubling copies did not raise mean latency: %v vs %v", r1.Latency.Mean(), r2.Latency.Mean())
	}
	if r2.Copies != 2*r1.Copies {
		t.Errorf("redundancy accounting: %d vs %d", r2.Copies, r1.Copies)
	}
}

// TestTailRunTrialAllocConstant is the satellite regression guard for the
// steady-state loop: per-trial allocations must be a small constant —
// independent of task count — so the per-task hot path allocates nothing.
func TestTailRunTrialAllocConstant(t *testing.T) {
	measure := func(tasks int) float64 {
		cfg := tailCfg(tasks)
		cfg.Speculate = true
		cfg.SpeculatePct = 0.9
		e, err := NewTailEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.RunTrial(0) // reach the steady-state high-water mark
		trial := 0
		return testing.AllocsPerRun(3, func() {
			trial++
			e.RunTrial(trial)
		})
	}
	small, large := measure(2000), measure(8000)
	// The fixed overhead is the per-trial RNG stream construction and the
	// result-sketch clone; 4x the tasks must not move it.
	if large > small {
		t.Errorf("per-trial allocations grew with task count: %v at 2k tasks, %v at 8k", small, large)
	}
	if small > 32 {
		t.Errorf("per-trial fixed allocation overhead too high: %v allocs", small)
	}
}

// TestTailEngineBytesPerCopy pins the engine's arena bytes per base copy,
// read from the capacities of its slice fields: two engines on the same
// fleet and task count, one with four more copies a task than the other,
// differ by exactly those copies' arenas, so per-worker and per-task
// arrays cancel. A base copy holds its task (taskOf), its place in the
// pull order and its resolved flag: 9 B. Speculation adds its cloned flag
// and a clone-queue entry, which names the base slot itself: 14 B.
func TestTailEngineBytesPerCopy(t *testing.T) {
	arena := func(cfg TailConfig) int {
		e, err := NewTailEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bytes := 0
		v := reflect.ValueOf(e).Elem()
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				bytes += f.Cap() * int(f.Type().Elem().Size())
			}
		}
		return bytes
	}
	const tasks = 1000
	for _, c := range []struct {
		speculate bool
		want      int
	}{{false, 9}, {true, 14}} {
		cfg := tailCfg(tasks)
		cfg.Speculate, cfg.SpeculatePct = c.speculate, 0.9
		cfg.Classes = []TailClass{{Copies: 2, Tasks: tasks}}
		small := arena(cfg)
		cfg.Classes = []TailClass{{Copies: 6, Tasks: tasks}}
		large := arena(cfg)
		if got := float64(large-small) / (4 * tasks); got != float64(c.want) {
			t.Errorf("speculate=%v: %.2f arena bytes per base copy, want %d", c.speculate, got, c.want)
		}
	}
}

func TestRunTailTrialsErrors(t *testing.T) {
	if _, err := RunTailTrials(tailCfg(100), 0, 1); err == nil {
		t.Errorf("zero trials must error")
	}
	if _, err := RunTailTrials(TailConfig{}, 4, 1); err == nil {
		t.Errorf("invalid config must error")
	}
}

// BenchmarkTailEngine measures single-threaded engine throughput in
// copy-completions per second. It runs whole trials until at least b.N
// completions are done, so the rate divides the completions it ran, not
// b.N, by the elapsed time. The event-queue depth
// is the fleet size, so the multiplicity-1 workload is reported at two
// fleet scales: 256 workers (the 4KB heap stays L1-resident) and 1000
// workers. The Balanced arm is the cell the tail sweep and bench/'s
// tail-sim run: plan.Balanced's multiplicity classes on the sweep's
// 256-worker fleet with speculation on.
func BenchmarkTailEngine(b *testing.B) {
	uniform := func(p int) TailConfig {
		return TailConfig{
			Classes:      []TailClass{{Copies: 1, Tasks: 200000}},
			Participants: p,
			SpeedBase:    1.0,
			SpeedJitter:  0.5,
			SpeedSpread:  0.3,
			Seed:         11,
		}
	}
	p, err := plan.Balanced(100000, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	var balanced []TailClass
	for i, c := range p.Counts {
		if c > 0 {
			balanced = append(balanced, TailClass{Copies: i + 1, Tasks: c})
		}
	}
	if p.TailTasks > 0 {
		balanced = append(balanced, TailClass{Copies: p.TailMultiplicity, Tasks: p.TailTasks})
	}
	if p.Ringers > 0 {
		balanced = append(balanced, TailClass{Copies: p.RingerMultiplicity, Tasks: p.Ringers})
	}
	for _, arm := range []struct {
		name string
		cfg  TailConfig
	}{
		{"P256", uniform(256)},
		{"P1000", uniform(1000)},
		{"Balanced", TailConfig{
			Classes: balanced, Participants: 256,
			SpeedBase: 1.0, SpeedJitter: 0.5, SpeedSpread: 0.5, StragglerP: 0.02, StragglerDelay: 20,
			Speculate: true, SpeculatePct: 0.95, Seed: 2005,
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			e, err := NewTailEngine(arm.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			done := 0
			for trial := 0; done < b.N; trial++ {
				tr := e.RunTrial(trial)
				done += tr.Completions
			}
			b.StopTimer()
			if done > 0 {
				b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "completions/s")
			}
		})
	}
}
