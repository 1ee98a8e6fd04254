package sim

import (
	"errors"
	"fmt"
	"math"

	"redundancy/internal/par"
	"redundancy/internal/rng"
	"redundancy/internal/stats"
)

// This file is the high-throughput completion-time engine behind
// `redsim -tail`: a discrete-event simulator of one batch of redundant
// tasks racing through a heterogeneous worker fleet, built to answer
// ROADMAP item 2 (the completion-time distribution as a function of the
// redundancy factor) at Monte-Carlo scale. Everything lives in
// preallocated arenas indexed by dense int32 ids; the steady-state event
// loop performs zero heap allocations, which is what lifts throughput to
// the millions of completions per second the tail sweeps need.
//
// The model matches the platform's semantics: workers PULL copies from a
// shared queue as they free up (so a straggler delays only its own copy,
// not a private backlog behind it); per-copy compute time is Base plus an
// even draw of jitter, scaled by a per-worker heterogeneity factor, plus
// a Bernoulli straggler episode's additive delay; and the optional
// speculative tier clones a copy still in service past the fleet's
// completion-time quantile to the head of the queue — exactly the
// platform's "straggler clones go out ahead of fresh queue pops" rule —
// where the first of the pair to finish wins and the loser is wasted
// work. A task is certified when its LAST copy returns — the full-quorum
// redundancy-verification rule — so per-task latency is the max over its
// copies, and redundancy buys tail diversity only at the price of load.
// Every workload takes the same path, single-copy tasks included.

// TailClass is one multiplicity class of the workload: Tasks tasks that
// each get Copies redundant copies. A workload is a histogram of classes,
// which is exactly the shape dist.Distribution produces.
type TailClass struct {
	Copies int
	Tasks  int
}

// TailConfig parameterizes one Monte-Carlo trial population.
type TailConfig struct {
	// Classes is the multiplicity histogram of the workload.
	Classes []TailClass
	// Participants is the worker fleet size.
	Participants int

	// SpeedBase is the base per-copy compute time in virtual time units;
	// SpeedJitter widens it to an even draw from [Base, Base+Jitter).
	// SpeedSpread makes the fleet heterogeneous: each worker's compute
	// times are scaled by a per-trial factor drawn evenly from
	// [1, 1+Spread].
	SpeedBase   float64
	SpeedJitter float64
	SpeedSpread float64

	// StragglerP is the per-copy probability of a straggler episode,
	// which adds StragglerDelay (unscaled by worker speed) to that copy.
	StragglerP     float64
	StragglerDelay float64

	// Speculate enables the speculative-reissue tier: a copy still in
	// service past the fleet's SpeculatePct completion-time quantile is
	// cloned ahead of fresh queue pops; the first of the pair to finish
	// resolves the copy and the other is wasted work. The quantile is
	// gated on specMinSamples completed copies (20, health.Config's
	// default MinLatencySamples) and refreshed every 256 completions,
	// re-sweeping live copies on each refresh.
	Speculate    bool
	SpeculatePct float64

	// Seed roots the per-trial RNG streams: trial i draws from
	// rng.New(Seed).Split(i), so any subset of trials can run on any
	// worker in any order and produce identical results.
	Seed uint64
}

const (
	specMinSamples    = 20
	thetaRefreshEvery = 256
)

// Validate checks the configuration, filling no defaults.
func (c *TailConfig) Validate() error {
	if len(c.Classes) == 0 {
		return errors.New("tail: no task classes")
	}
	tasks, copies := 0, 0
	for _, cl := range c.Classes {
		if cl.Tasks < 0 {
			return fmt.Errorf("tail: negative task count %d", cl.Tasks)
		}
		if cl.Tasks > 0 && (cl.Copies < 1 || cl.Copies > 255) {
			return fmt.Errorf("tail: multiplicity %d outside [1,255]", cl.Copies)
		}
		tasks += cl.Tasks
		copies += cl.Tasks * cl.Copies
	}
	if tasks == 0 {
		return errors.New("tail: zero tasks")
	}
	// Copies and worker ids are int32 arena indices, and the event heap
	// numbers a trial's events with 32-bit seqs. A trial schedules at
	// most one completion per copy and per clone (each copy is cloned at
	// most once) plus one spawn per copy: below 1.5*MaxInt32 < 2^32
	// events under this bound.
	if copies > math.MaxInt32/2 {
		return fmt.Errorf("tail: %d copies exceeds the int32 arena limit", copies)
	}
	if c.Participants <= 0 || c.Participants > math.MaxInt32 {
		return fmt.Errorf("tail: Participants %d outside [1,%d]", c.Participants, math.MaxInt32)
	}
	for name, v := range map[string]float64{
		"SpeedBase": c.SpeedBase, "SpeedJitter": c.SpeedJitter,
		"SpeedSpread": c.SpeedSpread, "StragglerP": c.StragglerP,
		"StragglerDelay": c.StragglerDelay, "SpeculatePct": c.SpeculatePct,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("tail: %s %v must be finite and non-negative", name, v)
		}
	}
	if c.SpeedBase <= 0 {
		return fmt.Errorf("tail: SpeedBase %v must be positive", c.SpeedBase)
	}
	if c.StragglerP > 1 {
		return fmt.Errorf("tail: StragglerP %v outside [0,1]", c.StragglerP)
	}
	if c.Speculate && (c.SpeculatePct <= 0 || c.SpeculatePct >= 1) {
		return fmt.Errorf("tail: SpeculatePct %v outside (0,1)", c.SpeculatePct)
	}
	return nil
}

// TailTrial is the outcome of one simulated trial. Latency holds one
// observation per task (its certification time); the sketch is owned by
// the caller.
type TailTrial struct {
	Latency  *stats.Sketch
	Makespan float64
	// Completions counts copy completions (clones included) — the unit
	// of engine throughput.
	Completions int
	SpecIssued  int
	SpecWins    int
	SpecWasted  int
}

// Event kinds in the tail engine's event queue.
const (
	evComplete int8 = iota // arg: worker id
	evSpawn                // arg: base copy slot to clone
)

// TailEngine runs trials of one TailConfig. All state lives in arenas
// sized at construction; RunTrial resets and reuses them, so a single
// engine can run any number of trials with no steady-state allocation.
// An engine is not safe for concurrent use — parallel sweeps use one
// engine per par worker slot (see RunTailTrials).
type TailEngine struct {
	cfg     TailConfig
	nTasks  int
	nAssign int // base copy slots

	taskOf []int32 // by base slot: the task this copy certifies
	order  []int32 // pull order of base slots, shuffled per trial
	cursor int

	rem      []uint8 // by task: copies still outstanding
	resolved []bool  // by base slot: a result has been accepted
	cloned   []bool  // by base slot: a speculative clone exists

	// cloneQ is a FIFO ring of the base slots of spawned clones waiting
	// to be pulled (clones are served ahead of fresh pops); idle is a
	// stack of workers that found the queue empty and wait for clones.
	cloneQ        []int32
	cqHead, cqLen int
	idle          []int32
	nIdle         int

	// Per worker. A completion reads only these, resolved[base] and
	// rem[task]: the copy's base slot and task are recorded when it starts.
	cur      []int32 // base slot of the copy in service (-1 idle)
	curTask  []int32 // task of the copy in service
	curClone []bool  // the copy in service is a speculative clone
	curSvc   []float64
	curStart []float64
	speed    []float64

	// Each worker's in-flight completion sits in its slot of tree; the
	// heap holds only clone spawns, a few percent of events. Both take
	// their seqs from the heap's counter (see eventTree).
	tree    *eventTree
	heap    *eventHeap
	latency *stats.Sketch
	copySvc *stats.Sketch
	now     float64

	theta      float64
	thetaCount int

	completions, specIssued, specWins, specWasted int
}

// NewTailEngine validates cfg and preallocates every arena the trials
// will touch.
func NewTailEngine(cfg TailConfig) (*TailEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nTasks, nAssign := 0, 0
	for _, cl := range cfg.Classes {
		nTasks += cl.Tasks
		nAssign += cl.Tasks * cl.Copies
	}
	p := cfg.Participants
	e := &TailEngine{
		cfg:     cfg,
		nTasks:  nTasks,
		nAssign: nAssign,

		taskOf: make([]int32, nAssign),
		order:  make([]int32, nAssign),

		rem:      make([]uint8, nTasks),
		resolved: make([]bool, nAssign),

		cur:      make([]int32, p),
		curTask:  make([]int32, p),
		curClone: make([]bool, p),
		curSvc:   make([]float64, p),
		curStart: make([]float64, p),
		speed:    make([]float64, p),
		idle:     make([]int32, p),

		tree:    newEventTree(p),
		heap:    newEventHeap(p + 1),
		latency: stats.NewSketch(),
		copySvc: stats.NewSketch(),
	}
	if cfg.Speculate {
		// Every base copy is cloned at most once, so the clone queue
		// never holds more than nAssign entries and never grows mid-loop.
		e.cloned = make([]bool, nAssign)
		e.cloneQ = make([]int32, nAssign)
	}
	// Base slots are laid out task-major; taskOf never changes.
	slot := int32(0)
	task := int32(0)
	for _, cl := range cfg.Classes {
		for t := 0; t < cl.Tasks; t++ {
			for c := 0; c < cl.Copies; c++ {
				e.taskOf[slot] = task
				e.order[slot] = slot
				slot++
			}
			task++
		}
	}
	return e, nil
}

// Tasks returns the per-trial task count.
func (e *TailEngine) Tasks() int { return e.nTasks }

// Copies returns the per-trial base copy count (the redundancy spend,
// speculative clones excluded).
func (e *TailEngine) Copies() int { return e.nAssign }

// RunTrial simulates trial `trial` and returns its statistics. The result
// depends only on (cfg, trial) — never on previous trials, the calling
// goroutine, or how trials are spread across workers — because every
// random draw comes from streams split off rng.New(cfg.Seed).Split(trial).
// The returned sketch is a fresh copy; the engine may run again
// immediately.
func (e *TailEngine) RunTrial(trial int) TailTrial {
	src := rng.New(e.cfg.Seed).Split(uint64(trial))
	rDeal := src.Split(1)
	rService := src.Split(2)
	rSpeed := src.Split(3)

	// Reset arenas.
	e.tree.reset()
	e.heap.reset()
	e.latency.Reset()
	e.copySvc.Reset()
	e.cursor = 0
	e.cqHead, e.cqLen, e.nIdle = 0, 0, 0
	e.now = 0
	e.theta = math.Inf(1)
	e.thetaCount = 0
	e.completions, e.specIssued, e.specWins, e.specWasted = 0, 0, 0, 0
	for i := range e.resolved {
		e.resolved[i] = false
	}
	task := 0
	for _, cl := range e.cfg.Classes {
		for t := 0; t < cl.Tasks; t++ {
			e.rem[task] = uint8(cl.Copies)
			task++
		}
	}
	if e.cloned != nil {
		for i := range e.cloned {
			e.cloned[i] = false
		}
	}
	for w := range e.cur {
		e.cur[w] = -1
		e.speed[w] = 1 + e.cfg.SpeedSpread*rSpeed.Float64()
	}

	// The pull order: globally shuffled so a task's copies are pulled at
	// independent points of the run (the platform's Free queue shuffles
	// the same way). A reused engine still holds the previous trial's
	// permutation, so the arena returns to identity first.
	for i := range e.order {
		e.order[i] = int32(i)
	}
	rng.ShuffleSlice(rDeal, e.order)
	for w := 0; w < e.cfg.Participants; w++ {
		e.startNext(w, rService)
	}

	// The steady-state loop: pop, resolve, refill. Zero heap allocations.
	// A completion pops from the tree and leaves its event in the worker's
	// slot, so every completion handler rewrites that slot (startNext
	// serves the worker or clears it) before the next pop.
	spec := e.cfg.Speculate
	for {
		at, kind, arg, ok := e.tree.pop(e.heap)
		if !ok {
			break
		}
		e.now = at
		switch kind {
		case evComplete:
			w := int(arg)
			if spec {
				// The copy-service sketch only exists to feed the
				// speculation quantile; spec-off runs skip it.
				e.copySvc.Add(e.curSvc[w])
				e.maybeRefreshTheta()
			}
			e.completions++
			if base := e.cur[w]; !e.resolved[base] {
				e.resolved[base] = true
				if e.curClone[w] {
					e.specWins++
				}
				t := e.curTask[w]
				e.rem[t]--
				if e.rem[t] == 0 {
					e.latency.Add(at)
				}
			} else {
				e.specWasted++
			}
			e.cur[w] = -1
			e.startNext(w, rService)
		case evSpawn:
			base := arg
			if e.resolved[base] {
				break
			}
			if e.nIdle > 0 {
				// An idle worker grabs the clone immediately. It cannot
				// be the primary's own worker — that one is still busy
				// computing the straggler.
				e.nIdle--
				e.serve(int(e.idle[e.nIdle]), base, true, rService)
			} else {
				e.cloneQ[(e.cqHead+e.cqLen)%len(e.cloneQ)] = base
				e.cqLen++
			}
		}
	}
	return TailTrial{
		Latency:     e.latency.Clone(),
		Makespan:    e.now,
		Completions: e.completions,
		SpecIssued:  e.specIssued,
		SpecWins:    e.specWins,
		SpecWasted:  e.specWasted,
	}
}

// startNext pulls the worker's next copy from the shared queue — pending
// clones first (they jump ahead of fresh pops), then the next undealt
// slot — or parks the worker idle.
func (e *TailEngine) startNext(w int, rService *rng.Source) {
	for e.cqLen > 0 {
		base := e.cloneQ[e.cqHead]
		e.cqHead = (e.cqHead + 1) % len(e.cloneQ)
		e.cqLen--
		// A clone whose race was settled while it waited is dropped, as
		// the platform clears the speculation flag when the primary
		// returns first.
		if !e.resolved[base] {
			e.serve(w, base, true, rService)
			return
		}
	}
	if e.cursor < e.nAssign {
		base := e.order[e.cursor]
		e.cursor++
		e.serve(w, base, false, rService)
		return
	}
	e.tree.clear(w)
	e.idle[e.nIdle] = int32(w)
	e.nIdle++
}

// serve starts a copy of base slot base on worker w, the base copy itself
// or its speculative clone, and schedules its completion, mirroring
// platform.SpeedModel.delay: base plus an even draw of jitter (scaled by
// the worker's heterogeneity factor), plus a straggler episode's additive
// delay.
func (e *TailEngine) serve(w int, base int32, clone bool, rService *rng.Source) {
	c := &e.cfg
	s := c.SpeedBase
	if c.SpeedJitter > 0 {
		s += rService.Float64() * c.SpeedJitter
	}
	s *= e.speed[w]
	if c.StragglerP > 0 && rService.Float64() < c.StragglerP {
		s += c.StragglerDelay
	}
	e.cur[w] = base
	e.curTask[w] = e.taskOf[base]
	e.curClone[w] = clone
	e.curSvc[w] = s
	e.curStart[w] = e.now
	e.tree.set(w, e.heap.node(e.now+s, evComplete, int32(w)))
	if clone {
		e.specIssued++
		return
	}
	// The copy's service time is fixed at issue, so its clone spawn can
	// be scheduled up front: it fires only if the copy would still be in
	// service past theta, and needs no cancellation — the spawn handler
	// re-checks resolution.
	if c.Speculate && !e.cloned[base] && s > e.theta {
		e.cloned[base] = true
		e.heap.push(e.now+e.theta, evSpawn, base)
	}
}

func (e *TailEngine) maybeRefreshTheta() {
	if !e.cfg.Speculate {
		return
	}
	e.thetaCount++
	// Refresh as soon as the min-sample gate opens, then every
	// thetaRefreshEvery completions (the platform's sweeper recomputes
	// the roster quantile on every deadline tick).
	if e.thetaCount != specMinSamples && e.thetaCount%thetaRefreshEvery != 0 {
		return
	}
	if e.copySvc.Count() >= specMinSamples {
		e.theta = e.copySvc.Quantile(e.cfg.SpeculatePct)
		e.sweepSpeculate()
	}
}

// sweepSpeculate flags every in-service primary copy that will still be
// running past theta, mirroring the platform sweeper that re-examines
// live leases on each quantile refresh — without it, copies that started
// before theta first became available (the very stragglers the tier
// exists for) would never be cloned.
func (e *TailEngine) sweepSpeculate() {
	if math.IsInf(e.theta, 1) {
		return
	}
	// A worker serving a clone is skipped by cloned[base], which its
	// spawn set.
	for w, base := range e.cur {
		if base < 0 || e.cloned[base] {
			continue
		}
		if e.curSvc[w] > e.theta {
			e.cloned[base] = true
			at := e.curStart[w] + e.theta
			if at < e.now {
				at = e.now
			}
			e.heap.push(at, evSpawn, base)
		}
	}
}

// TailResult is the order-independent reduction over a set of trials.
type TailResult struct {
	Trials      int
	Tasks       int // per trial
	Copies      int // per trial (redundancy spend)
	Latency     *stats.Sketch
	MakespanSum float64
	Completions int
	SpecIssued  int
	SpecWins    int
	SpecWasted  int
}

// MeanMakespan returns the mean over trials of the last-event time.
func (r *TailResult) MeanMakespan() float64 {
	if r.Trials == 0 {
		return 0
	}
	return r.MakespanSum / float64(r.Trials)
}

// RunTailTrials runs `trials` independent trials of cfg fanned out over
// `workers` goroutines (0 = GOMAXPROCS) and reduces them in trial order.
// Because each trial's randomness is derived from its index alone and the
// sketch merge is exactly associative, the reduction is byte-identical
// for any worker count.
func RunTailTrials(cfg TailConfig, trials, workers int) (*TailResult, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("tail: trials %d must be positive", trials)
	}
	proto, err := NewTailEngine(cfg)
	if err != nil {
		return nil, err
	}
	// One engine per fan-out slot, lazily built: arenas can reach
	// hundreds of MB at 10^7-task scale, so per-trial construction would
	// dominate and per-slot reuse is what makes the fan-out pay.
	engines := make([]*TailEngine, par.Pool(trials, workers))
	engines[0] = proto
	results := make([]TailTrial, trials)
	par.ForEachWorker(trials, workers, func(slot, i int) {
		e := engines[slot]
		if e == nil {
			e, _ = NewTailEngine(cfg)
			engines[slot] = e
		}
		results[i] = e.RunTrial(i)
	})
	out := &TailResult{
		Trials:  trials,
		Tasks:   proto.nTasks,
		Copies:  proto.nAssign,
		Latency: stats.NewSketch(),
	}
	for _, tr := range results {
		out.Latency.Merge(tr.Latency)
		out.MakespanSum += tr.Makespan
		out.Completions += tr.Completions
		out.SpecIssued += tr.SpecIssued
		out.SpecWins += tr.SpecWins
		out.SpecWasted += tr.SpecWasted
	}
	return out, nil
}
