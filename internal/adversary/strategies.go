package adversary

import (
	"fmt"

	"redundancy/internal/rng"
)

// Context carries the run-time observables a state- or time-aware strategy
// may consult at decision time. The basic Strategy interface sees only the
// copy count; the pathological templates of the scenario lab
// (internal/sim) additionally react to the clock, to the coalition's
// aggregate holdings, and to what the honest pool has returned so far.
//
// A Context is always well-defined with only TaskID and CopiesHeld set (the
// two facts a coalition knows unconditionally); the remaining fields are
// zero when no richer observer is installed, and every strategy must
// degrade sensibly under that minimal view.
type Context struct {
	// TaskID identifies the task being decided.
	TaskID int
	// CopiesHeld is how many copies of the task the coalition holds at
	// decision time (>= 1).
	CopiesHeld int
	// Tasks is the total number of tasks in the computation (real +
	// ringers), or 0 when unknown.
	Tasks int
	// Progress is the fraction of all assignments already submitted back
	// to the supervisor, in [0,1]. It is the coalition's clock.
	Progress float64
	// HonestReturned counts results already returned for this task by
	// participants outside the coalition.
	HonestReturned int
	// MaxHeldAnyTask is the coalition's largest holding of any single
	// task so far — the trigger observable for sleeper agents.
	MaxHeldAnyTask int
}

// ContextStrategy is a Strategy that uses run-time observables. Coalition
// routes decisions through ShouldCheatCtx whenever the strategy implements
// this interface; ShouldCheat remains as the degraded no-observer view.
type ContextStrategy interface {
	Strategy
	// ShouldCheatCtx reports whether to cheat on the task described by ctx.
	ShouldCheatCtx(ctx Context) bool
}

// hashUnit maps (taskID, salt) to a uniform value in [0,1) with a
// splitmix64 finalizer. Per-task randomness derived this way is independent
// of event order, which keeps scenario runs deterministic under any
// scheduling interleaving: the same task draws the same coin whenever its
// decision happens.
func hashUnit(taskID int, salt uint64) float64 {
	z := rng.Mix64(uint64(int64(taskID)) + 0x9E3779B97F4A7C15 + salt*0xBF58476D1CE4E5B9)
	return float64(z>>11) / (1 << 53)
}

// Drifting is the drifting-coalition template: the cheat rate ramps
// linearly from StartRate to EndRate as the computation progresses, so a
// coalition that looked harmless when the adaptive estimator converged
// turns hostile mid-run. Decisions are a per-task coin compared against the
// rate at decision time.
type Drifting struct {
	// StartRate and EndRate bound the linear ramp, both in [0,1].
	StartRate, EndRate float64
	// Salt decorrelates the per-task coins between runs.
	Salt uint64
}

// Name implements Strategy.
func (s Drifting) Name() string {
	return fmt.Sprintf("drifting(%g->%g)", s.StartRate, s.EndRate)
}

// ShouldCheat implements Strategy: with no clock the ramp has not started.
func (s Drifting) ShouldCheat(held int) bool {
	return s.ShouldCheatCtx(Context{CopiesHeld: held})
}

// ShouldCheatCtx implements ContextStrategy.
func (s Drifting) ShouldCheatCtx(ctx Context) bool {
	if ctx.CopiesHeld < 1 {
		return false
	}
	rate := s.StartRate + (s.EndRate-s.StartRate)*clamp01(ctx.Progress)
	return hashUnit(ctx.TaskID, s.Salt) < rate
}

// Probabilistic cheats on each task independently with probability Rate,
// via a per-task coin (order-independent, hence reproducible). It is the
// cheat engine of the Sybil-churn template, where the interesting dynamics
// live in identity turnover rather than in the decision rule.
type Probabilistic struct {
	// Rate is the per-task cheat probability in [0,1].
	Rate float64
	// Salt decorrelates the per-task coins between runs.
	Salt uint64
}

// Name implements Strategy.
func (s Probabilistic) Name() string { return fmt.Sprintf("probabilistic(%g)", s.Rate) }

// ShouldCheat implements Strategy: without a task identity the coin
// degenerates to task 0's draw.
func (s Probabilistic) ShouldCheat(held int) bool {
	return s.ShouldCheatCtx(Context{CopiesHeld: held})
}

// ShouldCheatCtx implements ContextStrategy.
func (s Probabilistic) ShouldCheatCtx(ctx Context) bool {
	if ctx.CopiesHeld < 1 {
		return false
	}
	return hashUnit(ctx.TaskID, s.Salt) < s.Rate
}

// Sleeper is the sleeper-agents template: the coalition behaves perfectly
// until it first holds TriggerK copies of some single task — evidence that
// it can win a whole tuple — and from that moment on cheats on every task
// of which it holds at least TriggerK copies, including the trigger task
// itself. Until armed it is indistinguishable from an honest pool, which
// is exactly what starves the p̂ estimator.
type Sleeper struct {
	// TriggerK is the holding size that arms the coalition (>= 1; zero
	// normalizes to 2, the smallest tuple worth striking with).
	TriggerK int
}

// K returns the normalized trigger size.
func (s Sleeper) K() int {
	if s.TriggerK < 1 {
		return 2
	}
	return s.TriggerK
}

// Name implements Strategy.
func (s Sleeper) Name() string { return fmt.Sprintf("sleeper(k=%d)", s.K()) }

// ShouldCheat implements Strategy: with no aggregate view the agent never
// learns it is armed and stays asleep.
func (s Sleeper) ShouldCheat(held int) bool {
	return s.ShouldCheatCtx(Context{CopiesHeld: held})
}

// ShouldCheatCtx implements ContextStrategy.
func (s Sleeper) ShouldCheatCtx(ctx Context) bool {
	k := s.K()
	return ctx.MaxHeldAnyTask >= k && ctx.CopiesHeld >= k
}

// StragglerCover is the stragglers-as-cover template: the coalition cheats
// only on tasks none of whose honest copies have returned yet at decision
// time, betting that delayed honest copies give its agreed-upon lie a head
// start. Under full-quorum adjudication the bet never pays on a tuple with
// an honest copy outstanding — the scenario lab asserts exactly that.
type StragglerCover struct {
	// MinHeld is the smallest holding worth the risk (zero normalizes
	// to 1).
	MinHeld int
}

// Min returns the normalized holding floor.
func (s StragglerCover) Min() int {
	if s.MinHeld < 1 {
		return 1
	}
	return s.MinHeld
}

// Name implements Strategy.
func (s StragglerCover) Name() string { return fmt.Sprintf("straggler-cover(min=%d)", s.Min()) }

// ShouldCheat implements Strategy: the minimal view reports no honest
// returns, so the degraded form cheats whenever the holding clears the
// floor.
func (s StragglerCover) ShouldCheat(held int) bool {
	return s.ShouldCheatCtx(Context{CopiesHeld: held})
}

// ShouldCheatCtx implements ContextStrategy.
func (s StragglerCover) ShouldCheatCtx(ctx Context) bool {
	return ctx.CopiesHeld >= s.Min() && ctx.HonestReturned == 0
}

// Pocket is the colluding-majority-pocket template: the coalition
// concentrates its cheating on the slice [Lo, Hi) of the task-ID space
// (IDs normalized by the total task count). Because plans lay tasks out in
// multiplicity order, a pocket is a colluding majority over a contiguous
// region of the schedule — low slices cover the low-multiplicity classes,
// high slices the tail and ringers.
type Pocket struct {
	// Lo and Hi bound the attacked slice of normalized task IDs,
	// 0 <= Lo < Hi <= 1.
	Lo, Hi float64
}

// Name implements Strategy.
func (s Pocket) Name() string { return fmt.Sprintf("pocket(%g-%g)", s.Lo, s.Hi) }

// ShouldCheat implements Strategy: without the task-space extent the slice
// cannot be located and the coalition stays honest.
func (s Pocket) ShouldCheat(held int) bool {
	return s.ShouldCheatCtx(Context{CopiesHeld: held})
}

// ShouldCheatCtx implements ContextStrategy.
func (s Pocket) ShouldCheatCtx(ctx Context) bool {
	if ctx.CopiesHeld < 1 || ctx.Tasks <= 0 {
		return false
	}
	frac := float64(ctx.TaskID) / float64(ctx.Tasks)
	return frac >= s.Lo && frac < s.Hi
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
