// Package health is the supervisor's participant-health subsystem: it
// turns the lease lifecycle's raw observations — completion latencies,
// verification verdicts, deadline reclaims — into a per-participant health
// score, a global completion-time distribution (the percentile the
// speculative reissue tier triggers on), and a quarantine state machine.
//
// The paper's redundancy machinery answers "is this result a lie?"; this
// package answers the two operational questions next to it: "is this host
// too slow or too suspicious to keep feeding?" and "when is a still-leased
// copy late enough that issuing a duplicate is cheaper than waiting?"
// Behrouzi-Far/Soljanin (arXiv 2006.02318) motivate replication as the
// straggler remedy; the job-cloning framing (arXiv 2402.12584) supplies
// the trigger we adopt — clone when a lease outlives a completion-time
// percentile, not on a fixed timer.
//
// A participant moves through three states:
//
//	Healthy ──(suspect verdicts ≥ SuspectLimit, or deadline-reclaim
//	           rate ≥ FailureRate over ≥ MinEvents leases)──▶ Quarantined
//	Quarantined ──(Probation elapsed, via Tick)──▶ Probation
//	Probation ──(ProbationRingers clean ringer verdicts)──▶ Healthy
//
// Quarantined participants receive no leases at all; probation
// participants receive only ringer work — assignments the supervisor can
// check against precomputed truth, so a cheater re-admitting itself walks
// straight back into the oracle. Quarantine is reactive and reversible by
// design: a 2-way mismatch suspects both parties, so honest participants
// framed by an adversary do land here occasionally, and the probation path
// is how they earn their way out. Conclusive (ringer) convictions are a
// separate, permanent mechanism owned by internal/verify.
//
// A Roster is a value: it has no lock and reads no clock. Its owner
// serializes every call (the supervisor holds its state mutex) and hands
// it every time.
package health

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"redundancy/internal/stats"
)

// State is a participant's standing in the roster.
type State int

// The three standings. Zero value is Healthy, so an unknown participant
// is served normally.
const (
	Healthy State = iota
	Quarantined
	Probation
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config tunes the roster. The zero value of any field selects its
// default (see Normalized); a zero Config is therefore usable as "health
// tracking with stock thresholds".
type Config struct {
	// SuspectLimit is how many suspect verdicts (mismatch implications on
	// regular tasks) quarantine a participant. Default 3.
	SuspectLimit int
	// FailureRate quarantines a participant whose deadline-reclaim
	// fraction — reclaims / (reclaims + completions) — reaches this value,
	// once at least MinEvents leases have resolved. Default 0.5.
	FailureRate float64
	// MinEvents is the minimum resolved leases (completions + reclaims)
	// before FailureRate applies, so one early timeout cannot quarantine a
	// fresh participant. Default 8.
	MinEvents int
	// Probation is how long a participant sits fully quarantined before
	// Tick moves it to ringer-only probation. Default 10s.
	Probation time.Duration
	// ProbationRingers is how many clean ringer verdicts a probation
	// participant must contribute to to be re-admitted. Default 3.
	ProbationRingers int
	// LatencyWindow is the size of the global completion-latency window
	// (a stats.Window) the speculation percentile is computed over. Once
	// full it holds between ceil(LatencyWindow/2) and LatencyWindow of
	// the latest completions; a window under twice MinLatencySamples
	// holds between MinLatencySamples and twice that. Default 1024.
	LatencyWindow int
	// MinLatencySamples gates Quantile: below this many observations it
	// reports no answer, so speculation cannot trigger off noise.
	// Default stats.MinQuantileSamples (20).
	MinLatencySamples int
	// EWMAAlpha is the smoothing factor of the per-participant latency
	// EWMA (weight of the newest observation). Default 0.2.
	EWMAAlpha float64
}

// Normalized fills defaults and validates ranges, returning the effective
// configuration.
func (c Config) Normalized() (Config, error) {
	if c.SuspectLimit == 0 {
		c.SuspectLimit = 3
	}
	if c.FailureRate == 0 {
		c.FailureRate = 0.5
	}
	if c.MinEvents == 0 {
		c.MinEvents = 8
	}
	if c.Probation == 0 {
		c.Probation = 10 * time.Second
	}
	if c.ProbationRingers == 0 {
		c.ProbationRingers = 3
	}
	if c.LatencyWindow == 0 {
		c.LatencyWindow = 1024
	}
	if c.MinLatencySamples == 0 {
		c.MinLatencySamples = stats.MinQuantileSamples
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.2
	}
	switch {
	case c.SuspectLimit < 1:
		return Config{}, errors.New("health: SuspectLimit must be at least 1")
	case c.FailureRate < 0 || c.FailureRate > 1:
		return Config{}, fmt.Errorf("health: FailureRate %v outside [0,1]", c.FailureRate)
	case c.MinEvents < 1:
		return Config{}, errors.New("health: MinEvents must be at least 1")
	case c.Probation < 0:
		return Config{}, errors.New("health: negative Probation")
	case c.ProbationRingers < 1:
		return Config{}, errors.New("health: ProbationRingers must be at least 1")
	case c.LatencyWindow < 1:
		return Config{}, errors.New("health: LatencyWindow must be at least 1")
	case c.MinLatencySamples < 1:
		return Config{}, errors.New("health: MinLatencySamples must be at least 1")
	case c.EWMAAlpha <= 0 || c.EWMAAlpha > 1:
		return Config{}, fmt.Errorf("health: EWMAAlpha %v outside (0,1]", c.EWMAAlpha)
	}
	return c, nil
}

// Transition records one state change, for the supervisor to turn into
// events, metrics, and lease reclamation.
type Transition struct {
	Participant int
	From, To    State
	// Reason is a short machine tag: "suspects", "failure_rate",
	// "probation", "readmitted".
	Reason string
}

// participant is one host's accumulated evidence.
type participant struct {
	id    int
	state State
	since time.Time // entered current state

	completions int
	reclaims    int // deadline reclaims (stalls and stragglers, not disconnects)
	suspects    int // mismatch implications on regular tasks

	latEWMA float64 // seconds; 0 until first completion

	cleanRingers int // clean ringer verdicts contributed during probation
}

// Roster tracks the health of every participant the supervisor has
// observed. It is not safe for concurrent use: its owner serializes it.
type Roster struct {
	cfg   Config
	parts map[int]*participant
	order []*participant // parts' values ascending by id, for Tick and Snapshot

	// lat is the global completion-latency window (seconds), the
	// distribution behind Quantile and the median Score reads.
	lat *stats.Window

	quarantined int // currently not Healthy (Quarantined or Probation)

	snap []ParticipantHealth // Snapshot's reused result
}

// NewRoster validates cfg (zero fields default) and builds a roster.
func NewRoster(cfg Config) (*Roster, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	return &Roster{
		cfg:   norm,
		parts: make(map[int]*participant),
		lat:   stats.NewWindow(norm.LatencyWindow, norm.MinLatencySamples),
	}, nil
}

// Config returns the roster's effective (normalized) configuration.
func (r *Roster) Config() Config { return r.cfg }

func (r *Roster) part(id int) *participant {
	p, ok := r.parts[id]
	if !ok {
		p = &participant{id: id}
		r.parts[id] = p
		// IDs mostly arrive ascending, so this is usually an append.
		i, _ := slices.BinarySearchFunc(r.order, id, func(p *participant, id int) int { return cmp.Compare(p.id, id) })
		r.order = slices.Insert(r.order, i, p)
	}
	return p
}

// ObserveCompletion records one accepted result: d is the time the copy
// spent with this participant (issue to accept). It feeds the
// participant's latency EWMA, the failure-rate denominator, and the
// global completion-time window.
func (r *Roster) ObserveCompletion(id int, d time.Duration) {
	sec := d.Seconds()
	if sec < 0 {
		sec = 0
	}
	p := r.part(id)
	p.completions++
	if p.latEWMA == 0 {
		p.latEWMA = sec
	} else {
		p.latEWMA += r.cfg.EWMAAlpha * (sec - p.latEWMA)
	}
	r.lat.Add(sec)
}

// ObserveVerdict records one adjudicated task's implication for a
// participant: suspect reports whether the verdict implicated them,
// ringer whether the task was supervisor-precomputed. Clean ringer
// verdicts advance probation; suspect verdicts on regular tasks
// accumulate toward quarantine. It returns a non-nil Transition when the
// observation changed the participant's state.
func (r *Roster) ObserveVerdict(id int, suspect, ringer bool, now time.Time) *Transition {
	p := r.part(id)
	if suspect && !ringer {
		p.suspects++
		if p.state == Healthy && p.suspects >= r.cfg.SuspectLimit {
			return r.enter(id, p, Quarantined, "suspects", now)
		}
		if p.state == Probation {
			// Implicated again while on probation: back to full quarantine,
			// clock restarted.
			return r.enter(id, p, Quarantined, "suspects", now)
		}
		return nil
	}
	if ringer && !suspect && p.state == Probation {
		p.cleanRingers++
		if p.cleanRingers >= r.cfg.ProbationRingers {
			return r.enter(id, p, Healthy, "readmitted", now)
		}
	}
	return nil
}

// ObserveReclaim records one deadline reclaim (a lease the participant
// held past the hard deadline — a stall, a sleeper, a straggler beyond
// rescue). Disconnect reclaims are deliberately not fed here: volunteer
// churn is normal, holding a lease silently is the failure signal. It
// returns a non-nil Transition when the failure rate quarantined the
// participant.
func (r *Roster) ObserveReclaim(id int, now time.Time) *Transition {
	p := r.part(id)
	p.reclaims++
	if p.state != Healthy {
		return nil
	}
	events := p.completions + p.reclaims
	if events < r.cfg.MinEvents {
		return nil
	}
	if rate := float64(p.reclaims) / float64(events); rate >= r.cfg.FailureRate {
		return r.enter(id, p, Quarantined, "failure_rate", now)
	}
	return nil
}

// ObserveRingerStarved records that a probationary participant asked for
// work and the supervisor had no ringer copy to offer it. Probation is
// ringer-gated but time-bounded: a plan's ringer supply is finite (some
// plans mint none at all), so a participant that has sat out a full
// additional Probation period with nothing to prove itself on is
// re-admitted on the clock instead ("probation_expired"). Without the
// bound, a fleet-wide quarantine would deadlock the run the moment the
// last ringer copy was spent — no healthy participant left to drain the
// regular queue, no ringer left to earn re-admission with. The clock
// restarts from the probation entry, so the starved path is never faster
// than the ringer path could have been, and a suspect verdict during the
// wait still re-quarantines as usual.
func (r *Roster) ObserveRingerStarved(id int, now time.Time) *Transition {
	p := r.part(id)
	if p.state != Probation || now.Sub(p.since) < r.cfg.Probation {
		return nil
	}
	return r.enter(id, p, Healthy, "probation_expired", now)
}

// Tick advances time-driven transitions: every participant quarantined
// for at least Probation moves to ringer-only probation. The supervisor's
// deadline sweeper calls it once per sweep.
func (r *Roster) Tick(now time.Time) []Transition {
	var out []Transition
	for _, p := range r.order {
		if p.state == Quarantined && now.Sub(p.since) >= r.cfg.Probation {
			if tr := r.enter(p.id, p, Probation, "probation", now); tr != nil {
				out = append(out, *tr)
			}
		}
	}
	return out
}

// enter moves p to state, resetting the evidence the new state restarts
// from.
func (r *Roster) enter(id int, p *participant, state State, reason string, now time.Time) *Transition {
	from := p.state
	if from == state {
		return nil
	}
	if from == Healthy && state != Healthy {
		r.quarantined++
	}
	if from != Healthy && state == Healthy {
		r.quarantined--
	}
	p.state = state
	p.since = now
	p.cleanRingers = 0
	if state == Healthy {
		// Re-admission wipes the circumstantial slate: the participant
		// proved itself against the oracle, so stale suspect counts and
		// reclaim history must not instantly re-quarantine it.
		p.suspects = 0
		p.reclaims = 0
	}
	return &Transition{Participant: id, From: from, To: state, Reason: reason}
}

// State returns a participant's standing (Healthy if never observed).
func (r *Roster) State(id int) State {
	if p, ok := r.parts[id]; ok {
		return p.state
	}
	return Healthy
}

// AnyUnhealthy reports whether any participant is currently quarantined
// or on probation — a cheap guard so the hot lease path can skip
// per-participant gate checks entirely while everyone is healthy.
func (r *Roster) AnyUnhealthy() bool {
	return r.quarantined > 0
}

// Score reduces a participant's evidence to one gauge value in [0, 1]:
// 1 is a clean, responsive host; 0 is quarantined. The base is a
// Laplace-smoothed clean-work fraction (suspect verdicts weighted 4x a
// timeout — lying is worse than stalling), scaled down by how far the
// host's latency EWMA sits above the global median. Probation caps the
// score at 0.5 so dashboards can see re-admission in progress.
func (r *Roster) Score(id int) float64 {
	p, ok := r.parts[id]
	if !ok {
		return 1
	}
	med, _ := r.lat.Quantile(0.5)
	return scoreOf(p, med)
}

// scoreOf is Score's formula for p, given the window's median latency in
// seconds (0 while the window is below MinLatencySamples). The caller
// reads the median once, however many participants it scores.
func scoreOf(p *participant, med float64) float64 {
	if p.state == Quarantined {
		return 0
	}
	score := float64(p.completions+1) / float64(p.completions+1+4*p.suspects+p.reclaims)
	if med > 0 && p.latEWMA > med {
		score *= med / p.latEWMA
	}
	if p.state == Probation && score > 0.5 {
		score = 0.5
	}
	return score
}

// Quantile returns the q-th completion-time quantile of the global
// latency window (stats.Window.Quantile: q clamps to [0,1], and q = 1 is
// the exact maximum), and false until MinLatencySamples observations are
// held.
func (r *Roster) Quantile(q float64) (time.Duration, bool) {
	sec, ok := r.lat.Quantile(q)
	if !ok {
		return 0, false
	}
	return time.Duration(sec * float64(time.Second)), true
}

// ParticipantHealth is one roster entry in a Snapshot.
type ParticipantHealth struct {
	Participant int
	State       State
	Score       float64
	Completions int
	Reclaims    int
	Suspects    int
	// LatencyEWMA is the smoothed per-copy completion latency.
	LatencyEWMA time.Duration
}

// Snapshot returns every observed participant's health, ascending by ID —
// the export surface for the per-participant gauge and operator
// summaries. The slice is the roster's own, reused by the next Snapshot,
// so a warm Snapshot allocates nothing.
func (r *Roster) Snapshot() []ParticipantHealth {
	out := r.snap[:0]
	med, _ := r.lat.Quantile(0.5)
	for _, p := range r.order {
		out = append(out, ParticipantHealth{
			Participant: p.id,
			State:       p.state,
			Score:       scoreOf(p, med),
			Completions: p.completions,
			Reclaims:    p.reclaims,
			Suspects:    p.suspects,
			LatencyEWMA: time.Duration(p.latEWMA * float64(time.Second)),
		})
	}
	r.snap = out
	return out
}
