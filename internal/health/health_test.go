package health

import (
	"testing"
	"time"
)

func mustRoster(t *testing.T, cfg Config) *Roster {
	t.Helper()
	r, err := NewRoster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigNormalizedDefaults(t *testing.T) {
	c, err := Config{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if c.SuspectLimit != 3 || c.FailureRate != 0.5 || c.MinEvents != 8 ||
		c.Probation != 10*time.Second || c.ProbationRingers != 3 ||
		c.LatencyWindow != 1024 || c.MinLatencySamples != 20 || c.EWMAAlpha != 0.2 {
		t.Errorf("unexpected defaults: %+v", c)
	}
}

func TestConfigNormalizedRejects(t *testing.T) {
	bad := []Config{
		{SuspectLimit: -1},
		{FailureRate: 1.5},
		{FailureRate: -0.1},
		{MinEvents: -2},
		{Probation: -time.Second},
		{ProbationRingers: -1},
		{LatencyWindow: -5},
		{MinLatencySamples: -1},
		{EWMAAlpha: 2},
		{EWMAAlpha: -0.5},
	}
	for i, c := range bad {
		if _, err := c.Normalized(); err == nil {
			t.Errorf("config %d (%+v): want error, got none", i, c)
		}
	}
}

func TestSuspectQuarantine(t *testing.T) {
	r := mustRoster(t, Config{SuspectLimit: 2})
	now := time.Unix(1000, 0)
	if tr := r.ObserveVerdict(7, true, false, now); tr != nil {
		t.Fatalf("first suspect transitioned: %+v", tr)
	}
	if got := r.State(7); got != Healthy {
		t.Fatalf("state after one suspect: %v", got)
	}
	tr := r.ObserveVerdict(7, true, false, now)
	if tr == nil || tr.To != Quarantined || tr.Reason != "suspects" {
		t.Fatalf("second suspect: %+v, want quarantine on suspects", tr)
	}
	if got := r.State(7); got != Quarantined {
		t.Fatalf("state = %v, want Quarantined", got)
	}
	if s := r.Score(7); s != 0 {
		t.Errorf("quarantined score = %v, want 0", s)
	}
	if !r.AnyUnhealthy() {
		t.Error("AnyUnhealthy false with a quarantined participant")
	}
	// Further suspects while quarantined change nothing.
	if tr := r.ObserveVerdict(7, true, false, now); tr != nil {
		t.Errorf("suspect while quarantined transitioned: %+v", tr)
	}
}

func TestFailureRateQuarantine(t *testing.T) {
	r := mustRoster(t, Config{FailureRate: 0.5, MinEvents: 4})
	now := time.Unix(2000, 0)
	r.ObserveCompletion(3, 10*time.Millisecond)
	// Three reclaims: below MinEvents until the fourth resolved lease.
	if tr := r.ObserveReclaim(3, now); tr != nil {
		t.Fatalf("reclaim 1 transitioned: %+v", tr)
	}
	if tr := r.ObserveReclaim(3, now); tr != nil {
		t.Fatalf("reclaim 2 transitioned: %+v", tr)
	}
	tr := r.ObserveReclaim(3, now)
	if tr == nil || tr.To != Quarantined || tr.Reason != "failure_rate" {
		t.Fatalf("reclaim 3 (rate 3/4): %+v, want failure_rate quarantine", tr)
	}
}

func TestFailureRateNeedsMinEvents(t *testing.T) {
	r := mustRoster(t, Config{FailureRate: 0.5, MinEvents: 8})
	now := time.Unix(3000, 0)
	for i := 0; i < 7; i++ {
		if tr := r.ObserveReclaim(9, now); tr != nil {
			t.Fatalf("reclaim %d below MinEvents transitioned: %+v", i+1, tr)
		}
	}
	if tr := r.ObserveReclaim(9, now); tr == nil {
		t.Fatal("8th reclaim (rate 1.0, events 8) did not quarantine")
	}
}

func TestProbationAndReadmission(t *testing.T) {
	r := mustRoster(t, Config{SuspectLimit: 1, Probation: time.Minute, ProbationRingers: 2})
	t0 := time.Unix(5000, 0)
	if tr := r.ObserveVerdict(4, true, false, t0); tr == nil || tr.To != Quarantined {
		t.Fatalf("suspect limit 1: %+v", tr)
	}
	// Too early: no probation yet.
	if trs := r.Tick(t0.Add(30 * time.Second)); len(trs) != 0 {
		t.Fatalf("early tick transitioned: %+v", trs)
	}
	trs := r.Tick(t0.Add(time.Minute))
	if len(trs) != 1 || trs[0].To != Probation || trs[0].Reason != "probation" {
		t.Fatalf("probation tick: %+v", trs)
	}
	if got := r.State(4); got != Probation {
		t.Fatalf("state = %v, want Probation", got)
	}
	if s := r.Score(4); s > 0.5 {
		t.Errorf("probation score %v above the 0.5 cap", s)
	}
	// Ringer verdicts that implicate the participant do not advance
	// re-admission; clean ones do.
	t1 := t0.Add(2 * time.Minute)
	if tr := r.ObserveVerdict(4, false, true, t1); tr != nil {
		t.Fatalf("first clean ringer transitioned: %+v", tr)
	}
	tr := r.ObserveVerdict(4, false, true, t1)
	if tr == nil || tr.To != Healthy || tr.Reason != "readmitted" {
		t.Fatalf("second clean ringer: %+v, want readmission", tr)
	}
	if got := r.State(4); got != Healthy {
		t.Fatalf("state = %v, want Healthy", got)
	}
	if r.AnyUnhealthy() {
		t.Error("AnyUnhealthy true after readmission")
	}
	// The slate is clean: one new suspect does not instantly re-quarantine
	// (limit 1 reached again, so it does — use a fresh roster check).
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Suspects != 0 || snap[0].Reclaims != 0 {
		t.Errorf("readmission did not wipe the slate: %+v", snap)
	}
}

func TestProbationSuspectRestartsQuarantine(t *testing.T) {
	r := mustRoster(t, Config{SuspectLimit: 1, Probation: time.Second})
	t0 := time.Unix(6000, 0)
	r.ObserveVerdict(2, true, false, t0)
	r.Tick(t0.Add(time.Second))
	if got := r.State(2); got != Probation {
		t.Fatalf("state = %v, want Probation", got)
	}
	tr := r.ObserveVerdict(2, true, false, t0.Add(2*time.Second))
	if tr == nil || tr.To != Quarantined {
		t.Fatalf("suspect during probation: %+v, want re-quarantine", tr)
	}
	// The probation clock restarted at the re-entry time.
	if trs := r.Tick(t0.Add(2500 * time.Millisecond)); len(trs) != 0 {
		t.Fatalf("probation clock did not restart: %+v", trs)
	}
	if trs := r.Tick(t0.Add(3 * time.Second)); len(trs) != 1 {
		t.Fatalf("restarted clock never elapsed: %+v", trs)
	}
}

func TestQuantileGatedByMinSamples(t *testing.T) {
	r := mustRoster(t, Config{MinLatencySamples: 4, LatencyWindow: 8})
	for i := 0; i < 3; i++ {
		r.ObserveCompletion(1, 10*time.Millisecond)
	}
	if _, ok := r.Quantile(0.9); ok {
		t.Fatal("quantile answered below MinLatencySamples")
	}
	r.ObserveCompletion(1, 10*time.Millisecond)
	if q, ok := r.Quantile(0.9); !ok || q != 10*time.Millisecond {
		t.Fatalf("quantile = %v ok=%v, want 10ms", q, ok)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	r := mustRoster(t, Config{MinLatencySamples: 1, LatencyWindow: 100})
	for i := 1; i <= 100; i++ {
		r.ObserveCompletion(i%5, time.Duration(i)*time.Millisecond)
	}
	q50, _ := r.Quantile(0.5)
	q99, _ := r.Quantile(0.99)
	if q50 < 50*time.Millisecond || q50 > 52*time.Millisecond {
		t.Errorf("p50 = %v", q50)
	}
	if q99 < 99*time.Millisecond || q99 > 100*time.Millisecond {
		t.Errorf("p99 = %v", q99)
	}
	// Clamped arguments do not panic or overflow the window.
	if _, ok := r.Quantile(1.5); !ok {
		t.Error("clamped quantile q>1 failed")
	}
	if _, ok := r.Quantile(-1); !ok {
		t.Error("clamped quantile q<0 failed")
	}
}

func TestWindowWrapsOldSamplesOut(t *testing.T) {
	r := mustRoster(t, Config{MinLatencySamples: 1, LatencyWindow: 4})
	for i := 0; i < 4; i++ {
		r.ObserveCompletion(0, time.Second)
	}
	for i := 0; i < 4; i++ {
		r.ObserveCompletion(0, time.Millisecond)
	}
	if q, _ := r.Quantile(1); q != time.Millisecond {
		t.Errorf("max of wrapped window = %v, want 1ms (old seconds evicted)", q)
	}
}

func TestScoreShape(t *testing.T) {
	r := mustRoster(t, Config{SuspectLimit: 100})
	if s := r.Score(42); s != 1 {
		t.Fatalf("unknown participant score = %v, want 1", s)
	}
	for i := 0; i < 20; i++ {
		r.ObserveCompletion(1, 10*time.Millisecond)
		r.ObserveCompletion(2, 10*time.Millisecond)
	}
	clean := r.Score(1)
	r.ObserveVerdict(2, true, false, time.Unix(0, 0))
	r.ObserveVerdict(2, true, false, time.Unix(0, 0))
	dirty := r.Score(2)
	if dirty >= clean {
		t.Errorf("suspect verdicts did not lower score: clean=%v dirty=%v", clean, dirty)
	}
	// A slow host scores below a fast one with the same record.
	for i := 0; i < 30; i++ {
		r.ObserveCompletion(3, 500*time.Millisecond)
	}
	if slow := r.Score(3); slow >= clean {
		t.Errorf("latency did not lower score: fast=%v slow=%v", clean, slow)
	}
}

func TestSnapshotOrderedAndComplete(t *testing.T) {
	r := mustRoster(t, Config{})
	r.ObserveCompletion(5, 10*time.Millisecond)
	r.ObserveCompletion(1, 20*time.Millisecond)
	r.ObserveReclaim(3, time.Unix(0, 0))
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	for i, want := range []int{1, 3, 5} {
		if snap[i].Participant != want {
			t.Errorf("snapshot[%d] = participant %d, want %d", i, snap[i].Participant, want)
		}
	}
	if snap[0].Completions != 1 || snap[1].Reclaims != 1 {
		t.Errorf("snapshot counts wrong: %+v", snap)
	}
}

// TestSnapshotAllocsFlat: a Snapshot scores every participant against one
// median of the latency window, so it allocates the same at 1 participant
// and at 64.
func TestSnapshotAllocsFlat(t *testing.T) {
	allocs := func(participants int) float64 {
		r := mustRoster(t, Config{})
		for i := 0; i < 1024; i++ {
			r.ObserveCompletion(i%participants, time.Duration(1+i%7)*time.Millisecond)
		}
		return testing.AllocsPerRun(20, func() { r.Snapshot() })
	}
	if one, many := allocs(1), allocs(64); many != one {
		t.Errorf("Snapshot allocates %v times at 64 participants and %v at 1, want the same", many, one)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Healthy: "healthy", Quarantined: "quarantined", Probation: "probation", State(9): "State(9)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestRingerStarvedProbationExpires(t *testing.T) {
	r := mustRoster(t, Config{SuspectLimit: 1, Probation: time.Minute, ProbationRingers: 2})
	t0 := time.Unix(7000, 0)
	// Starvation reports against Healthy or Quarantined participants are
	// no-ops: only probation has a clock to run out.
	if tr := r.ObserveRingerStarved(9, t0); tr != nil {
		t.Fatalf("healthy starvation transitioned: %+v", tr)
	}
	r.ObserveVerdict(9, true, false, t0)
	if tr := r.ObserveRingerStarved(9, t0.Add(time.Hour)); tr != nil {
		t.Fatalf("quarantined starvation transitioned: %+v", tr)
	}
	r.Tick(t0.Add(time.Minute))
	if got := r.State(9); got != Probation {
		t.Fatalf("state = %v, want Probation", got)
	}
	// The expiry clock runs from probation entry: a starved request half
	// a period in changes nothing.
	if tr := r.ObserveRingerStarved(9, t0.Add(90*time.Second)); tr != nil {
		t.Fatalf("early starvation transitioned: %+v", tr)
	}
	tr := r.ObserveRingerStarved(9, t0.Add(2*time.Minute))
	if tr == nil || tr.To != Healthy || tr.Reason != "probation_expired" {
		t.Fatalf("starved expiry: %+v, want probation_expired re-admission", tr)
	}
	if got := r.State(9); got != Healthy {
		t.Fatalf("state = %v, want Healthy", got)
	}
	// Same slate-wipe as a ringer-proven re-admission: the evidence
	// counters restart, so repeat misbehavior re-quarantines cleanly.
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Suspects != 0 {
		t.Errorf("expiry did not wipe the slate: %+v", snap)
	}
	if tr := r.ObserveVerdict(9, true, false, t0.Add(3*time.Minute)); tr == nil || tr.To != Quarantined {
		t.Fatalf("post-expiry suspect did not re-quarantine: %+v", tr)
	}
}
