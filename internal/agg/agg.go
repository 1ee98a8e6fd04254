// Package agg merges per-shard audit state back into the run-wide
// guarantees the paper states globally (DESIGN.md §14).
//
// Sharding partitions the task space, but Proposition 2's bound — the
// probability P(k, p) of catching an adversary controlling share p must
// stay ≥ ε — is a property of the *whole* run. The aggregator restores
// the global view from per-shard exports without touching any shard's
// hot path: each shard exports order-independent sums over its
// adjudicated verdicts (copies observed, copies implicated), and the
// merge re-derives the global Wilson interval for p̂ from the summed
// counts. Because the Wilson interval is a pure function of (bad, total)
// and both are plain sums, merging shards is exact: the aggregated
// estimate is bit-identical to what one unsharded supervisor computing
// over the same verdicts would report — the property the shard chaos
// soak asserts against an unsharded reference run.
package agg

import (
	"fmt"
	"sort"

	"redundancy/internal/adapt"
	"redundancy/internal/dist"
	"redundancy/internal/plan"
)

// ShardExport is one shard's order-independent audit summary, produced
// by (*platform.Supervisor).Export under the shard's state lock. Every
// field is a sum or count over the shard's adjudicated verdicts, so
// exports survive crash/replay unchanged (journal replay rebuilds the
// same verdicts) and merge by addition.
type ShardExport struct {
	// Shard labels the exporting shard ("shard-0", ...; empty for a lone
	// supervisor).
	Shard string
	// Tasks counts adjudicated tasks (verdicts).
	Tasks int
	// Assignments counts adjudicated copies: Σ verdict.Copies. This is
	// the Bernoulli sample count the estimator sees.
	Assignments int
	// Bad counts implicated copies: Σ len(verdict.Suspects).
	Bad int
	// Accepted counts certified tasks, Mismatches detected disagreements,
	// RingersCaught conclusive ringer failures.
	Accepted      int
	Mismatches    int
	RingersCaught int
	// Credits maps participant name → credits earned on this shard.
	// Names, not shard-local participant IDs: the same volunteer serves
	// every shard under one name but gets an independent ID per shard.
	Credits map[string]int
}

// Merged is the cluster-wide audit state reassembled from shard exports.
type Merged struct {
	Shards int
	// Summed verdict counts (see ShardExport).
	Tasks, Assignments, Bad             int
	Accepted, Mismatches, RingersCaught int
	// Estimate is the global Wilson interval for the adversary share p̂,
	// computed from the summed (Bad, Assignments) counts — exactly what
	// an unsharded estimator with no decay would report.
	Estimate adapt.Estimate
	// Credits is the merged per-name credit ledger.
	Credits map[string]int
	// ImbalancePct is the worst per-shard deviation of adjudicated
	// assignments from the mean share, in percent: max over shards of
	// |share − mean| / mean × 100. 0 for a single shard.
	ImbalancePct float64
}

// Merge folds shard exports into the global audit state. z is the Wilson
// critical value (<= 0 means adapt.DefaultZ, 95%). Merging is exact
// because every input is an order-independent sum; shard order cannot
// matter.
func Merge(exports []ShardExport, z float64) Merged {
	if z <= 0 {
		z = adapt.DefaultZ
	}
	m := Merged{Shards: len(exports), Credits: make(map[string]int)}
	for _, ex := range exports {
		m.Tasks += ex.Tasks
		m.Assignments += ex.Assignments
		m.Bad += ex.Bad
		m.Accepted += ex.Accepted
		m.Mismatches += ex.Mismatches
		m.RingersCaught += ex.RingersCaught
		for name, c := range ex.Credits {
			m.Credits[name] += c
		}
	}
	// Recompute, never average: feeding the summed counts through the
	// same estimator the supervisor uses (decay 1 = plain sums) gives the
	// identical Wilson interval an unsharded run would have produced.
	est := adapt.NewEstimator(z, 1)
	est.Observe(m.Assignments, m.Bad)
	m.Estimate = est.Estimate()
	if len(exports) > 1 && m.Assignments > 0 {
		mean := float64(m.Assignments) / float64(len(exports))
		for _, ex := range exports {
			dev := float64(ex.Assignments) - mean
			if dev < 0 {
				dev = -dev
			}
			if pct := dev / mean * 100; pct > m.ImbalancePct {
				m.ImbalancePct = pct
			}
		}
	}
	return m
}

// MinDetection evaluates the paper's global guarantee at an assumed
// adversary share p: the minimum over active multiplicity classes k of
// P(k, p) under the full (unsharded) plan's regular/ringer split. The
// returned worstK names the weakest class. ok is false when the plan has
// no regular classes to audit.
func MinDetection(p *plan.Plan, pShare float64) (minP float64, worstK int, ok bool) {
	// DetectionAtSplit requires 0 <= p < 1; a no-evidence estimate has
	// upper bound exactly 1, which we evaluate just inside the boundary
	// (detection against a total adversary, ringers aside, is hopeless —
	// the clamp keeps the trigger conservative instead of panicking).
	if pShare < 0 {
		pShare = 0
	}
	if pShare >= 1 {
		pShare = 1 - 1e-12
	}
	regular, ringers := p.SplitDistribution()
	minP = 1
	for k := 1; k <= regular.Dimension(); k++ {
		if regular.Count(k) <= 0 {
			continue
		}
		ok = true
		if pk := dist.DetectionAtSplit(regular, ringers, k, pShare); pk < minP {
			minP = pk
			worstK = k
		}
	}
	if !ok {
		return 0, 0, false
	}
	return minP, worstK, true
}

// ReplanNeeded is the cluster-level adaptive trigger, the sharded
// counterpart of the per-supervisor adapt loop: using the merged
// estimate's *upper* confidence bound as the pessimistic adversary
// share, it reports whether any class's detection probability has
// fallen below the target ε. Shards run with their own adapt loops off
// (a shard cannot re-plan the global tail); this is where the global
// decision lives.
func (m Merged) ReplanNeeded(p *plan.Plan, epsilon float64) (minP float64, needed bool) {
	minP, _, ok := MinDetection(p, m.Estimate.Upper)
	if !ok {
		return 0, false
	}
	return minP, minP < epsilon
}

// String renders a one-line audit summary for logs and bench reports.
func (m Merged) String() string {
	return fmt.Sprintf(
		"agg: %d shards, %d tasks (%d accepted, %d mismatches, %d ringers caught), p̂=%.4f [%.4f,%.4f] over %d copies, imbalance %.1f%%",
		m.Shards, m.Tasks, m.Accepted, m.Mismatches, m.RingersCaught,
		m.Estimate.PHat, m.Estimate.Lower, m.Estimate.Upper, m.Assignments, m.ImbalancePct)
}

// Leaderboard returns the merged credit ledger as sorted (name, credit)
// rows, highest credit first, ties broken by name.
func (m Merged) Leaderboard() []CreditRow {
	rows := make([]CreditRow, 0, len(m.Credits))
	for name, c := range m.Credits {
		rows = append(rows, CreditRow{Name: name, Credit: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Credit != rows[j].Credit {
			return rows[i].Credit > rows[j].Credit
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// CreditRow is one row of the merged leaderboard.
type CreditRow struct {
	Name   string
	Credit int
}
