package adapt

import (
	"math"
	"slices"
	"sort"

	"redundancy/internal/dist"
	"redundancy/internal/plan"
)

// TaskState is one plan task as the controller sees it mid-run.
type TaskState struct {
	// ID is the task's plan ID.
	ID int
	// Copies is the task's current multiplicity (after prior revisions).
	Copies int
	// Ringer marks supervisor-precomputed tasks.
	Ringer bool
	// Eligible marks tasks no copy of which has ever been issued to a
	// worker. Only eligible tasks may be promoted: raising the expected
	// copy count of a task with assignments in flight would either break
	// lease exclusivity (reissuing a live copy) or change the tuple a
	// half-submitted result set is verified against. Ineligible classes
	// are instead reinforced by minting fresh ringers.
	Eligible bool
}

// Safety caps on a single revision. maxMintsPerRevision bounds the ringer
// tasks (each supervisor-computed, hence expensive) one revision may mint;
// if the cap is hit the controller returns satisfied=false rather than an
// absurd plan — the operator's p guess was wrong by far more than a
// control loop should paper over.
const (
	maxMintsPerRevision = 4096
	maxReplanPasses     = 8
	replanTol           = 1e-9
	// maxDefendableP caps the adversary share the controller plans
	// against. Above it the (1−p)^{i−k} attenuation makes every
	// denominator vanish and no finite revision helps.
	maxDefendableP = 0.9
	// histBuf is the class count Replan's histograms hold without
	// allocating; a plan with more classes grows them on the heap.
	histBuf = 32
)

// replanner carries the mutable sweep state of one Replan call.
type replanner struct {
	eps, q   float64 // q = 1 − pUpper
	pUpper   float64
	reg      *dist.Distribution
	ring     *dist.Distribution
	eligible map[int][]int // multiplicity -> IDs of promotable tasks
	promoted map[int]int   // task ID -> index into rev.Promotions
	origFrom map[int]int   // task ID -> multiplicity before this revision
	nextID   int
	rev      plan.Revision
	// promoteCeil bounds how high promotions may climb. Without it a
	// deficient singleton class ratchets its own task upward forever (each
	// promotion leaves the task eligible in the next class, which is then
	// deficient too); past the ceiling the deficit is fixed by minting,
	// which terminates.
	promoteCeil int
}

// Replan decides whether the deployment defends the detection target
// against an adversary holding share pUpper of assignments, and if not,
// computes a revision that restores it.
//
// The controller sweeps multiplicity classes from k = 1 upward. For every
// class with regular task mass it checks P_{k,pUpper} (the split form of
// Proposition 2 — ringer mass strengthens denominators but can never be an
// escape). While a class falls short it first promotes eligible class-k
// tasks to k+1 — each promotion removes escape mass and adds covering
// mass — and once the class has no promotable tasks left it mints ringers
// at k+1, whose count follows analytically from the required denominator
// x_k/(1−ε). Promotions can shift a deficit to neighbouring classes
// (moving mass from k to k+1 shrinks class j<k's covering sum whenever
// (k+1)/(k+1−j)·(1−p) < 1), so the sweep runs multiple passes; the final
// pass is mint-only, which monotonically helps every class and therefore
// converges.
//
// The returned revision is empty when every class already meets eps.
// satisfied reports whether the revised deployment meets eps everywhere;
// it is false only if a safety cap was hit.
func Replan(tasks []TaskState, nextID int, eps, pUpper float64) (rev plan.Revision, satisfied bool) {
	if !(eps > 0 && eps < 1) {
		return plan.Revision{}, false
	}
	if pUpper < 0 {
		pUpper = 0
	}
	if pUpper > maxDefendableP {
		pUpper = maxDefendableP
	}
	// The class histograms are counted into stack buffers, and the
	// replanner (whose promotion bookkeeping is heap-bound) is built only
	// once a class falls short, so a tick whose deployment already meets
	// eps allocates nothing.
	var regBuf, ringBuf [histBuf]float64
	regC, ringC := regBuf[:0], ringBuf[:0]
	for _, t := range tasks {
		switch {
		case t.Copies < 1:
		case t.Ringer:
			ringC = cover(ringC, t.Copies)
			ringC[t.Copies-1]++
		default:
			regC = cover(regC, t.Copies)
			regC[t.Copies-1]++
		}
	}
	if meets(&dist.Distribution{Counts: regC}, &dist.Distribution{Counts: ringC}, eps, pUpper) {
		return plan.Revision{}, true
	}
	r := &replanner{
		eps:      eps,
		pUpper:   pUpper,
		q:        1 - pUpper,
		reg:      &dist.Distribution{Name: "replan-regular", Counts: slices.Clone(regC)},
		ring:     &dist.Distribution{Name: "replan-ringers", Counts: slices.Clone(ringC)},
		eligible: make(map[int][]int),
		promoted: make(map[int]int),
		origFrom: make(map[int]int),
		nextID:   nextID,
	}
	for _, t := range tasks {
		if t.Copies >= 1 && !t.Ringer && t.Eligible {
			r.eligible[t.Copies] = append(r.eligible[t.Copies], t.ID)
		}
	}
	// Deterministic promotion order regardless of input order.
	for _, ids := range r.eligible {
		sort.Ints(ids)
	}
	r.promoteCeil = r.maxClass() + maxReplanPasses

	for pass := 0; pass < maxReplanPasses; pass++ {
		mintOnly := pass == maxReplanPasses-1
		if !r.sweep(mintOnly) {
			break
		}
	}
	return r.rev, r.allSatisfied()
}

func (r *replanner) detection(k int) float64 {
	return dist.DetectionAtSplit(r.reg, r.ring, k, r.pUpper)
}

func (r *replanner) maxClass() int {
	if len(r.reg.Counts) > len(r.ring.Counts) {
		return len(r.reg.Counts)
	}
	return len(r.ring.Counts)
}

// sweep runs one ascending pass over the classes, reporting whether it
// changed anything.
func (r *replanner) sweep(mintOnly bool) bool {
	changed := false
	for k := 1; k <= r.maxClass(); k++ { // maxClass grows as promotions land
		if r.reg.Count(k) == 0 {
			continue // ringer-only or empty class: nothing to escape on
		}
		if !mintOnly && k < r.promoteCeil {
			for r.detection(k) < r.eps-replanTol && len(r.eligible[k]) > 0 {
				r.promote(k)
				changed = true
			}
		}
		if r.detection(k) < r.eps-replanTol {
			if !r.mintFor(k) {
				return false // cap hit; stop burning passes
			}
			changed = true
		}
	}
	return changed
}

// promote raises the first eligible class-k task to k+1. A task promoted
// repeatedly within one revision collapses into a single Promotion record
// (From = its pre-revision multiplicity), since plan revisions apply one
// step per task.
func (r *replanner) promote(k int) {
	ids := r.eligible[k]
	id := ids[0]
	r.eligible[k] = ids[1:]
	r.reg.SetCount(k, r.reg.Count(k)-1)
	r.reg.SetCount(k+1, r.reg.Count(k+1)+1)
	// Promoted tasks stay unissued, hence still promotable at k+1.
	r.eligible[k+1] = insertSorted(r.eligible[k+1], id)
	if i, ok := r.promoted[id]; ok {
		r.rev.Promotions[i].To = k + 1
		return
	}
	r.origFrom[id] = k
	r.promoted[id] = len(r.rev.Promotions)
	r.rev.Promotions = append(r.rev.Promotions, plan.Promotion{TaskID: id, From: k, To: k + 1})
}

// mintFor mints ringers at k+1 until class k meets eps, or the revision's
// mint cap is hit (returns false). The count follows analytically: class k
// needs covering sum D ≥ x_k/(1−ε), and each ringer at k+1 contributes
// C(k+1,k)·(1−p) = (k+1)·(1−p) to it.
func (r *replanner) mintFor(k int) bool {
	xk := r.reg.Count(k)
	need := xk / (1 - r.eps)
	// Current covering sum, recovered from the detection value:
	// P = 1 − x_k/D  ⇒  D = x_k/(1−P).
	cur := xk / (1 - r.detection(k))
	per := float64(k+1) * r.q
	m := int(math.Ceil((need - cur) / per))
	if m < 1 {
		m = 1
	}
	for m > 0 || r.detection(k) < r.eps-replanTol {
		if len(r.rev.Minted) >= maxMintsPerRevision {
			return false
		}
		r.rev.Minted = append(r.rev.Minted, plan.Mint{TaskID: r.nextID, Copies: k + 1})
		r.nextID++
		r.ring.SetCount(k+1, r.ring.Count(k+1)+1)
		if m > 0 {
			m--
		}
	}
	return true
}

func (r *replanner) allSatisfied() bool { return meets(r.reg, r.ring, r.eps, r.pUpper) }

// meets reports whether every class holding regular tasks keeps
// P_{k,p} >= eps (to within replanTol).
func meets(reg, ring *dist.Distribution, eps, p float64) bool {
	for k := 1; k <= max(len(reg.Counts), len(ring.Counts)); k++ {
		if reg.Count(k) == 0 {
			continue
		}
		if dist.DetectionAtSplit(reg, ring, k, p) < eps-replanTol {
			return false
		}
	}
	return true
}

// cover returns c extended with zeros to hold class k.
func cover(c []float64, k int) []float64 {
	for len(c) < k {
		c = append(c, 0)
	}
	return c
}

func insertSorted(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}
