package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/formula"
	"repro/internal/probmodel"
)

// HeavyAuction is the Section III-F model: advertisers are classified
// as heavyweights or lightweights, click probabilities may depend on
// the heavyweight pattern over slots, and bids may reference Heavy_j
// predicates ("pay 3 if I get slot 2 and slot 1 holds a lightweight").
type HeavyAuction struct {
	Slots       int
	Advertisers []Advertiser // Heavy field classifies each bidder
	Model       *probmodel.HeavyModel
}

// validate checks the structural preconditions of heavyweight winner
// determination: a bounded slot count (the enumeration is 2^k), a
// well-formed base model covering every advertiser and slot, a
// pattern-factor table (if any) covering every slot and pattern, and
// bids inside the 1-dependent fragment (heavyweight predicates are
// allowed — they condition on the class pattern, not on
// individuals). A non-nil patternFree (one entry per advertiser)
// receives, for each advertiser, whether no bid row references
// Heavy_j.
func (h *HeavyAuction) validate(patternFree []bool) error {
	if h.Slots < 0 || h.Slots > 20 {
		return fmt.Errorf("core: heavyweight enumeration needs 0 ≤ k ≤ 20, got %d", h.Slots)
	}
	if h.Model == nil || h.Model.Base == nil {
		return fmt.Errorf("core: heavyweight auction needs a model")
	}
	if err := h.Model.Base.Validate(); err != nil {
		return err
	}
	if got := h.Model.Base.Advertisers(); got != len(h.Advertisers) {
		return fmt.Errorf("core: model covers %d advertisers, auction has %d", got, len(h.Advertisers))
	}
	if got := h.Model.Base.Slots(); got < h.Slots && len(h.Advertisers) > 0 {
		return fmt.Errorf("core: model covers %d slots, auction has %d", got, h.Slots)
	}
	if f := h.Model.Factor; f != nil && h.Slots > 0 {
		if len(f) < h.Slots {
			return fmt.Errorf("core: pattern factor table covers %d slots, auction has %d", len(f), h.Slots)
		}
		for j := 0; j < h.Slots; j++ {
			if len(f[j]) < 1<<uint(h.Slots-1) {
				return fmt.Errorf("core: pattern factor row %d has %d entries, want %d", j, len(f[j]), 1<<uint(h.Slots-1))
			}
		}
	}
	for i := range h.Advertisers {
		m, heavy := h.Advertisers[i].Bids.MaxDependence()
		if m > 1 {
			return fmt.Errorf("advertiser %s: %w", h.Advertisers[i].ID, ErrNotOneDependent)
		}
		if patternFree != nil {
			patternFree[i] = !heavy
		}
	}
	return nil
}

// Determine solves heavyweight winner determination by the paper's
// 2^k enumeration: for each choice of heavyweight slots S, match
// heavyweight advertisers to S and lightweights to the complement
// with two independent maximum-weight matchings, then take the best
// pattern. With parallel=true the patterns are evaluated concurrently
// (the paper's O(n log k + k⁵) bound with 2^k processing units);
// either way the number of workers is independent of n.
//
// A pattern S is only consistent if every slot in S actually receives
// a heavyweight advertiser; patterns that cannot fill their slots are
// skipped (the allocation they would produce is scored under the
// pattern that matches its true heavyweight placement).
func (h *HeavyAuction) Determine(parallel bool) (*Result, error) {
	if err := h.validate(nil); err != nil {
		return nil, err
	}

	var heavyIdx, lightIdx []int
	for i := range h.Advertisers {
		if h.Advertisers[i].Heavy {
			heavyIdx = append(heavyIdx, i)
		} else {
			lightIdx = append(lightIdx, i)
		}
	}

	// Both branches reduce through the same deterministic argmax —
	// highest revenue, lowest pattern index on exact ties — which is
	// what an ascending scan with a strict > running best selects, so
	// sequential, parallel, and the serving-path HeavyDeterminer agree
	// bit for bit (pinned by TestHeavyParallelPathsAgree).
	type localBest struct {
		ok      bool
		rev     float64
		pattern int
		advOf   []int
	}
	better := func(b *localBest, ok bool, rev float64, pattern int) bool {
		return ok && (!b.ok || rev > b.rev || (rev == b.rev && pattern < b.pattern))
	}

	patterns := 1 << uint(h.Slots)
	var best localBest
	if parallel {
		// A bounded worker pool: the paper's bound assumes 2^k
		// processing units, but spawning a goroutine per pattern at
		// k=20 (a million) would only add scheduler overhead. Each
		// worker claims patterns in ascending order off the shared
		// counter and keeps a local best; the merge below applies the
		// same rule across workers, so the result is independent of
		// how the claims interleaved.
		workers := runtime.GOMAXPROCS(0)
		if workers > patterns {
			workers = patterns
		}
		bests := make([]localBest, workers)
		var wg sync.WaitGroup
		var next int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lb *localBest) {
				defer wg.Done()
				for {
					p := int(atomic.AddInt64(&next, 1)) - 1
					if p >= patterns {
						return
					}
					r := h.solvePattern(uint64(p), heavyIdx, lightIdx)
					if better(lb, r.ok, r.rev, p) {
						*lb = localBest{ok: true, rev: r.rev, pattern: p, advOf: r.advOf}
					}
				}
			}(&bests[w])
		}
		wg.Wait()
		for w := range bests {
			lb := &bests[w]
			if better(&best, lb.ok, lb.rev, lb.pattern) {
				best = *lb
			}
		}
	} else {
		for p := 0; p < patterns; p++ {
			r := h.solvePattern(uint64(p), heavyIdx, lightIdx)
			if better(&best, r.ok, r.rev, p) {
				best = localBest{ok: true, rev: r.rev, pattern: p, advOf: r.advOf}
			}
		}
	}

	if !best.ok {
		return nil, fmt.Errorf("core: no consistent heavyweight pattern (internal error)")
	}
	res := &Result{
		AdvOf:           best.advOf,
		SlotOf:          make([]int, len(h.Advertisers)),
		ExpectedRevenue: best.rev,
		Method:          MethodHeavy2K,
	}
	for i := range res.SlotOf {
		res.SlotOf[i] = -1
	}
	for j, i := range best.advOf {
		if i >= 0 {
			res.SlotOf[i] = j
		}
	}
	return res, nil
}

// solvePattern scores one heavyweight-slot pattern: two disjoint
// matchings plus the unassigned baselines, all computed conditional
// on the pattern.
func (h *HeavyAuction) solvePattern(pattern uint64, heavyIdx, lightIdx []int) (out struct {
	ok    bool
	rev   float64
	advOf []int
}) {
	k := h.Slots
	var heavySlots, lightSlots []int
	for j := 0; j < k; j++ {
		if pattern&(1<<uint(j)) != 0 {
			heavySlots = append(heavySlots, j)
		} else {
			lightSlots = append(lightSlots, j)
		}
	}
	if len(heavySlots) > len(heavyIdx) {
		return // cannot fill every heavyweight slot
	}

	// Baselines: unassigned advertisers still see the pattern.
	baseOutcome := formula.Outcome{HeavySlots: pattern}
	var baseline float64
	base := make([]float64, len(h.Advertisers))
	for i := range h.Advertisers {
		base[i] = h.Advertisers[i].Bids.Payment(baseOutcome)
		baseline += base[i]
	}

	// Forcing constant: adding M to heavy-side edges makes the
	// matching prefer maximum cardinality on the heavyweight slots,
	// guaranteeing all of them are filled when enough heavyweights
	// exist.
	var maxAbs float64
	weight := func(i, j int) float64 {
		w := h.expectedPaymentPattern(i, j, pattern) - base[i]
		if a := math.Abs(w); a > maxAbs {
			maxAbs = a
		}
		return w
	}
	heavyW := buildSub(weight, heavyIdx, heavySlots)
	lightW := buildSub(weight, lightIdx, lightSlots)
	forcing := (maxAbs + 1) * float64(len(h.Advertisers)+k+1)
	for _, row := range heavyW {
		for j := range row {
			row[j] += forcing
		}
	}

	// Both sub-matchings run through the same top-(k+1)
	// candidate-reduced solve as the serving-path HeavyDeterminer (a
	// fresh solver per pattern — this is the cold, allocating path).
	// The reduction preserves the exact optimal value (see
	// heavySolver.matchReduced), and sharing one implementation keeps
	// the two paths bit-identical even on instances with exact weight
	// ties, where equally-optimal assignments exist and any
	// independent solve could legitimately pick a different one.
	solver := newHeavySolver()
	heavyAdvOf := make([]int, len(heavySlots))
	solver.matchReduced(heavyW, len(heavyIdx), len(heavySlots), k+1, heavyAdvOf)
	for _, i := range heavyAdvOf {
		if i < 0 {
			return // a heavyweight slot stayed empty: inconsistent pattern
		}
	}
	lightAdvOf := make([]int, len(lightSlots))
	solver.matchReduced(lightW, len(lightIdx), len(lightSlots), k+1, lightAdvOf)

	advOf := make([]int, k)
	for j := range advOf {
		advOf[j] = -1
	}
	rev := baseline
	for sj, ri := range heavyAdvOf {
		i, j := heavyIdx[ri], heavySlots[sj]
		advOf[j] = i
		rev += h.expectedPaymentPattern(i, j, pattern) - base[i]
	}
	for sj, ri := range lightAdvOf {
		if ri < 0 {
			continue
		}
		i, j := lightIdx[ri], lightSlots[sj]
		advOf[j] = i
		rev += h.expectedPaymentPattern(i, j, pattern) - base[i]
	}
	out.ok = true
	out.rev = rev
	out.advOf = advOf
	return out
}

// buildSub materializes the weight sub-matrix for the given
// advertiser and slot index sets.
func buildSub(weight func(i, j int) float64, advIdx, slots []int) [][]float64 {
	w := make([][]float64, len(advIdx))
	for a, i := range advIdx {
		w[a] = make([]float64, len(slots))
		for s, j := range slots {
			w[a][s] = weight(i, j)
		}
	}
	return w
}

// expectedPaymentPattern is expectedPayment conditional on a
// heavyweight pattern: both the click probability and the formulas
// see the pattern.
func (h *HeavyAuction) expectedPaymentPattern(i, j int, pattern uint64) float64 {
	w := h.Model.ClickProb(i, j, pattern)
	q := h.Model.PurchaseProb(i, j, pattern)
	bids := h.Advertisers[i].Bids
	slot := j + 1
	var total float64
	if p := 1 - w; p > 0 {
		total += p * bids.Payment(formula.Outcome{Slot: slot, HeavySlots: pattern})
	}
	if p := w * (1 - q); p > 0 {
		total += p * bids.Payment(formula.Outcome{Slot: slot, Clicked: true, HeavySlots: pattern})
	}
	if p := w * q; p > 0 {
		total += p * bids.Payment(formula.Outcome{Slot: slot, Clicked: true, Purchased: true, HeavySlots: pattern})
	}
	return total
}

// Score evaluates an arbitrary allocation (slot → advertiser index,
// −1 for empty) under the pattern-aware model: the heavyweight
// pattern is induced from the allocation itself, and every
// advertiser's expected payment — placed or not — is computed
// conditional on it. Useful for comparing a pattern-blind allocation
// against the Determine optimum.
func (h *HeavyAuction) Score(advOf []int) (float64, error) {
	if len(advOf) != h.Slots {
		return 0, fmt.Errorf("core: allocation covers %d slots, auction has %d", len(advOf), h.Slots)
	}
	var pattern uint64
	slotOf := make([]int, len(h.Advertisers))
	for i := range slotOf {
		slotOf[i] = -1
	}
	for j, i := range advOf {
		if i < 0 {
			continue
		}
		if i >= len(h.Advertisers) {
			return 0, fmt.Errorf("core: slot %d assigned unknown advertiser %d", j, i)
		}
		if slotOf[i] >= 0 {
			return 0, fmt.Errorf("core: advertiser %d assigned two slots", i)
		}
		slotOf[i] = j
		if h.Advertisers[i].Heavy {
			pattern |= 1 << uint(j)
		}
	}
	var total float64
	for i := range h.Advertisers {
		if j := slotOf[i]; j >= 0 {
			total += h.expectedPaymentPattern(i, j, pattern)
		} else {
			total += h.Advertisers[i].Bids.Payment(formula.Outcome{HeavySlots: pattern})
		}
	}
	return total, nil
}
