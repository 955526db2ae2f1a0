package core

import (
	"fmt"

	"repro/internal/formula"
	"repro/internal/probmodel"
)

// VCG pricing (Vickrey–Clarke–Groves): each winner is charged his
// social opportunity cost — the amount by which his presence lowers
// the best achievable total value of everyone else. The paper notes
// that given winner determination as a subroutine, Vickrey pricing is
// "a very simple computation": one winner-determination call per
// winner, on the auction with that advertiser removed.
//
// Values here are expected payments under pay-what-you-bid, i.e. the
// same objective winner determination maximizes; a bidder's VCG
// charge replaces that face value as what he actually pays.

// VCGPayments computes the Vickrey payment of every advertiser for
// the allocation res (which should be an optimal allocation produced
// by Determine). Losers pay zero... and winners pay
//
//	p_i = OPT(without i) − (OPT − v_i)
//
// where v_i is advertiser i's expected payment in the optimal
// allocation (net of his unassigned baseline, which he obtains no
// matter what). The method used for the counterfactual solves is
// given by method.
func (a *Auction) VCGPayments(res *Result, method Method) ([]float64, error) {
	n := len(a.Advertisers)
	payments := make([]float64, n)
	if n == 0 {
		return payments, nil
	}
	// VCG charges each winner his externality on the *others*; that
	// accounting assumes w[i][j] is advertiser i's own value for slot
	// j. Bids on other advertisers' placements break the attribution,
	// so they are rejected here even though Determine accepts them.
	for i := range a.Advertisers {
		for _, bid := range a.Advertisers[i].Bids {
			if d := formula.Analyze(bid.F); len(d.Others) > 0 {
				return nil, fmt.Errorf(
					"core: VCG pricing is undefined for bids on other advertisers' placements (advertiser %s)",
					a.Advertisers[i].ID)
			}
		}
	}
	w, _, err := a.adjustedMatrix()
	if err != nil {
		return nil, err
	}
	// Welfare here is the matching value over adjusted weights: the
	// baseline terms cancel in the VCG formula for everyone (each
	// advertiser's baseline is obtained in every allocation).
	optOthers := func(skip int) (float64, error) {
		sub := &Auction{
			Slots:       a.Slots,
			Advertisers: make([]Advertiser, 0, n-1),
			Probs:       nil,
		}
		// Build a reduced auction without advertiser skip.
		click := make([][]float64, 0, n-1)
		purchase := make([][]float64, 0, n-1)
		for i := 0; i < n; i++ {
			if i == skip {
				continue
			}
			sub.Advertisers = append(sub.Advertisers, a.Advertisers[i])
			click = append(click, a.Probs.Click[i])
			purchase = append(purchase, a.Probs.Purchase[i])
		}
		sub.Probs = &probmodel.Model{Click: click, Purchase: purchase}
		r, err := sub.Determine(method)
		if err != nil {
			return 0, err
		}
		// Convert back to adjusted welfare by removing the baseline.
		_, base, err := sub.adjustedMatrix()
		if err != nil {
			return 0, err
		}
		return r.ExpectedRevenue - base, nil
	}

	// Total adjusted welfare of the given allocation.
	var total float64
	for j, i := range res.AdvOf {
		if i >= 0 {
			total += w[i][j]
		}
	}
	for i := 0; i < n; i++ {
		j := res.SlotOf[i]
		if j < 0 {
			continue // losers pay nothing under VCG
		}
		withoutI, err := optOthers(i)
		if err != nil {
			return nil, err
		}
		othersNow := total - w[i][j]
		p := withoutI - othersNow
		if p < 0 {
			p = 0 // numerical guard; VCG payments are non-negative at optimum
		}
		payments[i] = p
	}
	return payments, nil
}

// VCGPayments computes Vickrey payments for a heavyweight allocation
// res (an optimal allocation produced by Determine). Winner i pays
// the drop his presence causes in everyone else's realized value,
//
//	p_i = OPT(without i) − (V(S*) − v_i(S*))
//
// where V(S*) is the total expected payment of allocation res over
// all advertisers — placed or not, conditional on res's heavyweight
// pattern — v_i(S*) its i-th term, and OPT(without i) re-solves the
// full 2^k enumeration on the auction with advertiser i removed
// (slots and the pattern-factor table are unchanged; only the row is
// deleted, so a heavyweight's removal frees its pattern constraints
// exactly as the formula requires). Losers pay zero. Unlike the flat
// Auction.VCGPayments, bids may reference the heavyweight pattern:
// Heavy_j is a class-level predicate, so attributing each bid to its
// own bidder remains sound.
//
// This wrapper prices through a fresh sequential HeavyDeterminer;
// batch callers should hold one and call its VCGPaymentsInto, which
// keeps the sweep's scratch across calls.
func (h *HeavyAuction) VCGPayments(res *Result) ([]float64, error) {
	payments := make([]float64, len(h.Advertisers))
	if err := NewHeavyDeterminer().VCGPaymentsInto(h, res, payments); err != nil {
		return nil, err
	}
	return payments, nil
}

// heavyPattern reads the heavyweight pattern off an allocation.
func heavyPattern(advs []Advertiser, advOf []int) uint64 {
	var pattern uint64
	for j, i := range advOf {
		if i >= 0 && advs[i].Heavy {
			pattern |= 1 << uint(j)
		}
	}
	return pattern
}

// VCGPaymentsInto computes heavyweight Vickrey payments into the
// caller-owned payments slice (length = number of advertisers). The
// auction is validated through the determiner's cache, and res must
// be an allocation of it. All winners' counterfactuals come from one
// ascending sweep over the patterns (on the pool when the determiner
// is parallel): each pattern's boards are filled once, and each
// winner's "without w" optimum is solved from them with w's row
// dropped. Results are bit-identical to solving a fresh sub-auction
// per winner with HeavyAuction.Determine.
func (d *HeavyDeterminer) VCGPaymentsInto(h *HeavyAuction, res *Result, payments []float64) error {
	n, k := len(h.Advertisers), h.Slots
	if len(payments) != n {
		return fmt.Errorf("core: payments slice covers %d advertisers, auction has %d", len(payments), n)
	}
	if err := d.prepare(h); err != nil {
		return err
	}
	if len(res.SlotOf) != n || len(res.AdvOf) != k {
		return fmt.Errorf("core: allocation covers %d advertisers and %d slots, auction has %d and %d",
			len(res.SlotOf), len(res.AdvOf), n, k)
	}
	for j, i := range res.AdvOf {
		if i < -1 || i >= n {
			return fmt.Errorf("core: slot %d assigned unknown advertiser %d", j, i)
		}
	}
	for i, j := range res.SlotOf {
		if j < -1 || j >= k {
			return fmt.Errorf("core: advertiser %d assigned unknown slot %d", i, j)
		}
	}
	for i := range payments {
		payments[i] = 0
	}
	if n == 0 {
		return nil
	}

	// Every advertiser's realized value under res, conditional on the
	// allocation's own heavyweight pattern.
	job := d.job
	pattern := heavyPattern(h.Advertisers, res.AdvOf)
	d.vals = growF(d.vals, n)
	var total float64
	for i := range h.Advertisers {
		if j := res.SlotOf[i]; j >= 0 {
			d.vals[i] = job.memo.expected(h, i, j, pattern)
		} else {
			d.vals[i] = job.memo.baseline(h, i, pattern)
		}
		total += d.vals[i]
	}

	// Losers pay nothing under VCG. When every winner is a
	// heavyweight, each counterfactual has one heavyweight fewer.
	for a, i := range job.heavyIdx {
		if res.SlotOf[i] >= 0 {
			job.winners = append(job.winners, vcgWinner{adv: i, heavy: true, row: a})
		}
	}
	lightWinners := false
	for a, i := range job.lightIdx {
		if res.SlotOf[i] >= 0 {
			job.winners = append(job.winners, vcgWinner{adv: i, row: a})
			lightWinners = true
		}
	}
	if len(job.winners) == 0 {
		return nil
	}
	if !lightWinners {
		job.maxHeavySlots--
	}
	job.vcg = true
	d.enumerate(h)

	// Merge each winner's per-worker local bests under the same rule
	// as DetermineInto.
	for wi, w := range job.winners {
		var best patternBest
		for _, s := range d.solvers {
			if c := s.cf[wi]; c.ok && c.beats(best) {
				best = c
			}
		}
		if !best.ok {
			return fmt.Errorf("core: no consistent heavyweight pattern (internal error)")
		}
		p := best.rev - (total - d.vals[w.adv])
		if p < 0 {
			p = 0 // numerical guard; VCG payments are non-negative at optimum
		}
		payments[w.adv] = p
	}
	return nil
}
