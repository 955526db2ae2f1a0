package engine

import (
	"repro/internal/lp"
)

// VCG pricing on the serving path. Winner i's expected charge is his
// social opportunity cost,
//
//	p_i = OPT(without i) − (OPT − v_ij),
//
// mirroring core.Auction.VCGPayments term for term on the engine's
// scalar weights v_ij = clickProb·bid, so the equivalence tests can
// demand exact equality. The n+1 counterfactual winner-determination
// solves reuse a dedicated matching.Workspace (m.vcgWS) held by the
// market instead of re-running cold auctions: the workspace keeps the
// bounded selection heap, per-slot candidate lists, and the
// Jonker–Volgenant scratch warm across winners and across auctions,
// making MethodRH + VCG allocation-free in steady state. The
// counterfactual algorithm follows the market's method (reduced
// matching for the RH family, full Hungarian for H, simplex for LP),
// matching what core.VCGPayments runs for the same method.

// priceVCG replaces the GSP block of Market.Run: it fills
// out.PricePerClick with each winner's Vickrey charge per click.
// bidf must already hold this keyword's bids.
func (m *Market) priceVCG(advOf []int, out *Outcome) {
	if m.heavy != nil {
		m.heavy.priceVCG(advOf, out)
		return
	}
	// Total welfare of the allocation, summed in slot order exactly as
	// core.VCGPayments sums it.
	var total float64
	for j, i := range advOf {
		if i >= 0 {
			total += m.weightFn(i, j)
		}
	}
	for j, i := range advOf {
		if i < 0 {
			continue
		}
		withoutI := m.solveWithout(i)
		p := withoutI - (total - m.weightFn(i, j))
		if p < 0 {
			p = 0 // numerical guard; VCG payments are non-negative at optimum
		}
		if p > 0 {
			// A winner with p > 0 has positive weight, hence positive
			// click probability; the division is safe.
			out.PricePerClick[j] = p / m.Inst.ClickProb[i][j]
		}
	}
}

// solveWithout determines the optimal matching value over all
// advertisers except skip, with the market's method, in the dedicated
// counterfactual workspace. The row remap (reduced index r ↦ original
// advertiser r or r+1) reproduces exactly the sub-auction reindexing
// core.VCGPayments performs, so selection order, tie handling, and
// the value summation are bit-identical to a cold
// core.Auction.Determine on the reduced instance.
func (m *Market) solveWithout(skip int) float64 {
	n, k := m.Inst.N, m.Inst.Slots
	m.vcgSkip = skip
	switch m.Method {
	case MethodH:
		return m.vcgWS.MaxWeightInto(n-1, k, m.vcgWeightFn, m.vcgAdvOf)
	case MethodLP:
		w := m.vcgMatrix(n-1, k)
		for r := 0; r < n-1; r++ {
			for j := 0; j < k; j++ {
				w[r][j] = m.vcgWeightFn(r, j)
			}
		}
		res, err := lp.SolveAssignment(w)
		if err != nil {
			panic("engine: counterfactual assignment LP failed: " + err.Error())
		}
		m.LPStats += res.Iterations
		return res.Value
	default:
		// The RH family (RH, RH-parallel, RHTALU): the reduced solve of
		// Section III-E, exactly core.Determiner's MethodReduced — depth-k
		// candidate lists over the surviving advertisers, then the
		// workspace assignment. The row kernel renumbers the surviving
		// advertisers exactly as vcgWeightFn does.
		lists := m.vcgWS.SelectCandidatesRowsWithout(n, k, k, m.Inst.ClickProb, m.bidf, skip)
		return m.vcgWS.AssignCandidatesInto(m.vcgWeightFn, lists, m.vcgAdvOf)
	}
}

// vcgMatrix returns an r×k view over the reused LP scratch. Contents
// are unspecified (stale from the previous solve); callers must fill
// every cell.
func (m *Market) vcgMatrix(r, k int) [][]float64 {
	if cap(m.vcgFlat) < r*k {
		m.vcgFlat = make([]float64, r*k)
	}
	m.vcgFlat = m.vcgFlat[:r*k]
	if cap(m.vcgRows) < r {
		m.vcgRows = make([][]float64, r)
	}
	m.vcgRows = m.vcgRows[:r]
	for i := 0; i < r; i++ {
		m.vcgRows[i] = m.vcgFlat[i*k : (i+1)*k]
	}
	return m.vcgRows
}
