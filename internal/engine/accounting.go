package engine

import "repro/internal/workload"

// roi is the provider-maintained return-on-investment statistic for
// one (advertiser, keyword) pair: total value gained over total spend,
// add-one smoothed so it is defined before any spending occurs (the
// paper leaves the zero-spend case unspecified; smoothing gives every
// keyword the identical neutral ROI of 1 at the start, which the
// MAX/MIN selections of the Figure 5 program then treat as ties, as
// its SQL semantics dictate).
func roi(gained, spent float64) float64 { return (gained + 1) / (spent + 1) }

// spendStatus compares the advertiser's realized spending rate with
// the target: −1 under, 0 on target, +1 over.
func spendStatus(spentTotal float64, t float64, target int) int {
	rate := spentTotal / t
	switch {
	case rate < float64(target):
		return -1
	case rate > float64(target):
		return 1
	default:
		return 0
	}
}

// Accounting is the provider-maintained advertiser state (Section
// II-B notes amounts spent, budgets, and per-keyword ROI are
// maintained by the search provider for every program). Writes go
// through charge, which keeps each advertiser's ROI extrema cached:
// only a charged advertiser's ROIs change, so the per-auction program
// evaluations read the extrema instead of rescanning every keyword.
type Accounting struct {
	SpentTotal []float64   // per advertiser
	SpentKw    [][]float64 // per advertiser, keyword
	GainedKw   [][]float64 // per advertiser, keyword

	maxROI, minROI []float64 // per advertiser, over its keywords
}

func newAccounting(n, keywords int) *Accounting {
	a := &Accounting{
		SpentTotal: make([]float64, n),
		SpentKw:    make([][]float64, n),
		GainedKw:   make([][]float64, n),
		maxROI:     make([]float64, n),
		minROI:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a.SpentKw[i] = make([]float64, keywords)
		a.GainedKw[i] = make([]float64, keywords)
		a.maxROI[i], a.minROI[i] = roi(0, 0), roi(0, 0)
	}
	return a
}

// charge records one click by advertiser i on keyword q: price is
// added to its total and keyword spend, value to its keyword gain, and
// its cached ROI extrema are rescanned.
func (a *Accounting) charge(i, q int, price, value float64) {
	a.SpentTotal[i] += price
	a.SpentKw[i][q] += price
	a.GainedKw[i][q] += value
	a.maxROI[i], a.minROI[i] = a.scanROIRange(i)
}

// ROIOf returns the smoothed ROI of advertiser i on keyword q — the
// value the provider would surface in the program's Keywords table.
func (a *Accounting) ROIOf(i, q int) float64 {
	return roi(a.GainedKw[i][q], a.SpentKw[i][q])
}

// roiRange returns the max and min smoothed ROI over advertiser i's
// keywords, as cached by the last charge.
func (a *Accounting) roiRange(i int) (maxR, minR float64) {
	return a.maxROI[i], a.minROI[i]
}

// scanROIRange computes roiRange afresh from the per-keyword state.
func (a *Accounting) scanROIRange(i int) (maxR, minR float64) {
	maxR, minR = a.ROIOf(i, 0), a.ROIOf(i, 0)
	for q := 1; q < len(a.SpentKw[i]); q++ {
		r := a.ROIOf(i, q)
		if r > maxR {
			maxR = r
		}
		if r < minR {
			minR = r
		}
	}
	return maxR, minR
}

// modeConst, modeInc, modeDec name a bidder's current behavior for
// one keyword: what the Figure 5 program would do to that keyword's
// bid on a matching query.
const (
	modeConst = 0
	modeInc   = 1
	modeDec   = 2
)

// bidMode computes the behavior of bidder i for keyword q given the
// current bid: the direct transliteration of the Figure 5 guards.
func bidMode(inst *workload.Instance, acct *Accounting, i, q int, bid int, status int) int {
	switch status {
	case -1: // underspending: increment the max-ROI keyword if below max bid
		maxR, _ := acct.roiRange(i)
		if acct.ROIOf(i, q) == maxR && bid < inst.Value[i][q] {
			return modeInc
		}
	case 1: // overspending: decrement the min-ROI keyword if above zero
		_, minR := acct.roiRange(i)
		if acct.ROIOf(i, q) == minR && bid > 0 {
			return modeDec
		}
	}
	return modeConst
}
