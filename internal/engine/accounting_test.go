package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// freshROIRange is the uncached reference for roiRange: a full scan of
// advertiser i's keywords with the provider's roi expression.
func freshROIRange(a *Accounting, i int) (maxR, minR float64) {
	maxR, minR = math.Inf(-1), math.Inf(1)
	for q := range a.SpentKw[i] {
		r := roi(a.GainedKw[i][q], a.SpentKw[i][q])
		maxR = math.Max(maxR, r)
		minR = math.Min(minR, r)
	}
	return maxR, minR
}

// checkROICache demands every advertiser's cached extrema equal a
// fresh scan bit for bit.
func checkROICache(t *testing.T, a *Accounting, context string) {
	t.Helper()
	for i := range a.SpentTotal {
		gotMax, gotMin := a.roiRange(i)
		wantMax, wantMin := freshROIRange(a, i)
		if math.Float64bits(gotMax) != math.Float64bits(wantMax) || math.Float64bits(gotMin) != math.Float64bits(wantMin) {
			t.Fatalf("%s: advertiser %d roiRange = (%v, %v), fresh scan (%v, %v)", context, i, gotMax, gotMin, wantMax, wantMin)
		}
	}
}

// TestAccountingROICacheMatchesScan: after any sequence of charges the
// cached ROI extrema equal a fresh keyword scan, including charges
// that lower the current maximum or raise the current minimum (the
// cases an incremental update would get wrong).
func TestAccountingROICacheMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		n, keywords := 1+rng.Intn(6), 1+rng.Intn(8)
		a := newAccounting(n, keywords)
		checkROICache(t, a, "fresh")
		for c := 0; c < 200; c++ {
			i, q := rng.Intn(n), rng.Intn(keywords)
			price := float64(rng.Intn(5)) + rng.Float64()
			value := float64(rng.Intn(12))
			a.charge(i, q, price, value)
			checkROICache(t, a, "after charge")
		}
	}
}

// TestMarketROICacheMatchesScan runs the explicit and TALU markets
// (whose programs steer by the extrema) and checks the cache against a
// fresh scan after every auction.
func TestMarketROICacheMatchesScan(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(72)), 40, 6, 4)
	queries := inst.Queries(rand.New(rand.NewSource(73)), 600)
	for _, method := range []Method{MethodRH, MethodRHTALU} {
		m := NewMarket(inst, method, 5)
		for _, q := range queries {
			m.Run(q)
			checkROICache(t, m.Accounting(), method.String())
		}
	}
}
