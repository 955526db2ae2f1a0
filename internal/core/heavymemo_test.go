package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/formula"
	"repro/internal/probmodel"
)

// memoAuction builds a heavyweight instance whose bid tables mix the
// two memo classes: even advertisers bid on Heavy_j-referencing
// events (evaluated per pattern), odd ones on pattern-free events
// (served from the per-call payment memo).
func memoAuction(rng *rand.Rand, n, k int) *HeavyAuction {
	base := probmodel.New(n, k)
	h := &HeavyAuction{Slots: k, Model: &probmodel.HeavyModel{
		Base:   base,
		Factor: probmodel.ShadowFactors(k, 0.35),
	}}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			base.Click[i][j] = 0.05 + 0.9*rng.Float64()
			base.Purchase[i][j] = 0.4 * rng.Float64()
		}
		bids := formula.Bids{
			{F: formula.Click{}},
			{F: formula.And{X: formula.Purchase{}, Y: formula.Slot{J: 1 + rng.Intn(k)}}},
		}
		if i%2 == 0 {
			bids = append(bids, formula.Bid{F: formula.And{
				X: formula.SlotIn(1, k),
				Y: formula.Not{X: formula.Heavy{J: 1 + rng.Intn(k)}},
			}})
		}
		h.Advertisers = append(h.Advertisers, Advertiser{
			ID:    "m" + strconv.Itoa(i),
			Bids:  bids,
			Heavy: rng.Intn(3) == 0,
		})
		h.Model.IsHeavy = append(h.Model.IsHeavy, h.Advertisers[i].Heavy)
	}
	return h
}

// checkHeavyAgainstCold runs DetermineInto and VCGPaymentsInto on d and
// compares both, bit for bit, with HeavyAuction.Determine and the cold
// per-winner VCG reference.
func checkHeavyAgainstCold(t *testing.T, d *HeavyDeterminer, h *HeavyAuction, label string) {
	t.Helper()
	var res Result
	if err := d.DetermineInto(h, &res); err != nil {
		t.Fatalf("%s: DetermineInto: %v", label, err)
	}
	want, err := h.Determine(false)
	if err != nil {
		t.Fatalf("%s: Determine: %v", label, err)
	}
	if !reflect.DeepEqual(&res, want) {
		t.Fatalf("%s: determiner %+v != Determine %+v", label, &res, want)
	}
	got := make([]float64, len(h.Advertisers))
	if err := d.VCGPaymentsInto(h, &res, got); err != nil {
		t.Fatalf("%s: VCGPaymentsInto: %v", label, err)
	}
	if wantPay := coldHeavyVCG(t, h, want); !reflect.DeepEqual(got, wantPay) {
		t.Fatalf("%s: VCG %v != cold reference %v", label, got, wantPay)
	}
}

// TestHeavyPaymentMemoInvariants: the memo's values are refilled on
// every call (bid values mutate in place between auctions) and its
// pattern-free flags follow the validation cache — recomputed for a
// new auction pointer, after Invalidate, and never left behind by a
// failed validation. Any stale value or flag shows up as a bit-level
// mismatch against the memo-free reference paths.
func TestHeavyPaymentMemoInvariants(t *testing.T) {
	for _, par := range []int{1, 3} {
		t.Run("parallelism="+strconv.Itoa(par), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(241 + par)))
			d := NewHeavyDeterminerParallel(par)
			defer d.Release()
			const n, k = 24, 4
			h := memoAuction(rng, n, k)

			mutate := func() {
				for i := range h.Advertisers {
					for r := range h.Advertisers[i].Bids {
						h.Advertisers[i].Bids[r].Value = float64(rng.Intn(12))
					}
				}
			}
			for round := 0; round < 60; round++ {
				mutate()
				checkHeavyAgainstCold(t, d, h, "values round "+strconv.Itoa(round))
			}

			// Swap formulas in place: pattern-free advertisers gain a
			// Heavy_j row and pattern-referencing ones lose theirs.
			for i := range h.Advertisers {
				bids := h.Advertisers[i].Bids
				if i%2 == 0 {
					h.Advertisers[i].Bids = bids[:2]
				} else {
					h.Advertisers[i].Bids = append(bids[:2:2], formula.Bid{
						F: formula.And{X: formula.Click{}, Y: formula.Heavy{J: 1 + rng.Intn(k)}},
					})
				}
			}
			d.Invalidate()
			for round := 0; round < 20; round++ {
				mutate()
				checkHeavyAgainstCold(t, d, h, "swapped round "+strconv.Itoa(round))
			}

			// A second auction under the same determiner, then a failed
			// validation part-way through a third whose flags all read
			// pattern-free: neither may leave flags that a return to h
			// would trust.
			other := memoAuction(rng, n, k)
			checkHeavyAgainstCold(t, d, other, "other auction")
			checkHeavyAgainstCold(t, d, h, "back to h")
			bad := memoAuction(rng, n, k)
			for i := range bad.Advertisers {
				bad.Advertisers[i].Bids = formula.Bids{{F: formula.Click{}, Value: 1}}
			}
			bad.Advertisers[n-1].Bids = formula.Bids{{
				F:     formula.And{X: formula.AdvSlot{Adv: "m0", J: 1}, Y: formula.AdvSlot{Adv: "m1", J: 2}},
				Value: 1,
			}}
			var res Result
			if err := d.DetermineInto(bad, &res); err == nil {
				t.Fatal("two-dependent bid accepted")
			}
			mutate()
			checkHeavyAgainstCold(t, d, h, "after failed validation")
		})
	}
}

// TestHeavyVCGMalformedInput: allocations that do not fit the auction,
// and auctions that fail validation, must come back as errors from
// both VCG entry points — never as an index-out-of-range panic. The
// model-shape cases must also fail HeavyAuction.Determine cleanly.
func TestHeavyVCGMalformedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	const n, k = 6, 3
	good := func() (*HeavyAuction, *Result) {
		h := randHeavyAuction(rng, n, k)
		res, err := h.Determine(false)
		if err != nil {
			t.Fatal(err)
		}
		return h, res
	}
	cases := []struct {
		name       string
		build      func() (*HeavyAuction, *Result)
		want       string
		badAuction bool
	}{
		{"short SlotOf", func() (*HeavyAuction, *Result) {
			h, res := good()
			res.SlotOf = res.SlotOf[:n-2]
			return h, res
		}, "allocation covers", false},
		{"long AdvOf", func() (*HeavyAuction, *Result) {
			h, res := good()
			res.AdvOf = append(res.AdvOf, -1)
			return h, res
		}, "allocation covers", false},
		{"empty result", func() (*HeavyAuction, *Result) {
			h, _ := good()
			return h, &Result{}
		}, "allocation covers", false},
		{"unknown advertiser", func() (*HeavyAuction, *Result) {
			h, res := good()
			res.AdvOf[0] = n
			return h, res
		}, "unknown advertiser", false},
		{"unknown slot", func() (*HeavyAuction, *Result) {
			h, res := good()
			res.SlotOf[0] = k
			return h, res
		}, "unknown slot", false},
		{"fewer click rows than advertisers", func() (*HeavyAuction, *Result) {
			h, res := good()
			h.Model.Base.Click = h.Model.Base.Click[:n-1]
			h.Model.Base.Purchase = h.Model.Base.Purchase[:n-1]
			return h, res
		}, "model covers", true},
		{"fewer model slots than auction slots", func() (*HeavyAuction, *Result) {
			h, res := good()
			for i := range h.Model.Base.Click {
				h.Model.Base.Click[i] = h.Model.Base.Click[i][:k-1]
				h.Model.Base.Purchase[i] = h.Model.Base.Purchase[i][:k-1]
			}
			return h, res
		}, "model covers", true},
		{"short factor table", func() (*HeavyAuction, *Result) {
			h, res := good()
			h.Model.Factor = h.Model.Factor[:1]
			return h, res
		}, "factor table", true},
		{"short factor row", func() (*HeavyAuction, *Result) {
			h, res := good()
			h.Model.Factor[k-1] = h.Model.Factor[k-1][:1]
			return h, res
		}, "factor row", true},
		{"nil model", func() (*HeavyAuction, *Result) {
			h, res := good()
			h.Model = nil
			return h, res
		}, "needs a model", true},
		{"too many slots", func() (*HeavyAuction, *Result) {
			h, res := good()
			h.Slots = 21
			return h, res
		}, "k ≤ 20", true},
	}
	d := NewHeavyDeterminer()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, res := tc.build()
			err := d.VCGPaymentsInto(h, res, make([]float64, len(h.Advertisers)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("VCGPaymentsInto: err = %v, want one containing %q", err, tc.want)
			}
			if _, err := h.VCGPayments(res); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("HeavyAuction.VCGPayments: err = %v, want one containing %q", err, tc.want)
			}
			if _, err := h.Determine(false); tc.badAuction && err == nil {
				t.Fatal("HeavyAuction.Determine accepted the malformed auction")
			}
		})
	}
}
