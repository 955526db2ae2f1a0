package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/formula"
	"repro/internal/probmodel"
	"repro/internal/racetest"
)

// randHeavyAuction builds a random Section III-F instance: shadowed
// click factors, mixed heavyweight flags, and bids that may reference
// the heavyweight pattern.
func randHeavyAuction(rng *rand.Rand, n, k int) *HeavyAuction {
	base := probmodel.New(n, k)
	h := &HeavyAuction{Slots: k, Model: &probmodel.HeavyModel{
		Base:   base,
		Factor: probmodel.ShadowFactors(k, 0.3),
	}}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			base.Click[i][j] = rng.Float64()
			base.Purchase[i][j] = rng.Float64() * 0.3
		}
		var bids formula.Bids
		bids = append(bids, formula.Bid{F: randOneDepFormula(rng, k), Value: float64(rng.Intn(10))})
		if rng.Intn(2) == 0 {
			f := formula.And{X: formula.Slot{J: 1 + rng.Intn(k)}, Y: formula.Not{X: formula.Heavy{J: 1 + rng.Intn(k)}}}
			bids = append(bids, formula.Bid{F: f, Value: float64(rng.Intn(10))})
		}
		h.Advertisers = append(h.Advertisers, Advertiser{
			ID:    "a" + strconv.Itoa(i),
			Bids:  bids,
			Heavy: rng.Intn(2) == 0,
		})
		h.Model.IsHeavy = append(h.Model.IsHeavy, h.Advertisers[i].Heavy)
	}
	return h
}

// TestHeavyDeterminerMatchesDetermine drives one HeavyDeterminer
// across a stream of heavyweight auctions of varying shape and checks
// every result — allocation, slot map, revenue, method — against the
// one-shot sequential HeavyAuction.Determine, bit for bit. Buffer
// reuse across shapes must never leak state between calls.
func TestHeavyDeterminerMatchesDetermine(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	d := NewHeavyDeterminer()
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		k := 1 + rng.Intn(4)
		h := randHeavyAuction(rng, n, k)
		got, err := d.Determine(h)
		if err != nil {
			t.Fatalf("trial %d: determiner: %v", trial, err)
		}
		want, err := h.Determine(false)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): determiner %+v != sequential %+v", trial, n, k, got, want)
		}
	}
}

// TestHeavyDeterminerValueMutation is the serving engine's exact use
// pattern: one auction object whose bid values are mutated in place
// between calls (formulas and shape unchanged, so the cached
// validation is reused). Every call must still match the cold
// sequential path bit for bit.
func TestHeavyDeterminerValueMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	const n, k = 12, 3
	h := &HeavyAuction{Slots: k, Model: &probmodel.HeavyModel{
		Base:   probmodel.New(n, k),
		Factor: probmodel.ShadowFactors(k, 0.4),
	}}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			h.Model.Base.Click[i][j] = 0.1 + 0.8*rng.Float64()
		}
		h.Advertisers = append(h.Advertisers, Advertiser{
			ID:    "a" + strconv.Itoa(i),
			Bids:  formula.Bids{{F: formula.Click{}, Value: 0}},
			Heavy: i%3 == 0,
		})
		h.Model.IsHeavy = append(h.Model.IsHeavy, h.Advertisers[i].Heavy)
	}
	d := NewHeavyDeterminer()
	var res Result
	for round := 0; round < 30; round++ {
		for i := range h.Advertisers {
			h.Advertisers[i].Bids[0].Value = float64(rng.Intn(20))
		}
		if err := d.DetermineInto(h, &res); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := h.Determine(false)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(&res, want) {
			t.Fatalf("round %d: determiner %+v != sequential %+v", round, &res, want)
		}
	}
}

// TestHeavyDeterminerSteadyStateAllocs: after the first call on a
// given shape, DetermineInto with in-place bid-value mutations must
// not allocate at all — the property that makes MethodHeavy a
// servable engine path.
func TestHeavyDeterminerSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	rng := rand.New(rand.NewSource(107))
	const n, k = 60, 4
	h := &HeavyAuction{Slots: k, Model: &probmodel.HeavyModel{
		Base:   probmodel.New(n, k),
		Factor: probmodel.ShadowFactors(k, 0.3),
	}}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			h.Model.Base.Click[i][j] = 0.1 + 0.8*rng.Float64()
		}
		h.Advertisers = append(h.Advertisers, Advertiser{
			ID:    "a" + strconv.Itoa(i),
			Bids:  formula.Bids{{F: formula.Click{}, Value: float64(rng.Intn(20))}},
			Heavy: i%4 == 0,
		})
		h.Model.IsHeavy = append(h.Model.IsHeavy, h.Advertisers[i].Heavy)
	}
	d := NewHeavyDeterminer()
	var res Result
	if err := d.DetermineInto(h, &res); err != nil {
		t.Fatal(err)
	}
	var tick int
	allocs := testing.AllocsPerRun(200, func() {
		tick++
		h.Advertisers[tick%n].Bids[0].Value = float64(tick % 17)
		if err := d.DetermineInto(h, &res); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state heavyweight determination allocates %.2f objects/op, want 0", allocs)
	}
}

// TestHeavyVCGPaymentsMatchColdReference: the determiner's one-sweep
// counterfactuals (row-dropped boards, per-winner argmaxes) must
// reproduce, bit for bit, a cold implementation that rebuilds a fresh
// sub-auction and runs the sequential Determine per winner. Boards up
// to n=40 keep the reduced-matching branch (rows > k+1) and the
// dropped-row renumbering busy; tie-engineered instances pin the
// lowest-pattern rule; parallelism 1 and 3 cover the sequential sweep
// and the pool.
func TestHeavyVCGPaymentsMatchColdReference(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	dets := []*HeavyDeterminer{NewHeavyDeterminer(), NewHeavyDeterminerParallel(3)}
	defer dets[1].Release()
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(5)
		var h *HeavyAuction
		if trial%3 == 2 {
			h = tieHeavyAuction(rng, n, k)
		} else {
			h = randHeavyAuction(rng, n, k)
		}
		res, err := h.Determine(false)
		if err != nil {
			t.Fatal(err)
		}
		want := coldHeavyVCG(t, h, res)
		for _, d := range dets {
			got := make([]float64, n)
			if err := d.VCGPaymentsInto(h, res, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d (n=%d k=%d) parallelism %d advertiser %d: determiner VCG %g != cold reference %g",
						trial, n, k, d.Parallelism(), i, got[i], want[i])
				}
			}
		}

		// The allocating wrapper must agree with the reused path.
		wrapped, err := h.VCGPayments(res)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wrapped, want) {
			t.Fatalf("trial %d: VCGPayments %v != cold reference %v", trial, wrapped, want)
		}
	}
}

// coldHeavyVCG is the independent VCG oracle: every advertiser's value
// under res's realized pattern, and per winner a fresh sub-auction
// without that advertiser solved by the sequential Determine.
func coldHeavyVCG(t *testing.T, h *HeavyAuction, res *Result) []float64 {
	t.Helper()
	n, k := len(h.Advertisers), h.Slots
	pattern := heavyPattern(h.Advertisers, res.AdvOf)
	vals := make([]float64, n)
	var total float64
	for i := range h.Advertisers {
		if j := res.SlotOf[i]; j >= 0 {
			vals[i] = h.expectedPaymentPattern(i, j, pattern)
		} else {
			vals[i] = h.Advertisers[i].Bids.Payment(formula.Outcome{HeavySlots: pattern})
		}
		total += vals[i]
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		if res.SlotOf[i] < 0 {
			continue
		}
		sub := &HeavyAuction{Slots: k, Model: &probmodel.HeavyModel{
			Base:   &probmodel.Model{},
			Factor: h.Model.Factor,
		}}
		for l := 0; l < n; l++ {
			if l == i {
				continue
			}
			sub.Advertisers = append(sub.Advertisers, h.Advertisers[l])
			sub.Model.Base.Click = append(sub.Model.Base.Click, h.Model.Base.Click[l])
			sub.Model.Base.Purchase = append(sub.Model.Base.Purchase, h.Model.Base.Purchase[l])
			sub.Model.IsHeavy = append(sub.Model.IsHeavy, h.Model.IsHeavy[l])
		}
		r, err := sub.Determine(false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.ExpectedRevenue - (total - vals[i])
		if want[i] < 0 {
			want[i] = 0
		}
	}
	return want
}
