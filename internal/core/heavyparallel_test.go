package core

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/formula"
	"repro/internal/matching"
	"repro/internal/probmodel"
	"repro/internal/racetest"
)

// tieHeavyAuction builds a heavyweight instance engineered for exact
// revenue ties across patterns: no shadowing (click probabilities are
// pattern-independent), no pattern-referencing bids, exact binary
// fractions for probabilities, and small integer bid values. Many
// patterns then attain the same optimal revenue bit for bit, so any
// path that does not implement the (highest revenue, lowest pattern
// index) reduction rule exactly is caught.
func tieHeavyAuction(rng *rand.Rand, n, k int) *HeavyAuction {
	base := probmodel.New(n, k)
	h := &HeavyAuction{Slots: k, Model: &probmodel.HeavyModel{Base: base}}
	fractions := []float64{0.25, 0.5, 0.75, 1}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			base.Click[i][j] = fractions[rng.Intn(len(fractions))]
		}
		h.Advertisers = append(h.Advertisers, Advertiser{
			ID:    "t" + strconv.Itoa(i),
			Bids:  formula.Bids{{F: formula.Click{}, Value: float64(rng.Intn(4))}},
			Heavy: rng.Intn(2) == 0,
		})
		h.Model.IsHeavy = append(h.Model.IsHeavy, h.Advertisers[i].Heavy)
	}
	return h
}

// TestHeavyParallelPathsAgree pins the unified parallelism story:
// HeavyAuction.Determine(false), HeavyAuction.Determine(true), a
// sequential HeavyDeterminer, and a parallel HeavyDeterminer must all
// produce bit-identical results — same allocation, slot map, revenue,
// and method — on both generic random instances and tie-engineered
// ones, because every path reduces through the same deterministic
// (highest revenue, lowest pattern index) argmax.
func TestHeavyParallelPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	seq := NewHeavyDeterminer()
	par := NewHeavyDeterminerParallel(4)
	defer par.Release()
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(4)
		var h *HeavyAuction
		if trial%2 == 0 {
			h = randHeavyAuction(rng, n, k)
		} else {
			h = tieHeavyAuction(rng, n, k)
		}
		want, err := h.Determine(false)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		goroutines, err := h.Determine(true)
		if err != nil {
			t.Fatalf("trial %d: parallel Determine: %v", trial, err)
		}
		if !reflect.DeepEqual(goroutines, want) {
			t.Fatalf("trial %d (n=%d k=%d): Determine(true) %+v != Determine(false) %+v",
				trial, n, k, goroutines, want)
		}
		fromSeq, err := seq.Determine(h)
		if err != nil {
			t.Fatalf("trial %d: sequential determiner: %v", trial, err)
		}
		if !reflect.DeepEqual(fromSeq, want) {
			t.Fatalf("trial %d (n=%d k=%d): sequential determiner %+v != Determine(false) %+v",
				trial, n, k, fromSeq, want)
		}
		fromPar, err := par.Determine(h)
		if err != nil {
			t.Fatalf("trial %d: parallel determiner: %v", trial, err)
		}
		if !reflect.DeepEqual(fromPar, want) {
			t.Fatalf("trial %d (n=%d k=%d): parallel determiner %+v != Determine(false) %+v",
				trial, n, k, fromPar, want)
		}
	}
}

// fullGraphDetermine is the independent oracle for the reduced
// per-pattern matching: the pre-reduction Determine algorithm — 2^k
// pattern enumeration with *full-graph* Jonker–Volgenant
// sub-matchings over every advertiser, and the ascending strict->
// argmax. It is deliberately reimplemented here, against
// matching.MaxWeight directly, so the production code under test
// shares no matching path with it.
func fullGraphDetermine(t *testing.T, h *HeavyAuction) *Result {
	t.Helper()
	var heavyIdx, lightIdx []int
	for i := range h.Advertisers {
		if h.Advertisers[i].Heavy {
			heavyIdx = append(heavyIdx, i)
		} else {
			lightIdx = append(lightIdx, i)
		}
	}
	bestRev := math.Inf(-1)
	var bestAdv []int
patterns:
	for pattern := uint64(0); pattern < 1<<uint(h.Slots); pattern++ {
		var heavySlots, lightSlots []int
		for j := 0; j < h.Slots; j++ {
			if pattern&(1<<uint(j)) != 0 {
				heavySlots = append(heavySlots, j)
			} else {
				lightSlots = append(lightSlots, j)
			}
		}
		if len(heavySlots) > len(heavyIdx) {
			continue
		}
		baseline := 0.0
		base := make([]float64, len(h.Advertisers))
		for i := range h.Advertisers {
			base[i] = h.Advertisers[i].Bids.Payment(formula.Outcome{HeavySlots: pattern})
			baseline += base[i]
		}
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
		forcing := (maxAbs + 1) * float64(len(h.Advertisers)+h.Slots+1)
		for _, row := range heavyW {
			for j := range row {
				row[j] += forcing
			}
		}
		heavyAssign := matching.MaxWeight(heavyW)
		for _, ri := range heavyAssign.AdvOf {
			if ri < 0 {
				continue patterns
			}
		}
		lightAssign := matching.MaxWeight(lightW)
		advOf := make([]int, h.Slots)
		for j := range advOf {
			advOf[j] = -1
		}
		rev := baseline
		for sj, ri := range heavyAssign.AdvOf {
			i, j := heavyIdx[ri], heavySlots[sj]
			advOf[j] = i
			rev += h.expectedPaymentPattern(i, j, pattern) - base[i]
		}
		for sj, ri := range lightAssign.AdvOf {
			if ri < 0 {
				continue
			}
			i, j := lightIdx[ri], lightSlots[sj]
			advOf[j] = i
			rev += h.expectedPaymentPattern(i, j, pattern) - base[i]
		}
		if rev > bestRev {
			bestRev, bestAdv = rev, advOf
		}
	}
	if bestAdv == nil {
		t.Fatal("full-graph oracle found no consistent pattern")
	}
	return &Result{AdvOf: bestAdv, ExpectedRevenue: bestRev, Method: MethodHeavy2K}
}

// TestHeavyDeterminerReducedMatchesFullGraph is the exhaustive
// randomized cross-check of the reduced per-pattern matching, on
// boards tall enough that every pattern solve takes the top-(k+1)
// candidate restriction. Two contracts are pinned:
//
//   - Against HeavyAuction.Determine (which runs the same reduced
//     matchings): bit-identical results, always.
//   - Against the independent full-graph oracle above: exactly equal
//     expected revenue and exactly equal assignment Score — not
//     approximately. The candidate restriction keeps every optimal
//     matching intact (a row outside a column's top-(k+1) is strictly
//     dominated there by an unmatched candidate), so the optimum is
//     preserved to the bit; only *which* equally-optimal assignment
//     is returned may differ on instances with exact weight ties,
//     which is why the allocation itself is compared through
//     Score rather than element-wise.
func TestHeavyDeterminerReducedMatchesFullGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	d := NewHeavyDeterminer()
	for trial := 0; trial < 30; trial++ {
		n := 30 + rng.Intn(50) // n >> k+1: the reduction is always active
		k := 1 + rng.Intn(5)
		var h *HeavyAuction
		if trial%3 == 2 {
			h = tieHeavyAuction(rng, n, k) // exact ties: value-level agreement still required
		} else {
			h = randHeavyAuction(rng, n, k)
		}
		got, err := d.Determine(h)
		if err != nil {
			t.Fatalf("trial %d: determiner: %v", trial, err)
		}
		want, err := h.Determine(false)
		if err != nil {
			t.Fatalf("trial %d: Determine: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): determiner %+v != Determine %+v", trial, n, k, got, want)
		}
		full := fullGraphDetermine(t, h)
		if got.ExpectedRevenue != full.ExpectedRevenue {
			t.Fatalf("trial %d (n=%d k=%d): reduced revenue %g != full-graph %g",
				trial, n, k, got.ExpectedRevenue, full.ExpectedRevenue)
		}
		gotScore, err := h.Score(got.AdvOf)
		if err != nil {
			t.Fatalf("trial %d: score reduced: %v", trial, err)
		}
		fullScore, err := h.Score(full.AdvOf)
		if err != nil {
			t.Fatalf("trial %d: score full: %v", trial, err)
		}
		if gotScore != fullScore {
			t.Fatalf("trial %d (n=%d k=%d): assignment score %g != full-graph %g",
				trial, n, k, gotScore, fullScore)
		}
	}
}

// TestHeavyDeterminerDegenerate covers the shapes that exercise the
// enumeration's edges, each against HeavyAuction.Determine: no
// heavyweight advertisers (the determiner shortcuts to the flat
// single-pattern path — only pattern 0 is consistent), all-heavy (the
// lightweight board is empty), and fewer advertisers than slots.
func TestHeavyDeterminerDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	check := func(t *testing.T, d *HeavyDeterminer, h *HeavyAuction) {
		t.Helper()
		got, err := d.Determine(h)
		if err != nil {
			t.Fatalf("determiner: %v", err)
		}
		want, err := h.Determine(false)
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("determiner %+v != sequential %+v", got, want)
		}
	}
	for _, par := range []int{1, 3} {
		d := NewHeavyDeterminerParallel(par)
		t.Run("parallelism="+strconv.Itoa(par), func(t *testing.T) {
			t.Run("no-heavy", func(t *testing.T) {
				for trial := 0; trial < 10; trial++ {
					h := randHeavyAuction(rng, 5+rng.Intn(20), 1+rng.Intn(4))
					for i := range h.Advertisers {
						h.Advertisers[i].Heavy = false
						h.Model.IsHeavy[i] = false
					}
					check(t, d, h)
				}
			})
			t.Run("all-heavy", func(t *testing.T) {
				for trial := 0; trial < 10; trial++ {
					h := randHeavyAuction(rng, 5+rng.Intn(20), 1+rng.Intn(4))
					for i := range h.Advertisers {
						h.Advertisers[i].Heavy = true
						h.Model.IsHeavy[i] = true
					}
					check(t, d, h)
				}
			})
			t.Run("fewer-advertisers-than-slots", func(t *testing.T) {
				for trial := 0; trial < 10; trial++ {
					h := randHeavyAuction(rng, 1+rng.Intn(3), 4)
					check(t, d, h)
				}
			})
		})
		d.Release()
	}
}

// TestHeavyParallelVCGMatches: VCG payments computed through a
// parallel determiner (whose counterfactual sweep runs on the pattern
// pool) must equal the allocating sequential
// HeavyAuction.VCGPayments bit for bit.
func TestHeavyParallelVCGMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	d := NewHeavyDeterminerParallel(4)
	defer d.Release()
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		h := randHeavyAuction(rng, n, k)
		res, err := d.Determine(h)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if err := d.VCGPaymentsInto(h, res, got); err != nil {
			t.Fatal(err)
		}
		want, err := h.VCGPayments(res)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: parallel VCG %v != sequential %v", trial, got, want)
		}
	}
}

// TestHeavyDeterminerParallelSteadyStateAllocs: the worker pool is
// persistent, so after the first call on a given shape a parallel
// determiner must be exactly as allocation-free as the sequential one
// — wakeups, pattern claims, and the local-best merge all run on
// preallocated state.
func TestHeavyDeterminerParallelSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	rng := rand.New(rand.NewSource(233))
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
	d := NewHeavyDeterminerParallel(4)
	defer d.Release()
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
		t.Fatalf("steady-state parallel heavyweight determination allocates %.2f objects/op, want 0", allocs)
	}
}

// TestHeavyDeterminerRelease: Release is idempotent, stops the pool,
// and a determiner that never went parallel (or never ran) releases
// without incident.
func TestHeavyDeterminerRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	h := randHeavyAuction(rng, 10, 3)

	used := NewHeavyDeterminerParallel(2)
	if _, err := used.Determine(h); err != nil {
		t.Fatal(err)
	}
	used.Release()
	used.Release() // idempotent

	idle := NewHeavyDeterminerParallel(2)
	idle.Release() // no pool was ever spawned

	seq := NewHeavyDeterminer()
	if _, err := seq.Determine(h); err != nil {
		t.Fatal(err)
	}
	seq.Release() // sequential: nothing to stop
}
