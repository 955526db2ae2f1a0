package main

import (
	"math/rand"
	"time"

	"repro/internal/broadmatch"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/workload"
)

// keywords is the catalog size of every workload (Section V's 10).
const keywords = 10

// spec is one benchmark workload: the population, the serving
// configuration, and the fixed offered rates. Rates are constants
// sized once against measured capacity on a 2-CPU host; they are
// never calibrated at run time, because a calibrated rate moves with
// the code and hides the change it should show.
type spec struct {
	name string

	n, k        int
	method      engine.Method
	pricing     engine.Pricing
	heavyFrac   float64 // > 0: GenerateHeavy population
	shadow      float64
	zipf        float64 // > 1: Zipf keyword skew
	text        bool    // free-text queries through TextInto
	broad       broadmatch.Config
	reserve     float64
	budget      bool // hard budgets, spend journal, reset/churn control traffic
	fingerprint bool // per-keyword outcome fingerprint vs a sequential replay

	loQPS, hiQPS float64 // open-loop rates; see README.md for how they were sized
	warmup       int     // requests served during set-up
	ladderCalls  int     // one-at-a-time calls per ladder rung
	traceSample  int     // 1-in-N trace sampling in the traced run
}

var specs = []*spec{
	// Section V exact match, market-bound: reduced-Hungarian solve and program evaluation dominate.
	{
		name: "sv-rh",
		n:    1000, k: 15, method: engine.MethodRH,
		fingerprint: true,
		loQPS:       700, hiQPS: 1500,
		warmup: 400, ladderCalls: 1500, traceSample: 2,
	},
	// Long-tail broad-match text, wire/stream/routing-bound: the auction is a small share of each request.
	{
		name: "tail-broad",
		n:    30, k: 4, method: engine.MethodRH,
		text:    true,
		broad:   broadmatch.Config{Enabled: true, Threshold: 0.4, Squash: 0.5, Seed: 11},
		reserve: 3,
		loQPS:   12000, hiQPS: 18000,
		warmup: 4000, ladderCalls: 20000, traceSample: 14,
	},
	// Section IV TALU under Zipf skew with binding hard budgets, a spend journal and reset/churn fences.
	{
		name: "talu-budget",
		n:    5000, k: 15, method: engine.MethodRHTALU,
		zipf: 1.2, budget: true,
		loQPS: 300, hiQPS: 700,
		warmup: 400, ladderCalls: 1500, traceSample: 1,
	},
	// Section III-F heavyweight determiner with VCG counterfactual pricing, the most expressive market.
	{
		name: "heavy-vcg",
		n:    150, k: 4, method: engine.MethodHeavy, pricing: engine.PricingVCG,
		heavyFrac: 0.2, shadow: 0.3,
		fingerprint: true,
		loQPS:       100, hiQPS: 220,
		warmup: 100, ladderCalls: 300, traceSample: 1,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// Seed derivation: every random input of a run comes from --seed (the
// population is drawn from it directly), one stream per purpose, so the
// same seed gives the same inputs.
func clickSeed(seed int64) int64 { return seed + 2 }
func scheduleSeed(seed int64, phase int64) int64 {
	return seed*1000003 + 17*phase + 5
}

// instance generates the workload's advertiser population.
func (sp *spec) instance(seed int64) *workload.Instance {
	rng := rand.New(rand.NewSource(seed))
	var inst *workload.Instance
	if sp.heavyFrac > 0 {
		inst = workload.GenerateHeavy(rng, sp.n, sp.k, keywords, sp.heavyFrac, sp.shadow)
	} else {
		inst = workload.Generate(rng, sp.n, sp.k, keywords)
	}
	if sp.budget {
		workload.AttachBudgets(rng, inst, budgetMeanAuctions)
	}
	return inst
}

// Budget parameters of talu-budget: caps of ~1000 on-target auctions
// bind within the first seconds of traffic.
const (
	budgetMeanAuctions = 1000
	budgetRefresh      = 64
)

// engineConfig is the serving engine configuration for this workload.
func (sp *spec) engineConfig(seed int64, traceSample int) engine.Config {
	cfg := engine.Config{
		Method:      sp.method,
		Pricing:     sp.pricing,
		ClickSeed:   clickSeed(seed),
		Broadmatch:  sp.broad,
		Reserve:     sp.reserve,
		TraceSample: traceSample,
	}
	if sp.text {
		cfg.KeywordNames = workload.BigramKeywordNames(keywords)
	}
	if sp.budget {
		cfg.Budget = budget.Config{Policy: budget.PolicyHard, RefreshEvery: budgetRefresh, Seed: seed + 4}
	}
	return cfg
}

// resetEvery is the budget-reset interval of talu-budget's control
// traffic; each timed phase also carries one advertiser add or remove.
const resetEvery = 250 * time.Millisecond
