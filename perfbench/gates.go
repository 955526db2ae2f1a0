package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/stream"
)

// fingerprint is a per-keyword, order-independent digest of served
// outcomes: the sum mod 2^64 of hashOutcome over each outcome. The
// k-th auction of a keyword is deterministic whatever the arrival
// interleaving, so the digest depends only on how many auctions each
// keyword served.
type fingerprint [keywords]uint64

func (f *fingerprint) add(o *fingerprint) {
	for q := range f {
		f[q] += o[q]
	}
}

// FNV-64a over the outcome's fields, floats by their bits.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func hashOutcome(q int, revenue float64, advOf []int, prices []float64, clicked []bool) uint64 {
	h := fnvWord(fnvOffset, uint64(q))
	h = fnvWord(h, math.Float64bits(revenue))
	for j := range advOf {
		h = fnvWord(h, uint64(int64(advOf[j])))
		h = fnvWord(h, math.Float64bits(prices[j]))
		c := uint64(0)
		if clicked[j] {
			c = 1
		}
		h = fnvWord(h, c)
	}
	return h
}

// replayFingerprint replays perKw[q] auctions of each keyword q on a
// fresh sequential market (engine.NewMarketOpts seeded with
// engine.KeywordSeed) and digests them as the served outcomes were.
// Keywords replay in parallel, at most two at a time.
func (st *stack) replayFingerprint(perKw *[keywords]int64) fingerprint {
	var fp fingerprint
	cfg := st.sp.engineConfig(st.seed, 0)
	var wg sync.WaitGroup
	sem := make(chan struct{}, numConns())
	for q := 0; q < keywords; q++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(q int) {
			defer wg.Done()
			defer func() { <-sem }()
			m := engine.NewMarketOpts(st.inst, engine.MarketOpts{
				Method: cfg.Method, Pricing: cfg.Pricing, Reserve: cfg.Reserve,
				ClickSeed: engine.KeywordSeed(cfg.ClickSeed, q),
			})
			defer m.Close()
			var sum uint64
			for i := int64(0); i < perKw[q]; i++ {
				out := m.Run(q)
				sum += hashOutcome(q, out.Revenue, out.AdvOf, out.PricePerClick, out.Clicked)
			}
			fp[q] = sum
		}(q)
	}
	wg.Wait()
	return fp
}

// checkGates runs every correctness check of the workload after the
// stack has drained. final is the drained stream snapshot.
func (st *stack) checkGates(final *stream.Stats) []string {
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	t := &st.tally
	if t.firstErr != nil {
		fail("request error: %v", t.firstErr)
	}
	if t.misrouted > 0 {
		fail("%d responses served on a keyword other than the broad-match router's choice", t.misrouted)
	}

	// Accounting identities, and the client's view against the server's.
	sub, served, shed, rejected, unrouted := st.srv.Counters()
	if sub != served+shed+rejected {
		fail("server identity: submitted %d != served %d + shed %d + rejected %d", sub, served, shed, rejected)
	}
	if t.served != served || t.shed != shed || t.rejected != rejected || t.unrouted != unrouted {
		fail("client dispositions served/shed/rejected/unrouted %d/%d/%d/%d != server %d/%d/%d/%d",
			t.served, t.shed, t.rejected, t.unrouted, served, shed, rejected, unrouted)
	}
	if final.Served != served {
		fail("stream served %d != server served %d", final.Served, served)
	}
	streamIdentity := final.Served + final.Shed
	if st.sp.broad.Enabled {
		streamIdentity += final.Unrouted + final.Overmatched
	}
	if final.Submitted != streamIdentity {
		fail("stream identity: submitted %d != served %d + shed %d (+ unrouted %d + overmatched %d)",
			final.Submitted, final.Served, final.Shed, final.Unrouted, final.Overmatched)
	}

	if st.sp.fingerprint {
		want := st.replayFingerprint(&t.perKw)
		for q := range want {
			if want[q] != t.fp[q] {
				fail("keyword %d: outcome fingerprint %016x of %d served auctions != sequential replay %016x",
					q, t.fp[q], t.perKw[q], want[q])
			}
		}
	}
	if st.sp.budget {
		bad = append(bad, st.checkBudget()...)
	}
	return bad
}

// checkBudget verifies the spend journal and the overspend bound on
// the final (post-reset, post-churn) ledger: journal.Recover must
// reproduce every advertiser's drained spend bit for bit, and no
// advertiser may overspend its cap by more than K·R·P (K lanes,
// refresh every R lane auctions, P its largest click value).
func (st *stack) checkBudget() []string {
	var bad []string
	eng := st.engine()
	led := eng.Ledger()
	if err := eng.JournalErr(); err != nil {
		bad = append(bad, fmt.Sprintf("journal degraded: %v", err))
	}
	rec, err := journal.Recover(st.jdir)
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("journal recover: %v", err))
	case rec.State == nil || rec.State.N != led.N():
		bad = append(bad, "journal recover: no state for the final ledger")
	default:
		for i := 0; i < led.N(); i++ {
			if a, b := math.Float64bits(rec.State.Spent(i)), math.Float64bits(led.ExactSpent(i)); a != b {
				bad = append(bad, fmt.Sprintf("advertiser %d: recovered spend %x != drained %x", i, a, b))
				break
			}
		}
	}
	inst := st.srv.Stream().Instance()
	for i := 0; i < led.N(); i++ {
		b := led.Budget(i)
		if b <= 0 {
			continue
		}
		p := 0
		for _, v := range inst.Value[i] {
			p = max(p, v)
		}
		if over := led.ExactSpent(i) - b; over > float64(led.Lanes()*budgetRefresh*p) {
			bad = append(bad, fmt.Sprintf("advertiser %d overspent its cap %.2f by %.2f > K·R·P", i, b, over))
			break
		}
	}
	return bad
}
