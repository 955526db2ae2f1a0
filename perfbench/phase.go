package main

import (
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/workload"
)

// background is what runs beside the load in every timed slice: a
// scraper rendering the telemetry registry once a second (at the
// middle of each one-second slice), and, on talu-budget, the
// budget-reset and churn control traffic. The traced run adds a queue
// sampler.
type background struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	renders []time.Duration
	ctlErr  error
	samples []queueSample // traced runs only
}

// queueSample is one sampler tick: each shard's queue length and the
// current budget ledger's exhausted and denied counts.
type queueSample struct {
	queued    []int
	exhausted int
	denied    int64
}

func (st *stack) startBackground(dur time.Duration, sample, churn bool) *background {
	bg := &background{stop: make(chan struct{})}
	bg.wg.Add(1)
	go func() {
		defer bg.wg.Done()
		reg := st.srv.Registry()
		start := time.Now()
		for at := dur / 2; ; at += time.Second {
			select {
			case <-bg.stop:
				return
			case <-time.After(time.Until(start.Add(at))):
			}
			t0 := time.Now()
			reg.Render()
			d := time.Since(t0)
			bg.mu.Lock()
			bg.renders = append(bg.renders, d)
			bg.mu.Unlock()
		}
	}()
	if st.sp.budget {
		bg.wg.Add(1)
		go func() {
			defer bg.wg.Done()
			st.controlTraffic(bg, dur, churn)
		}()
	}
	if sample {
		bg.wg.Add(1)
		go func() {
			defer bg.wg.Done()
			st.sampleQueues(bg)
		}()
	}
	return bg
}

func (bg *background) finish() {
	close(bg.stop)
	bg.wg.Wait()
}

// controlTraffic sends a budget reset every resetEvery and, with churn,
// one advertiser add or remove (alternating from slice to slice) a
// quarter into the slice, so the markets it rebuilds are rebuilt
// within it; all on the first client connection, until the slice ends.
func (st *stack) controlTraffic(bg *background, dur time.Duration, churn bool) {
	rng := rand.New(rand.NewSource(st.seed*31 + int64(st.ctlRound)))
	add := st.ctlRound%2 == 0
	if churn {
		st.ctlRound++
	}
	type ctl struct {
		at    time.Duration
		churn bool
	}
	var plan []ctl
	for at := resetEvery; at < dur; at += resetEvery {
		plan = append(plan, ctl{at: at})
	}
	if churn {
		plan = append(plan, ctl{at: dur / 4, churn: true})
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	start := time.Now()
	c := st.conns[0]
	for _, p := range plan {
		select {
		case <-bg.stop:
			return
		case <-time.After(time.Until(start.Add(p.at))):
		}
		var err error
		switch {
		case p.churn && add:
			a := workload.RandomAdvertiser(rng, st.inst.Slots, st.inst.Keywords)
			a.Budget = workload.RandomBudget(rng, a.Target, budgetMeanAuctions)
			_, err = c.AddAdvertiser(&a)
			st.pop++
		case p.churn:
			err = c.RemoveAdvertiser(rng.Intn(st.pop))
			st.pop--
		default:
			err = c.ResetBudgets()
		}
		if err != nil {
			bg.mu.Lock()
			bg.ctlErr = err
			bg.mu.Unlock()
			return
		}
	}
}

// sampleQueues records every shard's queue length every 2 ms. Under
// Poisson arrivals the queue an arrival finds is distributed as the
// queue at a random instant (PASTA), which is what the sampler sees.
func (st *stack) sampleQueues(bg *background) {
	ss := st.srv.Stream()
	for {
		select {
		case <-bg.stop:
			return
		default:
		}
		stats := ss.Stats()
		s := queueSample{queued: make([]int, len(stats.PerShard)),
			exhausted: stats.BudgetExhausted, denied: stats.BudgetDenied}
		for i, sh := range stats.PerShard {
			s.queued[i] = sh.Queued
		}
		bg.mu.Lock()
		bg.samples = append(bg.samples, s)
		bg.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs under the repository's
// percentile convention (rank int(q·(n−1)) of the sorted sample).
// Negative entries are unanswered requests and sort above every
// latency: a failed request misses any latency limit.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	for i, v := range s {
		if v < 0 {
			s[i] = 1<<63 - 1
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]int64, len(ds))
	for i, d := range ds {
		xs[i] = int64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}
