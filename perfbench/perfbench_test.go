package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// outcomesOf runs n auctions on one keyword of a small Section V market
// and returns copies of the outcomes.
func outcomesOf(t *testing.T, n int) []*engine.Outcome {
	t.Helper()
	sp := specByName("sv-rh")
	inst := sp.instance(7)
	m := engine.NewMarketOpts(inst, engine.MarketOpts{Method: sp.method, ClickSeed: engine.KeywordSeed(9, 3)})
	var outs []*engine.Outcome
	for i := 0; i < n; i++ {
		outs = append(outs, m.Run(3).Clone())
	}
	return outs
}

func digest(outs []*engine.Outcome) fingerprint {
	var fp fingerprint
	for _, o := range outs {
		fp[o.Query] += hashOutcome(o.Query, o.Revenue, o.AdvOf, o.PricePerClick, o.Clicked)
	}
	return fp
}

func TestFingerprintOrderInvariantAndPriceSensitive(t *testing.T) {
	outs := outcomesOf(t, 40)
	want := digest(outs)
	rev := make([]*engine.Outcome, len(outs))
	for i, o := range outs {
		rev[len(outs)-1-i] = o
	}
	if got := digest(rev); got != want {
		t.Fatalf("reordered digest %x != %x", got, want)
	}
	// Flip the lowest bit of one charged price.
	for _, o := range outs {
		for j, p := range o.PricePerClick {
			if p > 0 {
				o.PricePerClick[j] = math.Float64frombits(math.Float64bits(p) ^ 1)
				if got := digest(outs); got == want {
					t.Fatal("a flipped price left the digest unchanged")
				}
				return
			}
		}
	}
	t.Fatal("no charged price to flip")
}

// TestStallChargedFromDueTime injects a 50 ms stall into the generator
// and checks that every request due during it is charged the wait:
// latency runs from the due time, not from the late send.
func TestStallChargedFromDueTime(t *testing.T) {
	st, err := setup(specByName("tail-broad"), 5, t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.teardown()
	sched := newQuerySource(st, 11, 2000).schedule(200 * time.Millisecond)
	const k, stall = 100, 50 * time.Millisecond
	if len(sched) <= k+20 {
		t.Fatalf("schedule too short: %d", len(sched))
	}
	r := st.openLoop(sched, func(i int) {
		if i == k {
			time.Sleep(stall)
		}
	})
	// The stall began no earlier than request k-1's due time.
	stallEnd := sched[k-1].at + int64(stall)
	charged := 0
	for i := k; i < len(sched) && sched[i].at < stallEnd; i++ {
		if r.lat[i] < 0 {
			t.Fatalf("request %d not answered", i)
		}
		if want := stallEnd - sched[i].at; r.lat[i] < want || r.late[i] < want {
			t.Fatalf("request %d due %v: latency %v, late %v; want both >= %v",
				i, time.Duration(sched[i].at), time.Duration(r.lat[i]), time.Duration(r.late[i]), time.Duration(want))
		}
		charged++
	}
	if charged < 10 {
		t.Fatalf("only %d requests fell due during the stall", charged)
	}
}

// TestSmokeEveryWorkload runs each workload end to end for a fraction
// of a second and requires its correctness gates to pass.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runEndToEnd(sp, 3, 300*time.Millisecond, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("gates failed: %v", res.failures)
			}
			for _, name := range []string{"setup_s", "p50_ms.lo", "p50_ms.hi",
				"peak_qps", "cpu_us_per_auction", "fail_frac", "heap_mb"} {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("metric %s = %+v, want > 0", name, m)
				}
			}
			if len(res.info) != 2 {
				t.Errorf("p99 lines %q, want p99_ms.lo and p99_ms.hi", res.info)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d failed %d", res.Attempted, res.Failed)
			}
		})
	}
}

// TestGateCatchesWrongOutcome tampers with one keyword's digest after
// serving and expects the replay gate to refuse it.
func TestGateCatchesWrongOutcome(t *testing.T) {
	st, err := setup(specByName("heavy-vcg"), 4, t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.teardown()
	st.tally.fp[2] ^= 1
	bad := st.finish()
	if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), "keyword 2") {
		t.Fatalf("tampered digest passed the gates: %v", bad)
	}
}
