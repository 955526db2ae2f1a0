package engine

import (
	"repro/internal/topk"
	"repro/internal/workload"
)

// explicitEngine evaluates every bidding program on every auction:
// the straightforward implementation of the Section II flow, used by
// methods LP, H, and RH. Its per-auction cost is Θ(n) program
// evaluations before winner determination even starts — the cost
// Section IV eliminates. Each evaluation is O(1): the ROI extrema the
// Figure 5 guards compare against are cached by Accounting.charge, so
// only the clicked winners' keywords are rescanned (O(clicks·keywords)
// per auction).
type explicitEngine struct {
	inst *workload.Instance
	bid  [][]int // bid[i][q], integral by construction
}

func newExplicitEngine(inst *workload.Instance) *explicitEngine {
	e := &explicitEngine{inst: inst, bid: make([][]int, inst.N)}
	for i := range e.bid {
		e.bid[i] = make([]int, inst.Keywords)
		copy(e.bid[i], inst.InitialBid[i])
	}
	return e
}

// step runs every advertiser's ROI program for the auction on keyword
// q at time t: the native equivalent of firing the Figure 5 trigger
// once per advertiser. Only the query keyword has positive relevance,
// so only its bid can change.
func (e *explicitEngine) step(q int, t float64, acct *Accounting) {
	for i := 0; i < e.inst.N; i++ {
		status := spendStatus(acct.SpentTotal[i], t, e.inst.Target[i])
		switch bidMode(e.inst, acct, i, q, e.bid[i][q], status) {
		case modeInc:
			e.bid[i][q]++
		case modeDec:
			e.bid[i][q]--
		}
	}
}

// scanLists materializes per-slot top-(k+1) candidate lists by a full
// scan — the pricing helper for the full-graph methods.
func scanLists(n, k int, score func(i, j int) float64) [][]topk.Item {
	lists := make([][]topk.Item, k)
	for j := 0; j < k; j++ {
		j := j
		lists[j] = topk.Select(n, k+1, func(i int) float64 { return score(i, j) })
	}
	return lists
}
