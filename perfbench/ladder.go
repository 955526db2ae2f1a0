package main

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
)

// ladder times the same seeded query sequence, one call at a time,
// through each layer's public entry point: Market.Run, Engine.ServeOne,
// a one-shard stream.Server's SubmitFunc (waiting for the callback),
// and client.AuctionInto over a loopback server. The rungs run side by
// side over the same instance and take turns call by call, so a drift
// in host speed reaches every rung alike and a layer's own cost is a
// subtraction of medians. The market and engine rungs share one engine
// (each call advances its keyword's market once per rung); the stream
// and client rungs each own a stack.
type ladder struct {
	market, engine, stream, net time.Duration // per-call medians
	route                       time.Duration // Engine.RouteBroad (text workloads)
	evalsPerAuction             float64       // Engine.ProgramEvaluations delta per auction
}

// ladderQuery is one routed query: its keyword, the broad-match
// relevance and weight, and the text it came from (text workloads).
type ladderQuery struct {
	q      int
	rel, w float64
	text   string
}

func runLadder(sp *spec, seed int64) (*ladder, error) {
	base := &stack{sp: sp, seed: seed, inst: sp.instance(seed)}
	if sp.text {
		base.texts = newTextTable(sp)
	}
	cfg := sp.engineConfig(seed, 0)
	cfg.Shards = 1
	seq := newQuerySource(base, scheduleSeed(seed, 99), 0).sequence(sp.ladderCalls)

	e := engine.New(base.inst, cfg)
	defer e.Close()
	s := stream.NewServer(base.inst, stream.Config{Engine: cfg})
	defer s.Close()
	srv, err := server.Listen("127.0.0.1:0", base.inst, server.Config{Stream: stream.Config{Engine: cfg}})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// Route once, outside the rung timings: the market and engine
	// rungs take the routed keyword, the upper rungs route for
	// themselves. Unrouted text never reaches a market and is skipped.
	var qs []ladderQuery
	var routeNs []int64
	for _, id := range seq {
		if base.texts == nil {
			qs = append(qs, ladderQuery{q: int(id), rel: 1, w: 1})
			continue
		}
		text := base.texts.texts[id]
		t0 := time.Now()
		best, _, ok := e.RouteBroad(text)
		routeNs = append(routeNs, int64(time.Since(t0)))
		if ok {
			qs = append(qs, ladderQuery{q: best.Keyword, rel: best.Relevance, w: best.Weight, text: text})
		}
	}

	var tot engine.Totals
	var out wire.Outcome
	done := make(chan struct{}, 1)
	cb := func(*engine.Outcome) { done <- struct{}{} }
	var mkt, eng, str, net []int64
	evals0 := e.ProgramEvaluations()
	for i, lq := range qs {
		// The two rungs sharing a market swap order every call, so
		// neither always finds the market warm in cache.
		var dm, de time.Duration
		for k := 0; k < 2; k++ {
			t := time.Now()
			if (i+k)%2 == 0 {
				e.KeywordMarket(lq.q).RunWeighted(lq.q, lq.rel, lq.w)
				dm = time.Since(t)
			} else {
				e.ServeOneWeighted(lq.q, lq.rel, lq.w, &tot)
				de = time.Since(t)
			}
		}
		t2 := time.Now()
		var r stream.SubmitResult
		if lq.text != "" {
			r = s.SubmitTextFunc(lq.text, cb)
		} else {
			r = s.SubmitFunc(lq.q, cb)
		}
		if r != stream.SubmitQueued {
			return nil, fmt.Errorf("ladder: stream rung submit result %d", r)
		}
		<-done
		t3 := time.Now()
		if lq.text != "" {
			err = c.TextInto(lq.text, &out)
		} else {
			err = c.AuctionInto(lq.q, &out)
		}
		t4 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("ladder: client rung: %w", err)
		}
		mkt = append(mkt, int64(dm))
		eng = append(eng, int64(de))
		str = append(str, int64(t3.Sub(t2)))
		net = append(net, int64(t4.Sub(t3)))
	}
	med := func(xs []int64) time.Duration { return time.Duration(quantile(xs, 0.5)) }
	return &ladder{
		market: med(mkt), engine: med(eng), stream: med(str), net: med(net), route: med(routeNs),
		evalsPerAuction: float64(e.ProgramEvaluations()-evals0) / float64(max(1, 2*len(qs))),
	}, nil
}
