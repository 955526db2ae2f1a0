package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// The traced run measures each layer from outside the program: it
// records benchmark-side spans around every client call, reads the
// engine's trace ring (engine.Config.TraceSample), snapshots
// Registry.Render() at slice boundaries, samples the stream queues,
// and times the layer ladder. It adds no tracing inside the program.

// promSample parses a Prometheus text exposition into series → value.
func promSample(b []byte) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// snapshot is the state read at a slice boundary.
type snapshot struct {
	at      time.Time
	render  string
	prom    map[string]float64
	service obs.HistSnapshot // engine auction latency
	rtt     obs.HistSnapshot // client round trips
	journal journal.Stats
}

func (st *stack) snapshot() *snapshot {
	b := st.srv.Registry().Render()
	s := &snapshot{at: time.Now(), render: string(b), prom: promSample(b)}
	st.engine().Metrics().Latency.SnapshotInto(&s.service)
	st.rtt.SnapshotInto(&s.rtt)
	if st.jw != nil {
		s.journal = st.jw.Stats()
	}
	return s
}

// histDelta is the histogram of the observations between a and b.
func histDelta(a, b *obs.HistSnapshot) *obs.HistSnapshot {
	d := *b
	for i := range d.Counts {
		d.Counts[i] -= a.Counts[i]
	}
	d.Count -= a.Count
	d.Sum -= a.Sum
	return &d
}

func (a *snapshot) delta(b *snapshot, series string) float64 { return b.prom[series] - a.prom[series] }

// ringEvent is one decoded trace-ring event (obs.TraceRing.DumpJSON).
type ringEvent struct {
	Keyword int64 `json:"keyword"`
	Auction int64 `json:"auction"`
	Start   int64 `json:"start_ns"`
	Solve   int64 `json:"solve_ns"`
	Price   int64 `json:"price_ns"`
	Charge  int64 `json:"charge_ns"`
}

// runTraced is the traced run: an untraced saturation slice as the
// reference, the traced high-rate and saturation slices on a stack
// built with TraceSample, the ladder, and every per-layer metric.
func runTraced(sp *spec, seed int64, phase time.Duration, workdir, stamp string) (*result, error) {
	res := newResult()
	slice := min(phase, 3*time.Second)

	// Untraced reference: CPU, allocations and GC at saturation.
	st, err := setup(sp, seed, workdir, 0, nil)
	if err != nil {
		return nil, err
	}
	ref := st.runPeak(slice, 3, true)
	res.failures = append(res.failures, st.finish(ref.bg)...)
	st.teardown()
	refTally := st.tally

	reg := obs.NewRegistry()
	rtt := reg.Histogram("perfbench_client_rtt_ns", "client round trip, nanoseconds")
	st, err = setup(sp, seed, workdir, sp.traceSample, rtt)
	if err != nil {
		return nil, err
	}
	defer st.teardown()
	s0 := st.snapshot()
	hi := st.runOpen(sp.hiQPS, slice, 2, true)
	s1 := st.snapshot()
	var ring bytes.Buffer
	if err := st.engine().TraceRing().DumpJSON(&ring); err != nil {
		return nil, err
	}
	pk := st.runPeak(slice, 3, true)
	s2 := st.snapshot()
	res.failures = append(res.failures, st.finish(hi.bg, pk.bg)...)

	lad, err := runLadder(sp, seed)
	if err != nil {
		return nil, err
	}

	var events []ringEvent
	if err := json.Unmarshal(ring.Bytes(), &events); err != nil {
		return nil, fmt.Errorf("trace ring: %w", err)
	}
	layerMetrics(res, sp, hi, []*peakSlice{ref}, []*peakSlice{pk}, s0, s1, lad, events)

	attempted := st.tally.attempted() + refTally.attempted()
	res.Attempted = attempted - int64(2*sp.warmup)
	res.Failed = st.tally.failures() + refTally.failures()
	res.Correct = len(res.failures) == 0

	path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", sp.name, seed))
	if err := writeTrace(path, stamp, sp, hi, ring.Bytes(), []*snapshot{s0, s1, s2}, lad); err != nil {
		return nil, err
	}
	fmt.Printf("# trace written to %s\n", path)
	fmt.Printf("# ladder: market %v, engine %v, stream %v, client %v; market.run is %.0f%% of the client rung\n",
		lad.market, lad.engine, lad.stream, lad.net, 100*float64(lad.market)/float64(lad.net))
	return res, nil
}

func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// layerMetrics fills the per-layer metrics. Open-loop figures come from
// the traced high-rate slice (between snapshots a and b), CPU figures
// from the saturation slices, own-cost figures from the ladder.
func layerMetrics(res *result, sp *spec, hi *openSlice, ref, traced []*peakSlice, a, b *snapshot, lad *ladder, events []ringEvent) {
	secs := b.at.Sub(a.at).Seconds()
	served := a.delta(b, "ssa_auctions_total")

	res.set("loadgen.late_p99_ms", lateP99ms([]*openSlice{hi}), "ms")

	rtt := histDelta(&a.rtt, &b.rtt)
	res.set("client.rtt_p50_us", float64(rtt.Quantile(0.50))/1e3, "us")
	res.set("client.rtt_p99_us", float64(rtt.Quantile(0.99))/1e3, "us")

	res.set("server.self_us", usOf(lad.net-lad.stream), "us")
	res.set("server.rejected_frac", ratio(a.delta(b, "ssa_server_rejected_total"), a.delta(b, "ssa_server_submitted_total")), "ratio")

	svc := histDelta(&a.service, &b.service)
	meanSvc := 0.0
	if svc.Count > 0 {
		meanSvc = float64(svc.Sum) / float64(svc.Count)
	}
	shards := shardServed(a, b)
	w50, w99 := queueWait(hi.bg.samples, shards, meanSvc)
	res.set("stream.queue_wait_p50_us", w50/1e3, "us")
	res.set("stream.queue_wait_p99_us", w99/1e3, "us")
	res.set("stream.self_us", usOf(lad.stream-lad.engine-lad.route), "us")
	res.set("stream.shed_frac", ratio(a.delta(b, "ssa_stream_shed_total"), a.delta(b, "ssa_stream_submitted_total")), "ratio")
	res.set("stream.fences_per_s", a.delta(b, "ssa_stream_fences_total")/secs, "1/s")

	if sp.broad.Enabled {
		res.set("broadmatch.route_us", usOf(lad.route), "us")
		res.set("broadmatch.serve_ratio", ratio(served, a.delta(b, "ssa_stream_submitted_total")), "ratio")
		res.set("broadmatch.unrouted_frac", ratio(a.delta(b, "ssa_stream_unrouted_total"), float64(len(hi.sched))), "ratio")
	} else {
		res.setNA("broadmatch.route_us", "us")
		res.setNA("broadmatch.serve_ratio", "ratio")
		res.setNA("broadmatch.unrouted_frac", "ratio")
	}

	res.set("engine.service_p50_us", float64(svc.Quantile(0.50))/1e3, "us")
	res.set("engine.service_p99_us", float64(svc.Quantile(0.99))/1e3, "us")
	res.set("engine.self_us", usOf(lad.engine-lad.market), "us")
	maxShard, sum := 0.0, 0.0
	for _, v := range shards {
		maxShard = max(maxShard, v)
		sum += v
	}
	res.set("engine.shard_skew", ratio(maxShard, sum/float64(max(1, len(shards)))), "ratio")
	depth := 0
	for _, s := range hi.bg.samples {
		for _, q := range s.queued {
			depth = max(depth, q)
		}
	}
	res.set("engine.queue_depth_max", float64(depth), "count")

	res.set("market.run_us", usOf(lad.market), "us")
	var solve, price, charge []int64
	from := hi.r.start.UnixNano()
	for _, ev := range events {
		if ev.Start < from || ev.Solve == 0 || ev.Price == 0 || ev.Charge == 0 {
			continue // set-up's samples, or an unfinished stamp
		}
		solve = append(solve, ev.Solve-ev.Start)
		price = append(price, ev.Price-ev.Solve)
		charge = append(charge, ev.Charge-ev.Price)
	}
	res.set("market.solve_us", float64(quantile(solve, 0.5))/1e3, "us")
	res.set("market.price_us", float64(quantile(price, 0.5))/1e3, "us")
	res.set("market.charge_us", float64(quantile(charge, 0.5))/1e3, "us")
	res.set("market.program_evals_per_auction", lad.evalsPerAuction, "count")

	if sp.budget {
		var denied, prev int64
		exhausted := 0
		for _, s := range hi.bg.samples {
			// A reset starts a fresh ledger whose count starts over.
			if s.denied >= prev {
				denied += s.denied - prev
			} else {
				denied += s.denied
			}
			prev = s.denied
			exhausted = max(exhausted, s.exhausted)
		}
		res.set("budget.denied_per_auction", ratio(float64(denied), served), "count")
		res.set("budget.exhausted_max", float64(exhausted), "count")
		ja, jb := a.journal, b.journal
		bytes := float64(jb.JournalBytes-ja.JournalBytes) + float64(jb.Snapshots-ja.Snapshots)*(4<<20)
		res.set("journal.records_per_kauction", 1000*ratio(float64(jb.Records-ja.Records), served), "count")
		res.set("journal.bytes_per_auction", ratio(bytes, served), "B")
		res.set("journal.snapshots", float64(jb.Snapshots-ja.Snapshots), "count")
	} else {
		res.setNA("budget.denied_per_auction", "count")
		res.setNA("budget.exhausted_max", "count")
		res.setNA("journal.records_per_kauction", "count")
		res.setNA("journal.bytes_per_auction", "B")
		res.setNA("journal.snapshots", "count")
	}

	var renders []time.Duration
	for _, bg := range []*background{hi.bg, traced[0].bg, ref[0].bg} {
		renders = append(renders, bg.renders...)
	}
	res.set("obs.render_ms", float64(medianDur(renders))/1e6, "ms")
	untraced, withTrace := cpuUsPerReq(ref), cpuUsPerReq(traced)
	res.set("obs.trace_overhead_pct", 100*(withTrace-untraced)/untraced, "%")

	allocs, gcs := runtimePerReq(ref)
	res.set("runtime.allocs_per_auction", allocs, "count")
	res.set("runtime.gc_per_kauction", gcs, "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shardServed is each shard's auctions between two snapshots.
func shardServed(a, b *snapshot) []float64 {
	var out []float64
	for i := 0; ; i++ {
		key := fmt.Sprintf(`ssa_auctions_by_shard_total{shard="%d"}`, i)
		if _, ok := b.prom[key]; !ok {
			return out
		}
		out = append(out, a.delta(b, key))
	}
}

// queueWait estimates the stream-queue wait quantiles (ns). Poisson
// arrivals find each shard's queue distributed as it is at a random
// instant (PASTA), so the sampled queue lengths, weighted by each
// shard's share of arrivals and multiplied by the mean service time,
// give the wait an arrival sees ahead of it.
func queueWait(samples []queueSample, shardServed []float64, meanSvc float64) (p50, p99 float64) {
	type wq struct{ q, w float64 }
	var xs []wq
	var total float64
	for _, s := range samples {
		for i, q := range s.queued {
			if i < len(shardServed) && shardServed[i] > 0 {
				xs = append(xs, wq{float64(q), shardServed[i]})
				total += shardServed[i]
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].q < xs[j].q })
	at := func(p float64) float64 {
		var cum float64
		for _, x := range xs {
			cum += x.w
			if cum >= p*total {
				return x.q * meanSvc
			}
		}
		return xs[len(xs)-1].q * meanSvc
	}
	return at(0.50), at(0.99)
}

// writeTrace writes the run's spans, the trace ring, the registry
// snapshots and the ladder to path, stamped with the host.
func writeTrace(path, stamp string, sp *spec, hi *openSlice, ring []byte, snaps []*snapshot, lad *ladder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"stamp\":%q,\"workload\":%q,\n\"spans\":[", stamp, sp.name)
	// One span per client call of the traced high-rate slice, keyed by
	// request id; times are ns from the slice start.
	for i, ev := range hi.sched {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "{\"id\":%d,\"q\":%d,\"due\":%d,\"sent\":%d,\"done\":%d,\"ok\":%t}",
			i, ev.q, ev.at, hi.r.sent[i], hi.r.done[i], hi.r.lat[i] >= 0)
	}
	fmt.Fprintf(w, "],\n\"ring\":%s,\n\"renders\":[", bytes.TrimSpace(ring))
	for i, s := range snaps {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", s.render)
	}
	fmt.Fprintf(w, "],\n\"ladder_ns\":{\"market\":%d,\"engine\":%d,\"stream\":%d,\"client\":%d,\"route\":%d}}\n",
		lad.market, lad.engine, lad.stream, lad.net, lad.route)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
