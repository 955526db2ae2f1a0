package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/broadmatch"
	"repro/internal/client"
	"repro/internal/wire"
	"repro/internal/workload"
)

// textTable interns the free-text queries of a text workload and
// records, for each, the keyword the broad-match router must serve it
// on — computed from the same configuration the server runs, so every
// served response can be checked against it.
type textTable struct {
	router *broadmatch.Router
	texts  []string
	ids    map[string]int32
	route  []int32 // keyword, or -1 when the router leaves it unrouted
}

func newTextTable(sp *spec) *textTable {
	return &textTable{
		router: broadmatch.New(workload.BigramKeywordNames(keywords), sp.broad),
		ids:    make(map[string]int32),
	}
}

// id interns s. Called only while inputs are generated, before any
// worker reads the table.
func (t *textTable) id(s string) int32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := int32(len(t.texts))
	t.ids[s] = id
	t.texts = append(t.texts, s)
	kw := int32(-1)
	if best, _, ok := t.router.RouteBest(s); ok {
		kw = int32(best.Keyword)
	}
	t.route = append(t.route, kw)
	return id
}

// event is one scheduled request: due at offset at (ns from the phase
// start); q is a keyword id, or a text-table id for text workloads.
type event struct {
	at int64
	q  int32
}

// querySource draws a workload's requests from workload.NewStream:
// Poisson arrivals, the workload's keyword skew, and 1–3-token uniform
// free text for text workloads.
type querySource struct {
	st     *stack
	stream *workload.Stream
}

// newQuerySource draws arrivals at rate qps (unused by closed loops).
func newQuerySource(st *stack, seed int64, qps float64) *querySource {
	cfg := workload.StreamConfig{Queries: 1 << 40, QPS: qps, ZipfS: st.sp.zipf}
	if st.sp.text {
		cfg.TextTokens = 3
	}
	return &querySource{st: st, stream: workload.NewStream(st.inst, rand.New(rand.NewSource(seed)), cfg)}
}

func (s *querySource) next() event {
	ev, _ := s.stream.Next()
	e := event{at: int64(ev.At), q: int32(ev.Keyword)}
	if s.st.texts != nil {
		e.q = s.st.texts.id(ev.Text)
	}
	return e
}

// schedule returns the arrivals due within dur.
func (s *querySource) schedule(dur time.Duration) []event {
	var evs []event
	for {
		e := s.next()
		if e.at >= int64(dur) {
			return evs
		}
		evs = append(evs, e)
	}
}

// sequence returns n queries for closed-loop use (arrival times unused).
func (s *querySource) sequence(n int) []int32 {
	qs := make([]int32, n)
	for i := range qs {
		qs[i] = s.next().q
	}
	return qs
}

// tally counts one worker's dispositions and checks every served
// outcome as it arrives. Workers keep private tallies and merge them
// when they finish, so the hot path shares no counters.
type tally struct {
	served, shed, rejected, unrouted, errors int64
	perKw                                    [keywords]int64
	fp                                       fingerprint
	misrouted                                int64 // text served on a keyword other than the router's choice
	firstErr                                 error
}

func (t *tally) add(o *tally) {
	t.served += o.served
	t.shed += o.shed
	t.rejected += o.rejected
	t.unrouted += o.unrouted
	t.errors += o.errors
	t.misrouted += o.misrouted
	for q := range t.perKw {
		t.perKw[q] += o.perKw[q]
	}
	t.fp.add(&o.fp)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) failures() int64 { return t.shed + t.rejected + t.errors }
func (t *tally) attempted() int64 {
	return t.served + t.shed + t.rejected + t.unrouted + t.errors
}

// worker is one load-generator goroutine's state.
type worker struct {
	st  *stack
	c   *client.Conn
	out wire.Outcome
	t   tally
}

// do issues one request and accounts its disposition; it reports
// whether the request was answered as it should be (served, or, for
// text, correctly unrouted).
func (w *worker) do(q int32) bool {
	var err error
	tt := w.st.texts
	if tt != nil {
		err = w.c.TextInto(tt.texts[q], &w.out)
	} else {
		err = w.c.AuctionInto(int(q), &w.out)
	}
	switch {
	case err == nil:
		w.t.served++
		kw := w.out.Query
		if kw < 0 || kw >= keywords {
			w.t.misrouted++
			return false
		}
		w.t.perKw[kw]++
		if tt != nil && int32(kw) != tt.route[q] {
			w.t.misrouted++
		}
		if w.st.sp.fingerprint {
			w.t.fp[kw] += hashOutcome(kw, w.out.Revenue, w.out.AdvOf, w.out.PricePerClick, w.out.Clicked)
		}
		return true
	case errors.Is(err, client.ErrUnrouted):
		w.t.unrouted++
		if tt == nil || tt.route[q] >= 0 {
			w.t.misrouted++
		}
		return true
	case errors.Is(err, client.ErrShed):
		w.t.shed++
	case errors.Is(err, client.ErrRejected):
		w.t.rejected++
	default:
		w.t.errors++
		if w.t.firstErr == nil {
			w.t.firstErr = err
		}
	}
	return false
}

// runWorkers starts clientWindow workers per connection, runs body on
// each (with its connection index), waits for all of them, and folds
// their tallies into the stack's.
func (st *stack) runWorkers(body func(w *worker, conn int)) {
	var wg sync.WaitGroup
	workers := make([]*worker, 0, len(st.conns)*clientWindow)
	for ci, c := range st.conns {
		for s := 0; s < clientWindow; s++ {
			w := &worker{st: st, c: c}
			workers = append(workers, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(w, ci)
			}()
		}
	}
	wg.Wait()
	for _, w := range workers {
		st.tally.add(&w.t)
	}
}

// closedLoop keeps every client window slot busy: each worker issues
// its next query as soon as its previous call returns. With a zero
// deadline it serves seq once (warm-up); otherwise it cycles through
// seq until the deadline and returns the number of requests answered
// before it.
func (st *stack) closedLoop(seq []int32, deadline time.Time) (answered int64) {
	var cursor, done atomic.Int64
	n := int64(len(seq))
	timed := !deadline.IsZero()
	st.runWorkers(func(w *worker, _ int) {
		for {
			i := cursor.Add(1) - 1
			if timed && !time.Now().Before(deadline) || !timed && i >= n {
				return
			}
			if w.do(seq[i%n]) && timed && time.Now().Before(deadline) {
				done.Add(1)
			}
		}
	})
	return done.Load()
}

// openResult is one open-loop slice: per request, the latency from its
// due time to its response (-1 when it was not answered as it should
// be) and how late the generator sent it.
type openResult struct {
	lat, late  []int64
	sent, done []int64 // ns from the slice start
	start      time.Time
}

// openLoop sends sched on its fixed timetable, whatever the system
// does: a request is handed to a connection's workers when due, and
// waits in line if every window slot is busy, so a stall in the
// generator, client or server is charged to every request due during
// it. stall, when non-nil, is called before request i is sent (tests
// inject generator stalls through it).
func (st *stack) openLoop(sched []event, stall func(i int)) *openResult {
	n := len(sched)
	r := &openResult{lat: make([]int64, n), late: make([]int64, n), sent: make([]int64, n), done: make([]int64, n)}
	// Each channel can hold the whole schedule, so the dispatcher
	// never blocks on a busy connection.
	chans := make([]chan int32, len(st.conns))
	for i := range chans {
		chans[i] = make(chan int32, n)
	}
	r.start = time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.runWorkers(func(w *worker, ci int) {
			for i := range chans[ci] {
				r.sent[i] = int64(time.Since(r.start))
				ok := w.do(sched[i].q)
				d := int64(time.Since(r.start))
				r.done[i] = d
				r.lat[i] = d - sched[i].at
				if !ok {
					r.lat[i] = -1
				}
			}
		})
	}()
	for i := range sched {
		if stall != nil {
			stall(i)
		}
		due := r.start.Add(time.Duration(sched[i].at))
		sleepUntil(due)
		r.late[i] = int64(time.Since(due))
		chans[i%len(chans)] <- int32(i)
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	return r
}

// sleepUntil waits for t. The Go timer wakes sleepers on a ~1 ms
// grid when the process idles, which would add up to a millisecond of
// generator lateness to every request; the last stretch is slept with
// nanosleep(2) instead, which wakes within ~60 µs.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if d > 2*time.Millisecond {
		time.Sleep(d - 1500*time.Microsecond)
		if d = time.Until(t); d <= 0 {
			return
		}
	}
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
