package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/formula"
	"repro/internal/matching"
	"repro/internal/topk"
)

// HeavyDeterminer solves Section III-F heavyweight winner
// determination repeatedly without rebuilding per-call state: the
// 2^k pattern enumeration runs over cached scratch — the
// heavyweight/lightweight index partitions, the per-pattern baseline
// vector, the two sub-matching weight matrices (flat backing buffers
// with reused row headers), and a matching.Workspace for the
// Jonker–Volgenant solves — so a serving worker can feed it auction
// after auction with zero heap allocations in steady state. Results
// are byte-identical to the sequential HeavyAuction.Determine path
// (same enumeration order, same matrix construction, same tie
// handling), which the equivalence tests pin exactly.
//
// Three serving-path optimizations ride on top of the plain
// enumeration, all outcome-preserving (see DESIGN.md, "Heavy path at
// scale"):
//
//   - Pattern-parallel solving: the per-pattern solves are
//     independent (the paper's "2^k processing units" remark), so a
//     determiner built with NewHeavyDeterminerParallel fans them
//     across a persistent worker pool. Each worker owns a full
//     heavySolver (workspace, matrices, candidate scratch) and keeps
//     a local argmax; the coordinator merges the local bests under
//     the deterministic (highest revenue, lowest pattern index) rule,
//     which is exactly the argmax the sequential ascending strict->
//     scan selects.
//   - Reduced per-pattern matching: each pattern's two sub-matchings
//     restrict the Jonker–Volgenant solve to every slot's top-(k+1)
//     candidates (boundary ties included), using the topk bounded
//     heap over the already-materialized weight columns. The weight
//     matrices are still filled in full — the shared forcing
//     constant's maxAbs must see every entry to stay bit-identical —
//     but the superlinear assignment solve runs on O(k²) rows
//     instead of n.
//   - A per-call payment memo: an advertiser whose bids never
//     reference Heavy_j owes the same amount under every pattern, so
//     each call evaluates its bid table once per (slot, click,
//     purchase) outcome and every pattern reads the stored values.
//
// Like Determiner, a HeavyDeterminer is not safe for concurrent use
// (its internal pool parallelism is invisible to callers).
// Structural validation is cached per (auction pointer, advertiser
// count, slot count), and so are the memo's per-advertiser
// pattern-free flags: callers that mutate bid *values* in place
// between calls (the serving engine's pattern) skip revalidation —
// the memo's values are refilled on every call — but swapping in
// different formulas, models, or Heavy flags under the same auction
// pointer is the caller's contract to revalidate: pass a fresh
// auction value, or call Invalidate, when anything but bid values
// changes.
type HeavyDeterminer struct {
	// parallelism is the resolved worker count (≥ 1); solvers holds one
	// heavySolver per worker, with solvers[0] doubling as the
	// sequential path and the coordinating goroutine's share of a
	// parallel enumeration. pool is spawned lazily on the first
	// enumeration that can use more than one worker.
	parallelism int
	solvers     []*heavySolver
	pool        *heavyPool
	released    bool

	// job is the enumeration input every worker reads. It is its own
	// allocation so the pool can share it without keeping the
	// determiner reachable.
	job *heavyJob

	// Validation cache: DetermineInto and VCGPaymentsInto skip
	// structural validation (and keep the memo's pattern-free flags)
	// when the auction pointer and shape match the last validated call.
	lastH *HeavyAuction
	lastN int
	lastK int

	// vals holds each advertiser's realized value during VCG pricing.
	vals []float64
}

// heavyJob is one enumeration's read-only input, published to the
// pool workers before they are woken.
type heavyJob struct {
	h                  *HeavyAuction
	patterns           int
	heavyIdx, lightIdx []int
	memo               paymentMemo

	// maxHeavySlots is the most heavyweight slots any auction of the
	// job can fill; patterns with more are skipped unfilled.
	maxHeavySlots int

	// vcg selects the counterfactual sweep: each pattern is scored once
	// per winner with that winner's row removed, instead of once for
	// the full auction.
	vcg     bool
	winners []vcgWinner
}

// vcgWinner locates one winner of the priced allocation: its
// advertiser index, its class, and its row in that class's board.
type vcgWinner struct {
	adv   int
	heavy bool
	row   int
}

// paymentMemo holds one call's bid-table payments for the advertisers
// whose bids never reference the heavyweight pattern. For them
// Bids.Payment ignores Outcome.HeavySlots, so the values evaluated
// once per call equal what every pattern would compute.
type paymentMemo struct {
	// free is cached with validation: free[i] iff no bid row of
	// advertiser i references Heavy_j.
	free []bool
	k    int
	// base[i] is the unplaced payment; pay[(i*k+j)*3+c] the payment in
	// slot j with no click (c=0), a click (1), or click and purchase (2).
	base []float64
	pay  []float64
}

// fill re-evaluates the memo for h's current bid values. Bid values
// change in place between auctions, so it runs on every call.
func (m *paymentMemo) fill(h *HeavyAuction) {
	n, k := len(h.Advertisers), h.Slots
	m.k = k
	m.base = growF(m.base, n)
	m.pay = growF(m.pay, n*k*3)
	for i := range h.Advertisers {
		if !m.free[i] {
			continue
		}
		bids := h.Advertisers[i].Bids
		m.base[i] = bids.Payment(formula.Outcome{})
		pay := m.pay[i*k*3 : (i+1)*k*3]
		for j := 0; j < k; j++ {
			slot := j + 1
			pay[3*j] = bids.Payment(formula.Outcome{Slot: slot})
			pay[3*j+1] = bids.Payment(formula.Outcome{Slot: slot, Clicked: true})
			pay[3*j+2] = bids.Payment(formula.Outcome{Slot: slot, Clicked: true, Purchased: true})
		}
	}
}

// baseline is advertiser i's unplaced payment under pattern.
func (m *paymentMemo) baseline(h *HeavyAuction, i int, pattern uint64) float64 {
	if m.free[i] {
		return m.base[i]
	}
	return h.Advertisers[i].Bids.Payment(formula.Outcome{HeavySlots: pattern})
}

// expected is h.expectedPaymentPattern(i, j, pattern), reading the
// memo for pattern-free advertisers: the same products and additions
// in the same order, so the result is bit-identical.
func (m *paymentMemo) expected(h *HeavyAuction, i, j int, pattern uint64) float64 {
	if !m.free[i] {
		return h.expectedPaymentPattern(i, j, pattern)
	}
	w := h.Model.ClickProb(i, j, pattern)
	q := h.Model.PurchaseProb(i, j, pattern)
	pay := m.pay[(i*m.k+j)*3:]
	var total float64
	if p := 1 - w; p > 0 {
		total += p * pay[0]
	}
	if p := w * (1 - q); p > 0 {
		total += p * pay[1]
	}
	if p := w * q; p > 0 {
		total += p * pay[2]
	}
	return total
}

// NewHeavyDeterminer returns a sequential determiner with empty
// buffers; they grow to the largest auction seen and then stay
// allocation-free.
func NewHeavyDeterminer() *HeavyDeterminer { return NewHeavyDeterminerParallel(1) }

// NewHeavyDeterminerParallel returns a determiner that solves the
// 2^k pattern enumeration on up to parallelism workers (the calling
// goroutine plus parallelism−1 pooled goroutines, spawned lazily and
// parked between calls). parallelism ≤ 0 means GOMAXPROCS; the
// effective worker count of any one call is additionally capped by
// its pattern count. parallelism 1 is exactly NewHeavyDeterminer: no
// goroutines, ever. Results are byte-identical at every setting.
//
// A parallel determiner holds pooled goroutines once used; Release
// stops them (a finalizer covers determiners dropped without it).
func NewHeavyDeterminerParallel(parallelism int) *HeavyDeterminer {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	d := &HeavyDeterminer{
		parallelism: parallelism,
		solvers:     make([]*heavySolver, parallelism),
		job:         &heavyJob{},
	}
	for i := range d.solvers {
		d.solvers[i] = newHeavySolver()
	}
	return d
}

// Parallelism reports the determiner's resolved worker count.
func (d *HeavyDeterminer) Parallelism() int { return d.parallelism }

// Invalidate drops the cached structural validation and pattern-free
// flags, forcing the next call to revalidate. Call it after changing
// an auction's formulas, model, or Heavy flags in place.
func (d *HeavyDeterminer) Invalidate() { d.lastH = nil }

// Release stops the determiner's pooled goroutines (a parallel
// determiner parks parallelism−1 workers between calls). Idempotent;
// must not race an in-flight call, and a released determiner must not
// be used again. A finalizer calls Release for determiners dropped
// without one, so leaking a determiner leaks no goroutines
// permanently — Release just makes the reclamation deterministic (the
// serving engine calls it when a market is rebuilt or closed).
func (d *HeavyDeterminer) Release() {
	if d.released {
		return
	}
	d.released = true
	if d.pool != nil {
		close(d.pool.stop)
		runtime.SetFinalizer(d, nil)
	}
}

// growF, growI resize scratch slices, reusing backing arrays whenever
// they are large enough.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// subMatrix returns an r×c view over the flat backing buffer,
// growing both to the largest shape seen.
func subMatrix(flat *[]float64, rows *[][]float64, r, c int) [][]float64 {
	if cap(*flat) < r*c {
		*flat = make([]float64, r*c)
	}
	*flat = (*flat)[:r*c]
	if cap(*rows) < r {
		*rows = make([][]float64, r)
	}
	*rows = (*rows)[:r]
	for i := 0; i < r; i++ {
		(*rows)[i] = (*flat)[i*c : (i+1)*c]
	}
	return *rows
}

// Determine solves heavyweight winner determination for h, reusing
// the determiner's scratch. The Result is freshly allocated and safe
// to retain.
func (d *HeavyDeterminer) Determine(h *HeavyAuction) (*Result, error) {
	res := &Result{}
	if err := d.DetermineInto(h, res); err != nil {
		return nil, err
	}
	return res, nil
}

// prepare validates h (through the cache), partitions its advertisers
// into heavyweights and lightweights, refills the payment memo, and
// sets up a primary enumeration — the entry step of every call.
func (d *HeavyDeterminer) prepare(h *HeavyAuction) error {
	n := len(h.Advertisers)
	job := d.job
	if h != d.lastH || n != d.lastN || h.Slots != d.lastK {
		if cap(job.memo.free) < n {
			job.memo.free = make([]bool, n)
		}
		job.memo.free = job.memo.free[:n]
		// A failed validation may have overwritten some flags, so it
		// must not leave an earlier auction's cache entry standing.
		d.lastH = nil
		if err := h.validate(job.memo.free); err != nil {
			return err
		}
		d.lastH, d.lastN, d.lastK = h, n, h.Slots
	}
	job.heavyIdx, job.lightIdx = job.heavyIdx[:0], job.lightIdx[:0]
	for i := range h.Advertisers {
		if h.Advertisers[i].Heavy {
			job.heavyIdx = append(job.heavyIdx, i)
		} else {
			job.lightIdx = append(job.lightIdx, i)
		}
	}
	job.maxHeavySlots = len(job.heavyIdx)
	job.vcg, job.winners = false, job.winners[:0]
	job.memo.fill(h)
	return nil
}

// DetermineInto is Determine writing into a caller-owned Result whose
// AdvOf/SlotOf slices are reused when large enough — the serving
// engine's allocation-free entry point.
func (d *HeavyDeterminer) DetermineInto(h *HeavyAuction, res *Result) error {
	if err := d.prepare(h); err != nil {
		return err
	}
	n, k := len(h.Advertisers), h.Slots
	d.enumerate(h)

	// Merge the per-worker local bests. Each worker claimed patterns
	// in ascending order and kept the lowest pattern attaining its
	// local maximum, so the rule below reproduces the global ascending
	// scan regardless of how the atomic claims interleaved.
	var best *heavySolver
	for _, s := range d.solvers {
		if s.best.ok && (best == nil || s.best.beats(best.best)) {
			best = s
		}
	}
	if best == nil {
		return fmt.Errorf("core: no consistent heavyweight pattern (internal error)")
	}

	res.AdvOf = growI(res.AdvOf, k)
	res.SlotOf = growI(res.SlotOf, n)
	copy(res.AdvOf, best.bestAdvOf)
	for i := range res.SlotOf {
		res.SlotOf[i] = -1
	}
	for j, i := range res.AdvOf {
		if i >= 0 {
			res.SlotOf[i] = j
		}
	}
	res.ExpectedRevenue = best.best.rev
	res.Method = MethodHeavy2K
	return nil
}

// enumerate runs the prepared job for h over every pattern,
// sequentially or on the pool. Patterns are enumerated in ascending
// order under the deterministic (highest revenue, lowest pattern
// index) argmax — the same winner the sequential
// HeavyAuction.Determine scan's strict > running best selects. With
// no heavyweight advertisers only pattern 0 can be consistent (every
// other pattern has a heavyweight slot nobody can fill), so the
// enumeration collapses to the flat single-matching path.
func (d *HeavyDeterminer) enumerate(h *HeavyAuction) {
	job := d.job
	job.h = h
	job.patterns = 1 << uint(h.Slots)
	if len(job.heavyIdx) == 0 {
		job.patterns = 1
	}
	for _, s := range d.solvers {
		s.reset(job)
	}
	if d.parallelism == 1 || job.patterns == 1 {
		for p := 0; p < job.patterns; p++ {
			d.solvers[0].solvePattern(job, uint64(p))
		}
	} else {
		d.runParallel()
	}
	job.h = nil // drop the auction reference between calls
}

// runParallel fans one enumeration across the persistent pool,
// spawning it on first use. The coordinator participates as a worker
// (solvers[0]), so parallelism goroutines in total claim patterns
// from the shared atomic counter; the call allocates nothing once the
// pool exists.
func (d *HeavyDeterminer) runParallel() {
	if d.pool == nil {
		p := &heavyPool{
			job:  d.job,
			stop: make(chan struct{}),
			wake: make([]chan struct{}, len(d.solvers)-1),
		}
		for w := range p.wake {
			p.wake[w] = make(chan struct{}, 1)
			go p.worker(d.solvers[w+1], p.wake[w])
		}
		d.pool = p
		// The workers reference the pool, the job and the solvers,
		// never the determiner, so an abandoned determiner stays
		// collectable; the finalizer then stops its goroutines.
		runtime.SetFinalizer(d, (*HeavyDeterminer).Release)
	}
	p := d.pool
	p.next.Store(0)
	p.wg.Add(len(p.wake))
	for _, c := range p.wake {
		c <- struct{}{}
	}
	p.claim(d.solvers[0])
	p.wg.Wait()
}

// heavyPool is the persistent worker set behind a parallel
// HeavyDeterminer: parallelism−1 goroutines parked on buffered
// per-worker wake channels, a shared atomic pattern-claim counter,
// and the job the coordinator fills before waking them (the channel
// send orders the job's publication before the worker's reads, and
// wg.Done orders the worker's solver writes before the coordinator's
// merge).
type heavyPool struct {
	job  *heavyJob
	stop chan struct{}
	wake []chan struct{}
	wg   sync.WaitGroup
	next atomic.Int64
}

// claim pulls patterns off the shared counter until the enumeration
// is exhausted, folding each into s's local bests.
func (p *heavyPool) claim(s *heavySolver) {
	for {
		pat := p.next.Add(1) - 1
		if pat >= int64(p.job.patterns) {
			return
		}
		s.solvePattern(p.job, uint64(pat))
	}
}

func (p *heavyPool) worker(s *heavySolver, wake <-chan struct{}) {
	for {
		select {
		case <-p.stop:
			return
		case <-wake:
			p.claim(s)
			p.wg.Done()
		}
	}
}

// patternBest is a running argmax under the deterministic reduction
// rule: highest revenue, lowest pattern index on exact ties.
type patternBest struct {
	ok      bool
	rev     float64
	pattern uint64
}

// beats reports whether b is preferred to o (b.ok assumed).
func (b patternBest) beats(o patternBest) bool {
	return !o.ok || b.rev > o.rev || (b.rev == o.rev && b.pattern < o.pattern)
}

// offer folds a consistent pattern's revenue into b, reporting whether
// it became the new best.
func (b *patternBest) offer(rev float64, pattern uint64) bool {
	c := patternBest{ok: true, rev: rev, pattern: pattern}
	if !c.beats(*b) {
		return false
	}
	*b = c
	return true
}

// heavySolver is the per-worker half of a HeavyDeterminer: every
// scratch buffer one pattern solve touches — slot partitions, the
// baseline vector, both weight matrices, the reduced-matching
// candidate machinery, and a matching.Workspace — plus local running
// argmaxes, so parallel workers share nothing mutable.
type heavySolver struct {
	ws *matching.Workspace

	heavySlots, lightSlots []int

	// base and rowMax are indexed by advertiser: the unplaced payment
	// under the current pattern, and the largest |w| in the
	// advertiser's row of its class board.
	base, rowMax []float64

	// The unforced heavy and light boards, filled once per pattern;
	// forcedRows is the forcing-shifted heavy sub-board of one solve,
	// and lightSub a row view of the light board with one row dropped.
	heavyFlat, lightFlat, forcedFlat []float64
	heavyRows, lightRows, forcedRows [][]float64
	lightSub                         [][]float64

	heavyAdvOf, lightAdvOf []int
	curAdvOf               []int

	// Reduced-matching scratch: the bounded top-depth heap, the
	// stamp-cleared candidate marks (mark[a] == stamp iff row a is in
	// cands for the current reduction), and the ascending candidate
	// union.
	heap  *topk.Heap
	depth int
	mark  []int
	stamp int
	cands []int

	// best and bestAdvOf are the primary enumeration's local argmax;
	// cf[w] is the local argmax of the auction without job.winners[w].
	best      patternBest
	bestAdvOf []int
	cf        []patternBest
}

func newHeavySolver() *heavySolver {
	return &heavySolver{ws: matching.NewWorkspace()}
}

// reset clears the local argmaxes before an enumeration and sizes the
// per-pattern buffers for the job.
func (s *heavySolver) reset(job *heavyJob) {
	n, k := len(job.h.Advertisers), job.h.Slots
	s.best = patternBest{}
	s.base = growF(s.base, n)
	s.rowMax = growF(s.rowMax, n)
	s.curAdvOf = growI(s.curAdvOf, k)
	s.bestAdvOf = growI(s.bestAdvOf, k)
	if cap(s.cf) < len(job.winners) {
		s.cf = make([]patternBest, len(job.winners))
	}
	s.cf = s.cf[:len(job.winners)]
	for w := range s.cf {
		s.cf[w] = patternBest{}
	}
}

// solvePattern scores one heavyweight-slot pattern and folds it into
// the solver's local bests. The primary enumeration scores the full
// auction — mirroring HeavyAuction.solvePattern operation for
// operation: baseline sums, weight fill order, the shared forcing
// constant, the two sub-matchings, and the revenue summation order
// are all identical. The VCG sweep scores, from the same boards, the
// auction without each winner in turn — exactly what a fresh
// determiner would compute on the sub-auction with that advertiser's
// row deleted (DESIGN.md, "VCG pricing").
func (s *heavySolver) solvePattern(job *heavyJob, pattern uint64) {
	k := job.h.Slots
	s.heavySlots, s.lightSlots = s.heavySlots[:0], s.lightSlots[:0]
	for j := 0; j < k; j++ {
		if pattern&(1<<uint(j)) != 0 {
			s.heavySlots = append(s.heavySlots, j)
		} else {
			s.lightSlots = append(s.lightSlots, j)
		}
	}
	if len(s.heavySlots) > job.maxHeavySlots {
		return // no auction of the job can fill every heavyweight slot
	}
	nh, nl := len(job.heavyIdx), len(job.lightIdx)
	s.fill(job, pattern)

	// The forcing constant's maxAbs is a maximum over every entry of
	// both boards — order-independent — so it is taken over the row
	// maxima; the top two make "every row but one" O(1).
	var max1, max2 float64
	arg1 := -1
	for i, m := range s.rowMax {
		if m > max1 {
			max1, max2, arg1 = m, max1, i
		} else if m > max2 {
			max2 = m
		}
	}
	n := len(job.h.Advertisers)

	if !job.vcg {
		var baseline float64
		for _, b := range s.base {
			baseline += b
		}
		if rev, ok := s.score(job, n, baseline, max1, nh, nl); ok && s.best.offer(rev, pattern) {
			copy(s.bestAdvOf, s.curAdvOf)
		}
		return
	}
	for wi, w := range job.winners {
		if w.heavy && len(s.heavySlots) > nh-1 {
			continue
		}
		// Re-summed in ascending order: baseline − base[w] would not be
		// the sub-auction's sum bit for bit.
		var baseline float64
		for i, b := range s.base {
			if i != w.adv {
				baseline += b
			}
		}
		maxAbs := max1
		if w.adv == arg1 {
			maxAbs = max2
		}
		dropH, dropL := nh, nl
		if w.heavy {
			dropH = w.row
		} else {
			dropL = w.row
		}
		if rev, ok := s.score(job, n-1, baseline, maxAbs, dropH, dropL); ok {
			s.cf[wi].offer(rev, pattern)
		}
	}
}

// fill computes, for one pattern, every advertiser's baseline payment
// and the unforced heavy and light weight boards, in the order
// HeavyAuction.solvePattern's buildSub visits them (heavy rows first,
// then light), recording each row's largest |w|. Both boards are
// always filled in full: the reduced matching still needs every
// column materialized, and the forcing constant must see every entry
// to stay bit-identical to the full-graph reference.
func (s *heavySolver) fill(job *heavyJob, pattern uint64) {
	h, memo := job.h, &job.memo
	for i := range h.Advertisers {
		s.base[i] = memo.baseline(h, i, pattern)
	}
	board := func(flat *[]float64, rows *[][]float64, idx, slots []int) {
		bw := subMatrix(flat, rows, len(idx), len(slots))
		for a, i := range idx {
			var m float64
			for sj, j := range slots {
				w := memo.expected(h, i, j, pattern) - s.base[i]
				if abs := math.Abs(w); abs > m {
					m = abs
				}
				bw[a][sj] = w
			}
			s.rowMax[i] = m
		}
	}
	board(&s.heavyFlat, &s.heavyRows, job.heavyIdx, s.heavySlots)
	board(&s.lightFlat, &s.lightRows, job.lightIdx, s.lightSlots)
}

// score solves the filled pattern for an auction of nAdv advertisers
// whose boards are the filled ones with heavy row dropH and light row
// dropL removed (a row index at the board's end removes nothing). The
// forced heavy sub-board is built in scratch, the light one is a row
// view; the sub-row → board-row map is monotone, so the candidate
// reduction and the Jonker–Volgenant solves see the same rows in the
// same order as on a rebuilt sub-auction. It returns the pattern's
// revenue — baseline plus the matched unforced weights, heavy slots
// first, then light — leaving the allocation in s.curAdvOf, and false
// when a heavyweight slot stays empty.
func (s *heavySolver) score(job *heavyJob, nAdv int, baseline, maxAbs float64, dropH, dropL int) (float64, bool) {
	k := job.h.Slots
	hs, ls := len(s.heavySlots), len(s.lightSlots)
	forcing := (maxAbs + 1) * float64(nAdv+k+1)
	heavyRows := len(job.heavyIdx)
	if dropH < heavyRows {
		heavyRows--
	}
	fw := subMatrix(&s.forcedFlat, &s.forcedRows, heavyRows, hs)
	for r, row := range fw {
		for sj, w := range s.heavyRows[skipRow(r, dropH)] {
			row[sj] = w + forcing
		}
	}
	lw := s.lightRows
	if dropL < len(lw) {
		s.lightSub = append(append(s.lightSub[:0], lw[:dropL]...), lw[dropL+1:]...)
		lw = s.lightSub
	}

	depth := k + 1
	s.heavyAdvOf = growI(s.heavyAdvOf, hs)
	s.matchReduced(fw, heavyRows, hs, depth, s.heavyAdvOf)
	for _, r := range s.heavyAdvOf {
		if r < 0 {
			return 0, false // a heavyweight slot stayed empty: inconsistent pattern
		}
	}
	s.lightAdvOf = growI(s.lightAdvOf, ls)
	s.matchReduced(lw, len(lw), ls, depth, s.lightAdvOf)

	advOf := s.curAdvOf
	for j := range advOf {
		advOf[j] = -1
	}
	rev := baseline
	for sj, r := range s.heavyAdvOf {
		a := skipRow(r, dropH)
		advOf[s.heavySlots[sj]] = job.heavyIdx[a]
		rev += s.heavyRows[a][sj]
	}
	for sj, r := range s.lightAdvOf {
		if r < 0 {
			continue
		}
		a := skipRow(r, dropL)
		advOf[s.lightSlots[sj]] = job.lightIdx[a]
		rev += s.lightRows[a][sj]
	}
	return rev, true
}

// skipRow maps a row of a board with row drop removed back to the
// full board.
func skipRow(r, drop int) int {
	if r >= drop {
		return r + 1
	}
	return r
}

// matchReduced runs one maximum-weight sub-matching over the
// materialized rows×cols matrix w, writing the winning row of each
// column into advOf (−1 for unmatched, non-positive matched edges
// dropped — MaxWeightInto's contract). When the board has more than
// depth rows, the Jonker–Volgenant solve is restricted to the union
// of each column's top-depth strictly-positive rows, boundary ties
// included: since depth = k+1 ≥ cols, any optimal matching that uses
// a row outside a column's list can swap in an unmatched listed row
// of no smaller weight, so the restriction preserves the exact
// optimum (DESIGN.md, "Heavy path at scale"). Short boards take the
// full solve — the candidate union would be all rows anyway.
func (s *heavySolver) matchReduced(w [][]float64, rows, cols, depth int, advOf []int) {
	if rows <= depth || cols == 0 {
		s.ws.MaxWeightInto(rows, cols,
			func(a, sj int) float64 { return w[a][sj] }, advOf)
		return
	}
	s.reduceCands(w, rows, cols, depth)
	cands := s.cands
	s.ws.MaxWeightInto(len(cands), cols,
		func(a, sj int) float64 { return w[cands[a]][sj] }, advOf)
	for sj, ri := range advOf {
		if ri >= 0 {
			advOf[sj] = cands[ri]
		}
	}
}

// reduceCands fills s.cands with the ascending union of each column's
// top-depth strictly-positive rows of w, including every row tied
// with the depth-th value (boundary ties widen a list, never cut it,
// so exact-tie optima stay reachable). Ascending order matters: the
// reduced solve must visit surviving rows in the same relative order
// as the full solve for its tie-breaking to coincide.
func (s *heavySolver) reduceCands(w [][]float64, rows, cols, depth int) {
	if s.heap == nil || s.depth != depth {
		s.heap = topk.NewHeap(depth)
		s.depth = depth
	}
	s.mark = growI(s.mark, rows)
	s.stamp++
	stamp := s.stamp
	for sj := 0; sj < cols; sj++ {
		hp := s.heap
		hp.Reset()
		for a := 0; a < rows; a++ {
			if v := w[a][sj]; v > 0 {
				hp.Offer(topk.Item{ID: a, Score: v})
			}
		}
		switch {
		case hp.Len() == 0:
			// No positive rows: the full solve would match nothing
			// here either (non-positive edges are dropped).
		case hp.Len() == depth:
			// Full heap: everything at or above the depth-th value is
			// a candidate — a second scan against the threshold picks
			// up the retained rows and their boundary ties at once.
			kth := hp.Min().Score
			for a := 0; a < rows; a++ {
				if w[a][sj] >= kth {
					s.mark[a] = stamp
				}
			}
		default:
			// Fewer than depth positive rows: all of them qualify.
			for a := 0; a < rows; a++ {
				if w[a][sj] > 0 {
					s.mark[a] = stamp
				}
			}
		}
	}
	s.cands = s.cands[:0]
	for a := 0; a < rows; a++ {
		if s.mark[a] == stamp {
			s.cands = append(s.cands, a)
		}
	}
}
