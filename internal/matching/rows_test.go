package matching

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/racetest"
	"repro/internal/topk"
)

// rowsCase is one separable instance: weight(i, j) = cp[i][j]·bid[i].
type rowsCase struct {
	name  string
	n, k  int
	depth int
	skip  int // row to leave out; outside [0, n) leaves none out
	cp    [][]float64
	bid   []float64
	gated int // this many trailing bids are forced to zero
}

// copyLists detaches lists from workspace storage, normalizing empty
// lists to nil so a reused workspace compares equal to a fresh one.
func copyLists(lists [][]topk.Item) [][]topk.Item {
	out := make([][]topk.Item, len(lists))
	for j, l := range lists {
		out[j] = append([]topk.Item(nil), l...)
	}
	return out
}

// rowsReference computes the kernel's expected lists with the
// closure-driven SelectCandidates on the reduced instance.
func rowsReference(n, k, depth int, cp [][]float64, bid []float64, skip int) [][]topk.Item {
	m := n
	if skip >= 0 && skip < n {
		m = n - 1
	}
	weight := func(r, j int) float64 {
		i := r
		if skip >= 0 && i >= skip {
			i++
		}
		return cp[i][j] * bid[i]
	}
	return copyLists(NewWorkspace().SelectCandidates(m, k, depth, weight))
}

// checkRows compares the row kernel on ws against the reference.
func checkRows(t *testing.T, ws *Workspace, n, k, depth int, cp [][]float64, bid []float64, skip int) {
	t.Helper()
	want := rowsReference(n, k, depth, cp, bid, skip)
	var got [][]topk.Item
	if skip >= 0 && skip < n {
		got = copyLists(ws.SelectCandidatesRowsWithout(n, k, depth, cp, bid, skip))
	} else {
		got = copyLists(ws.SelectCandidatesRows(n, k, depth, cp, bid))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d k=%d depth=%d skip=%d bid=%v cp=%v:\n got %v\nwant %v", n, k, depth, skip, bid, cp, got, want)
	}
}

// genRows builds a case with integer bids in [0, maxBid) and click
// probabilities drawn from a handful of values, so scores tie heavily.
func genRows(rng *rand.Rand, n, k, maxBid int) ([][]float64, []float64) {
	cp := make([][]float64, n)
	bid := make([]float64, n)
	for i := range cp {
		cp[i] = make([]float64, k)
		for j := range cp[i] {
			cp[i][j] = float64(rng.Intn(4)) / 4
		}
		bid[i] = float64(rng.Intn(maxBid))
	}
	return cp, bid
}

// TestSelectCandidatesRowsMatchesClosure pins the fused kernel to
// SelectCandidates with the equivalent closure on the shapes where a
// threshold shortcut could go wrong: heavy ties, zero scores, heaps
// that never fill, and a single slot.
func TestSelectCandidatesRowsMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cases := []rowsCase{
		{name: "ties", n: 60, k: 5, depth: 6, skip: -1},
		{name: "ties-skip-first", n: 60, k: 5, depth: 6, skip: 0},
		{name: "ties-skip-mid", n: 60, k: 5, depth: 6, skip: 31},
		{name: "ties-skip-last", n: 60, k: 5, depth: 6, skip: 59},
		{name: "all-zero", n: 40, k: 4, depth: 5, skip: -1, gated: 40},
		{name: "all-zero-skip", n: 40, k: 4, depth: 5, skip: 3, gated: 40},
		{name: "partly-gated", n: 50, k: 4, depth: 5, skip: -1, gated: 30},
		{name: "partly-gated-skip", n: 50, k: 4, depth: 5, skip: 25, gated: 30},
		{name: "n-below-depth", n: 3, k: 4, depth: 5, skip: -1},
		{name: "n-below-depth-skip", n: 3, k: 4, depth: 5, skip: 1},
		{name: "n-equals-depth", n: 5, k: 4, depth: 5, skip: -1},
		{name: "n-equals-depth-skip", n: 5, k: 4, depth: 5, skip: 4},
		{name: "depth-plus-one-skip", n: 6, k: 4, depth: 5, skip: 2},
		{name: "k1", n: 30, k: 1, depth: 2, skip: -1},
		{name: "k1-skip", n: 30, k: 1, depth: 2, skip: 7},
		{name: "empty", n: 0, k: 3, depth: 4, skip: -1},
		{name: "single-skipped", n: 1, k: 3, depth: 4, skip: 0},
	}
	for ci := range cases {
		c := &cases[ci]
		c.cp, c.bid = genRows(rng, c.n, c.k, 4)
		for i := c.n - c.gated; i < c.n; i++ {
			c.bid[i] = 0
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkRows(t, NewWorkspace(), c.n, c.k, c.depth, c.cp, c.bid, c.skip)
		})
	}
	// One long-lived workspace across every case: shape changes must
	// re-size the slot heaps without leaking state between calls.
	ws := NewWorkspace()
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			checkRows(t, ws, c.n, c.k, c.depth, c.cp, c.bid, c.skip)
		}
	}
}

// TestSelectCandidatesRowsRandom sweeps random shapes on one reused
// workspace, including real-valued scores.
func TestSelectCandidatesRowsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	ws := NewWorkspace()
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(70)
		k := 1 + rng.Intn(7)
		depth := 1 + rng.Intn(k+2)
		cp, bid := genRows(rng, n, k, 1+rng.Intn(6))
		if trial%3 == 0 {
			for i := range cp {
				bid[i] = rng.Float64() * 10
				for j := range cp[i] {
					cp[i][j] = rng.Float64()
				}
			}
		}
		skip := rng.Intn(n+2) - 1
		checkRows(t, ws, n, k, depth, cp, bid, skip)
	}
}

// TestSelectCandidatesRowsSteadyStateAllocs: after one warmup call the
// kernel reuses its slot heaps and list storage.
func TestSelectCandidatesRowsSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	cp, bid := genRows(rand.New(rand.NewSource(93)), 500, 15, 50)
	ws := NewWorkspace()
	ws.SelectCandidatesRows(500, 15, 16, cp, bid)
	allocs := testing.AllocsPerRun(50, func() {
		ws.SelectCandidatesRows(500, 15, 16, cp, bid)
		ws.SelectCandidatesRowsWithout(500, 15, 16, cp, bid, 250)
	})
	if allocs != 0 {
		t.Fatalf("steady-state row kernel allocates %.1f objects/op, want 0", allocs)
	}
}

// FuzzSelectCandidatesRows drives the kernel with byte-derived shapes
// and heavily tied scores against the closure reference. The leading
// bytes pick n, k, depth and skip; the rest cycle through bids (0–7,
// zero bids included) and click probabilities (quarters of 0–1).
func FuzzSelectCandidatesRows(f *testing.F) {
	f.Add([]byte{20, 3, 4, 0, 1, 2, 3, 0, 0, 5, 7, 1})
	f.Add([]byte{5, 1, 5, 2, 0, 0, 0, 0})
	f.Add([]byte{3, 4, 6, 255, 9, 8, 7})
	f.Add([]byte{40, 15, 16, 17, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := int(data[0]) % 48
		k := 1 + int(data[1])%16
		depth := 1 + int(data[2])%18
		skip := int(data[3]) - 1 // 255 skips nothing
		vals := data[4:]
		next := 0
		val := func() byte {
			b := vals[next%len(vals)]
			next++
			return b ^ byte(next/len(vals))
		}
		cp := make([][]float64, n)
		bid := make([]float64, n)
		for i := range cp {
			bid[i] = float64(val() % 8)
			cp[i] = make([]float64, k)
			for j := range cp[i] {
				cp[i][j] = float64(val()%5) / 4
			}
		}
		checkRows(t, NewWorkspace(), n, k, depth, cp, bid, skip)
	})
}
