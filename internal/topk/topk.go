// Package topk provides bounded top-k selection and the parallel
// tree-aggregation scheme of Section III-E ("Parallelization"): each
// leaf holds one advertiser's expected revenue for a slot, internal
// nodes merge their children's top-k lists, and the root ends up with
// the k highest bidders for that slot.
package topk

import "sort"

// Item is a scored element; ID is the caller's index for the element
// (an advertiser index in the paper's setting).
type Item struct {
	ID    int
	Score float64
}

// Heap is a bounded min-heap holding the k largest items offered so
// far. The zero value is not usable; construct with NewHeap.
type Heap struct {
	k     int
	items []Item // min-heap on Score; ties broken by larger ID at root
}

// NewHeap returns a bounded heap retaining the k highest-scored items.
// k must be positive.
func NewHeap(k int) *Heap {
	if k <= 0 {
		panic("topk: NewHeap requires k > 0")
	}
	return &Heap{k: k, items: make([]Item, 0, k)}
}

// NewHeaps returns count bounded heaps, each retaining the k
// highest-scored items, carved from one backing array so heaps filled
// side by side share cache lines. k must be positive.
func NewHeaps(count, k int) []Heap {
	if k <= 0 {
		panic("topk: NewHeaps requires k > 0")
	}
	buf := make([]Item, count*k)
	hs := make([]Heap, count)
	for j := range hs {
		hs[j] = Heap{k: k, items: buf[j*k : j*k : (j+1)*k]}
	}
	return hs
}

// less orders the heap so the *smallest* (and, among equals, the
// highest-ID, to make eviction deterministic) item sits at the root.
func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Offer considers an item for inclusion, evicting the current minimum
// if the heap is full and the new item scores higher.
func (h *Heap) Offer(it Item) {
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return
	}
	if !less(h.items[0], it) {
		return
	}
	h.items[0] = it
	h.down(0)
}

// Len returns the number of retained items.
func (h *Heap) Len() int { return len(h.items) }

// Reset empties the heap for reuse, keeping its capacity and bound k.
func (h *Heap) Reset() { h.items = h.items[:0] }

// DrainDesc empties the heap, appending its items to dst in the same
// order Items returns them — descending score, ascending ID on ties —
// without allocating when dst has capacity. The heap is left empty.
//
// Popping the min-heap yields items sorted ascending by score with
// ties broken by descending ID (the less ordering), so filling the
// appended region back-to-front reproduces Items' order exactly.
func (h *Heap) DrainDesc(dst []Item) []Item {
	n := len(h.items)
	start := len(dst)
	dst = append(dst, h.items...) // grow (or reuse) the destination
	for i := n - 1; i >= 0; i-- {
		dst[start+i] = h.popMin()
	}
	return dst
}

// popMin removes and returns the least item under less.
func (h *Heap) popMin() Item {
	min := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return min
}

// Min returns the lowest retained item. It panics on an empty heap.
func (h *Heap) Min() Item { return h.items[0] }

// Items returns the retained items sorted by descending score (ties
// by ascending ID). The heap remains valid.
func (h *Heap) Items() []Item {
	out := make([]Item, len(h.items))
	copy(out, h.items)
	sortDesc(out)
	return out
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// sortDesc sorts items by descending score, ascending ID on ties.
func sortDesc(items []Item) {
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		return items[a].ID < items[b].ID
	})
}

// Select returns the k highest-scoring indices i in [0, n) under the
// score function, sorted by descending score. It runs in O(n log k)
// using a bounded heap, the cost the paper assigns to finding the top
// k bidders for one slot.
func Select(n, k int, score func(i int) float64) []Item {
	h := NewHeap(k)
	for i := 0; i < n; i++ {
		h.Offer(Item{ID: i, Score: score(i)})
	}
	return h.Items()
}

// SelectInto is Select reusing heap h (which fixes k) and dst's
// capacity: the serving engine's allocation-free variant. It resets h,
// offers all n candidates, and returns the top-k appended to dst[:0]'s
// region — the caller passes dst = previousList[:0] to recycle the
// backing array. Ordering is identical to Select.
func SelectInto(h *Heap, dst []Item, n int, score func(i int) float64) []Item {
	h.Reset()
	for i := 0; i < n; i++ {
		h.Offer(Item{ID: i, Score: score(i)})
	}
	return h.DrainDesc(dst)
}

// Merge combines two descending top-k lists into one descending list
// of at most k items, the internal-node operation of the aggregation
// tree. Both inputs must already be sorted descending.
func Merge(k int, a, b []Item) []Item {
	out := make([]Item, 0, k)
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		switch {
		case i >= len(a):
			out = append(out, b[j])
			j++
		case j >= len(b):
			out = append(out, a[i])
			i++
		case a[i].Score > b[j].Score || (a[i].Score == b[j].Score && a[i].ID <= b[j].ID):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}
