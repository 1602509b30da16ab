package ml

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// TreeOptions configures CART regression-tree induction.
type TreeOptions struct {
	// MaxDepth bounds the tree depth (root = depth 0). Zero selects 5.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf. Zero selects 1.
	MinLeaf int
}

func (o TreeOptions) withDefaults() TreeOptions {
	if o.MaxDepth == 0 {
		o.MaxDepth = 5
	}
	if o.MinLeaf == 0 {
		o.MinLeaf = 1
	}
	return o
}

// treeNode is one node of a regression tree, stored in a flat arena.
type treeNode struct {
	// feature is the split feature, or -1 for leaves.
	feature int
	// threshold routes x[feature] <= threshold to left, else right.
	threshold float64
	// left, right index the arena.
	left, right int32
	// value is the leaf prediction (mean of targets).
	value float64
}

// Tree is a fitted CART regression tree.
type Tree struct {
	nodes []treeNode
}

// NumNodes returns the node count (diagnostics).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Depth returns the maximum depth (root = 0).
func (t *Tree) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		n := t.nodes[i]
		if n.feature < 0 {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0)
}

// Predict evaluates the tree on one sample.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		n := t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// FitTree builds a regression tree minimizing squared error, using exact
// greedy splits over all features. targets may differ from d.Y (boosting
// fits trees to residuals); len(targets) must equal d.Len().
func FitTree(d *Dataset, targets []float64, opt TreeOptions) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(targets) != d.Len() {
		return nil, fmt.Errorf("ml: %d targets for %d samples", len(targets), d.Len())
	}
	opt = opt.withDefaults()
	if opt.MaxDepth < 0 || opt.MinLeaf < 1 {
		return nil, fmt.Errorf("ml: invalid tree options %+v", opt)
	}
	return newTreeBuilder(d.X, targets, opt).fit(identity(d.Len()), nil), nil
}

// identity returns the indices 0..n-1.
func identity(n int) []int {
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	return indices
}

// maxRanks is the most distinct values a column may hold to be split
// from rank buckets: ranks are stored as uint8.
const maxRanks = 256

// treeBuilder grows trees over rows of x with the given targets. One
// builder fits any number of trees over subsets of the same rows, so the
// rank tables and the split-search buffers are built once.
type treeBuilder struct {
	x       [][]float64
	targets []float64
	opt     TreeOptions
	tree    *Tree
	// pairs is the sorted scan's (feature value, target) buffer.
	pairs []splitPair
	// leaf, when non-nil, receives for every fitted row the value of the
	// leaf the row lands in, which is what tree.Predict would return.
	leaf []float64

	// Rank tables. Column f is ranked when it holds at most maxRanks
	// distinct values: vals[off[f]:off[f+1]] are those values ascending
	// and ranks[f*len(x)+i] is row i's index among them. An unranked
	// column has off[f] == off[f+1]. ranks is nil when no column is
	// ranked or some value in x is not finite; every search then takes
	// the sorted scan.
	ranks   []uint8
	vals    []float64
	off     []int
	buckets []bucket
	// cands is bestSplit's candidate buffer.
	cands []split
	// fallbacks counts the searches the certificate left to the sorted
	// scan.
	fallbacks int
}

// bucket sums the targets of one node's rows that share a rank.
type bucket struct {
	n       int
	sum, sq float64
}

// split is a candidate split and its computed gain.
type split struct {
	gain      float64
	feature   int
	threshold float64
}

// nodeSums are a node's target totals, shared by every candidate split.
type nodeSums struct {
	n                  int
	sum, sq, parentSSE float64
}

// gain is the squared-error reduction of putting the first nl rows, with
// target sum leftSum and square sum leftSq, on the left.
func (s nodeSums) gain(nl int, leftSum, leftSq float64) float64 {
	nr := s.n - nl
	rightSum := s.sum - leftSum
	rightSq := s.sq - leftSq
	sse := (leftSq - leftSum*leftSum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
	return s.parentSSE - sse
}

func newTreeBuilder(x [][]float64, targets []float64, opt TreeOptions) *treeBuilder {
	b := &treeBuilder{x: x, targets: targets, opt: opt, pairs: make([]splitPair, len(x))}
	b.rankColumns()
	return b
}

// rankColumns builds the rank tables, or leaves ranks nil.
func (b *treeBuilder) rankColumns() {
	dim := len(b.x[0])
	for _, row := range b.x {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
	}
	var (
		vals []float64
		col  [maxRanks]float64
	)
	off := make([]int, dim+1)
	for f := 0; f < dim; f++ {
		k := distinct(b.x, f, &col)
		vals = append(vals, col[:k]...)
		off[f+1] = len(vals)
	}
	if len(vals) == 0 {
		return
	}
	rows := len(b.x)
	ranks := make([]uint8, dim*rows)
	for f := 0; f < dim; f++ {
		col := vals[off[f]:off[f+1]]
		if len(col) == 0 {
			continue
		}
		for i, row := range b.x {
			ranks[f*rows+i] = uint8(sort.SearchFloat64s(col, row[f]))
		}
	}
	b.ranks, b.vals, b.off = ranks, vals, off
	b.buckets = make([]bucket, maxRanks)
	b.cands = make([]split, 0, len(vals)+dim)
}

// distinct stores the distinct values of column f of x in out, in
// ascending order, and returns their number, or 0 when there are more
// than maxRanks. -0 and +0 are one value, as they are to the sorted
// scan's ==; either stands for both in a threshold, as (v+0)/2 ==
// (v-0)/2 for v != 0.
func distinct(x [][]float64, f int, out *[maxRanks]float64) int {
	const slots = 2 * maxRanks
	var (
		set  [slots]float64
		used [slots]bool
	)
	k := 0
	for _, row := range x {
		v := row[f]
		if v == 0 {
			v = 0 // fold -0 into +0
		}
		h := math.Float64bits(v) * 0x9e3779b97f4a7c15 >> 55 // 9 bits: slots == 512
		for used[h] && set[h] != v {
			h = (h + 1) % slots
		}
		if used[h] {
			continue
		}
		if k == maxRanks {
			return 0
		}
		set[h], used[h] = v, true
		out[k] = v
		k++
	}
	sort.Float64s(out[:k])
	return k
}

// fit grows a tree over the rows named by indices, which it reorders in
// place. When leaf is non-nil, leaf[i] is set for every i in indices.
func (b *treeBuilder) fit(indices []int, leaf []float64) *Tree {
	b.tree, b.leaf = &Tree{}, leaf
	b.build(indices, 0)
	return b.tree
}

// build grows the subtree over the given sample indices and returns its
// arena index. indices is consumed (re-partitioned in place).
func (b *treeBuilder) build(indices []int, depth int) int32 {
	mean := 0.0
	for _, i := range indices {
		mean += b.targets[i]
	}
	mean /= float64(len(indices))

	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, value: mean})

	if depth >= b.opt.MaxDepth || len(indices) < 2*b.opt.MinLeaf {
		return b.setLeaf(id, indices, mean)
	}
	feature, threshold, ok := b.bestSplit(indices)
	if !ok {
		return b.setLeaf(id, indices, mean)
	}
	// Partition in place.
	lo, hi := 0, len(indices)
	for lo < hi {
		if b.x[indices[lo]][feature] <= threshold {
			lo++
		} else {
			hi--
			indices[lo], indices[hi] = indices[hi], indices[lo]
		}
	}
	left, right := indices[:lo], indices[lo:]
	if len(left) == 0 || len(right) == 0 {
		return b.setLeaf(id, indices, mean) // numerical degeneracy; keep the leaf
	}
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.tree.nodes[id].feature = feature
	b.tree.nodes[id].threshold = threshold
	b.tree.nodes[id].left = l
	b.tree.nodes[id].right = r
	return id
}

// setLeaf records the leaf value of the rows that end in leaf id.
func (b *treeBuilder) setLeaf(id int32, indices []int, value float64) int32 {
	if b.leaf != nil {
		for _, i := range indices {
			b.leaf[i] = value
		}
	}
	return id
}

// bestSplit returns the split the sorted scan (scanSorted over every
// feature in order) picks: the first candidate of largest computed gain,
// if that gain exceeds 1e-12. ok=false means no valid split improves on
// the parent.
//
// The sorted scan sums tied values' targets in the order sortPairs
// leaves them, and that rounding decides between splits of equal exact
// gain (the complementary one-hot columns give such ties). Ranked
// columns are instead scanned from rank buckets, which sum in another
// order, so their gains are only certified close to the sorted scan's:
//
// Let n be the node's rows, Q = Σy², u = 2⁻⁵³ and γ = nu/(1-nu). A
// gain is P - (Q_L - S_L²/n_L) - (Q_R - S_R²/n_R) with P = Q - S²/n.
// Every element of any summation order meets at most n roundings, and
// the right sums subtract the left from the totals, so each computed S_m
// is within 3γ·√(nQ) and each Q_m within 3γ·Q. As S_m² ≤ m·Q, each
// S_m²/m is then off by at most (6√n·γ + 9nγ² + 4u)·Q, and each
// difference by that plus (3γ + 2u)·Q. The three differences and the
// two final roundings put a computed gain within
// ((18√n + 9)·γ + 27nγ² + 22u)·Q of the exact gain; products and
// quotients that underflow add at most 3n+6 times 2⁻¹⁰⁷⁵. So both the
// bucket gain b and the sorted-scan gain s of every candidate lie within
//
//	δ = 32·(n+2)·(√n+2)·(u·Q + 2⁻¹⁰⁷⁴)
//
// of the exact gain, and |s - b| ≤ 2δ, for n < 2²⁶ with or without
// fused multiply-adds. The slack of δ over the bound, at least 14n√n·uQ,
// covers rounding in δ and in the comparisons below. With M the
// largest candidate gain:
//
//   - M + 2δ ≤ 1e-12: every s ≤ 1e-12, so there is no split.
//   - M - 2δ > 1e-12 and every other candidate is below M - 4δ: the
//     argmax has s ≥ M - 2δ, strictly above every other s, so the
//     sorted scan picks it, with the same threshold (vals[r]+vals[r'])/2.
//   - Otherwise the sorted scan reruns on the features owning a
//     candidate within 4δ of M; the others cannot win.
//
// An unranked column's candidate is its own sorted-scan winner.
func (b *treeBuilder) bestSplit(indices []int) (feature int, threshold float64, ok bool) {
	n := len(indices)
	totalSum, totalSq := 0.0, 0.0
	for _, i := range indices {
		y := b.targets[i]
		totalSum += y
		totalSq += y * y
	}
	s := nodeSums{n: n, sum: totalSum, sq: totalSq, parentSSE: totalSq - totalSum*totalSum/float64(n)}

	best := split{gain: 1e-12, feature: -1} // require strictly positive improvement
	if b.ranks == nil || n >= 1<<26 || !(float64(4*n)*totalSq <= math.MaxFloat64) {
		for f := range b.x[0] {
			b.scanSorted(f, indices, s, &best)
		}
		return best.result()
	}
	cands := b.cands[:0]
	for f := range b.x[0] {
		if b.off[f] < b.off[f+1] {
			cands = b.scanBuckets(f, indices, s, cands)
			continue
		}
		c := split{gain: 1e-12, feature: -1}
		if b.scanSorted(f, indices, s, &c); c.feature >= 0 {
			cands = append(cands, c)
		}
	}
	b.cands = cands
	if len(cands) == 0 {
		return 0, 0, false
	}
	top := 0
	for k, c := range cands {
		if c.gain > cands[top].gain {
			top = k
		}
	}
	m := cands[top].gain
	delta := 32 * float64(n+2) * (math.Sqrt(float64(n)) + 2) * (0x1p-53*totalSq + 0x1p-1074)
	if m+2*delta <= 1e-12 {
		return 0, 0, false
	}
	window := m - 4*delta
	if m-2*delta > 1e-12 {
		rivals := 0
		for _, c := range cands {
			if c.gain >= window {
				rivals++
			}
		}
		if rivals == 1 {
			return cands[top].result()
		}
	}
	b.fallbacks++
	last := -1
	for _, c := range cands { // in feature order
		if c.gain < window || c.feature == last {
			continue
		}
		last = c.feature
		if b.off[last] < b.off[last+1] {
			b.scanSorted(last, indices, s, &best)
		} else if c.gain > best.gain {
			best = c
		}
	}
	return best.result()
}

func (c split) result() (feature int, threshold float64, ok bool) {
	if c.feature < 0 || math.IsNaN(c.threshold) {
		return 0, 0, false
	}
	return c.feature, c.threshold, true
}

// splitPair is one sample seen by the split search: its value of the
// feature being scanned and its regression target.
type splitPair struct {
	v, y float64
}

// sortPairs sorts data by v and leaves exactly the permutation
// sort.Slice would: both run Go's pdqsort template, and every call
// the template makes is cmp(x, y) < 0, which holds iff x.v < y.v here
// (cmp.Compare would order NaN differently). The permutation fixes the
// order in which tied targets are summed, and rounding in those sums
// decides between splits of equal gain.
func sortPairs(data []splitPair) {
	slices.SortFunc(data, func(a, b splitPair) int {
		if a.v < b.v {
			return -1
		}
		return 0
	})
}

// scanSorted sorts the node's (value, target) pairs of feature f with
// sortPairs and raises best to any boundary between distinct values,
// honoring MinLeaf, whose gain exceeds it.
func (b *treeBuilder) scanSorted(f int, indices []int, s nodeSums, best *split) {
	n := len(indices)
	pairs := b.pairs[:n]
	for k, i := range indices {
		pairs[k] = splitPair{v: b.x[i][f], y: b.targets[i]}
	}
	sortPairs(pairs)
	top := *best
	leftSum, leftSq := 0.0, 0.0
	for k := 0; k < n-1; k++ {
		y := pairs[k].y
		leftSum += y
		leftSq += y * y
		vk, vk1 := pairs[k].v, pairs[k+1].v
		if vk == vk1 {
			continue // cannot split between equal values
		}
		nl := k + 1
		if nl < b.opt.MinLeaf || n-nl < b.opt.MinLeaf {
			continue
		}
		if gain := s.gain(nl, leftSum, leftSq); gain > top.gain {
			top = split{gain: gain, feature: f, threshold: (vk + vk1) / 2}
		}
	}
	*best = top
}

// scanBuckets appends to cands every boundary between the node's
// distinct values of ranked feature f that honors MinLeaf, with its gain
// computed from per-rank target sums.
func (b *treeBuilder) scanBuckets(f int, indices []int, s nodeSums, cands []split) []split {
	rows := len(b.x)
	ranks := b.ranks[f*rows : (f+1)*rows]
	vals := b.vals[b.off[f]:b.off[f+1]]
	buckets := b.buckets[:len(vals)]
	for _, i := range indices {
		y := b.targets[i]
		k := &buckets[ranks[i]]
		k.n++
		k.sum += y
		k.sq += y * y
	}
	nl, leftSum, leftSq, prev := 0, 0.0, 0.0, -1
	for r := range buckets {
		k := buckets[r]
		if k.n == 0 {
			continue
		}
		buckets[r] = bucket{}
		if prev >= 0 && nl >= b.opt.MinLeaf && s.n-nl >= b.opt.MinLeaf {
			cands = append(cands, split{gain: s.gain(nl, leftSum, leftSq), feature: f, threshold: (vals[prev] + vals[r]) / 2})
		}
		nl += k.n
		leftSum += k.sum
		leftSq += k.sq
		prev = r
	}
	return cands
}
