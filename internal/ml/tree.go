package ml

import (
	"fmt"
	"math"
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

// treeBuilder grows trees over rows of x with the given targets. One
// builder fits any number of trees over subsets of the same rows, so the
// split-search buffer is allocated once.
type treeBuilder struct {
	x       [][]float64
	targets []float64
	opt     TreeOptions
	tree    *Tree
	// pairs is the split search's (feature value, target) buffer.
	pairs []splitPair
	// leaf, when non-nil, receives for every fitted row the value of the
	// leaf the row lands in, which is what tree.Predict would return.
	leaf []float64
}

func newTreeBuilder(x [][]float64, targets []float64, opt TreeOptions) *treeBuilder {
	return &treeBuilder{x: x, targets: targets, opt: opt, pairs: make([]splitPair, len(x))}
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

// bestSplit scans every feature for the squared-error-minimizing split
// honoring MinLeaf. It returns ok=false when no valid split improves on
// the parent.
//
// Each feature's (value, target) pairs are sorted with sortPairs, which
// leaves the permutation sort.Slice would: ties between equal values
// are summed into leftSum/leftSq in that order, and rounding in those
// sums decides between splits of equal gain (the one-hot affinity
// columns produce such ties), so another sort or split finder would
// train different trees.
func (b *treeBuilder) bestSplit(indices []int) (feature int, threshold float64, ok bool) {
	n := len(indices)
	totalSum, totalSq := 0.0, 0.0
	for _, i := range indices {
		y := b.targets[i]
		totalSum += y
		totalSq += y * y
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	bestGain := 1e-12 // require strictly positive improvement
	pairs := b.pairs[:n]
	for f := range b.x[0] {
		for k, i := range indices {
			pairs[k] = splitPair{v: b.x[i][f], y: b.targets[i]}
		}
		sortPairs(pairs)
		leftSum, leftSq := 0.0, 0.0
		for k := 0; k < n-1; k++ {
			y := pairs[k].y
			leftSum += y
			leftSq += y * y
			vk, vk1 := pairs[k].v, pairs[k+1].v
			if vk == vk1 {
				continue // cannot split between equal values
			}
			nl, nr := k+1, n-k-1
			if nl < b.opt.MinLeaf || nr < b.opt.MinLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
			gain := parentSSE - sse
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (vk + vk1) / 2
				ok = true
			}
		}
	}
	if math.IsNaN(threshold) {
		return 0, 0, false
	}
	return feature, threshold, ok
}
