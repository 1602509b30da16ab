package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// legacyBuilder is the regression-tree builder as it was before the
// packed split sort: a fresh index slice per node, sorted per feature by
// sort.Slice through a double lookup. It is kept, test-only, as the
// reference the production builder must reproduce node for node.
type legacyBuilder struct {
	data    *Dataset
	targets []float64
	opt     TreeOptions
	tree    *Tree
}

func legacyFitTree(d *Dataset, targets []float64, opt TreeOptions) *Tree {
	b := &legacyBuilder{data: d, targets: targets, opt: opt.withDefaults(), tree: &Tree{}}
	b.build(identity(d.Len()), 0)
	return b.tree
}

func (b *legacyBuilder) build(indices []int, depth int) int32 {
	mean := 0.0
	for _, i := range indices {
		mean += b.targets[i]
	}
	mean /= float64(len(indices))

	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, value: mean})

	if depth >= b.opt.MaxDepth || len(indices) < 2*b.opt.MinLeaf {
		return id
	}
	feature, threshold, ok := b.bestSplit(indices)
	if !ok {
		return id
	}
	lo, hi := 0, len(indices)
	for lo < hi {
		if b.data.X[indices[lo]][feature] <= threshold {
			lo++
		} else {
			hi--
			indices[lo], indices[hi] = indices[hi], indices[lo]
		}
	}
	left, right := indices[:lo], indices[lo:]
	if len(left) == 0 || len(right) == 0 {
		return id
	}
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.tree.nodes[id].feature = feature
	b.tree.nodes[id].threshold = threshold
	b.tree.nodes[id].left = l
	b.tree.nodes[id].right = r
	return id
}

func (b *legacyBuilder) bestSplit(indices []int) (feature int, threshold float64, ok bool) {
	n := len(indices)
	totalSum, totalSq := 0.0, 0.0
	for _, i := range indices {
		y := b.targets[i]
		totalSum += y
		totalSq += y * y
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	bestGain := 1e-12
	sorted := make([]int, n)
	for f := 0; f < b.data.Dim(); f++ {
		copy(sorted, indices)
		sort.Slice(sorted, func(a, c int) bool {
			return b.data.X[sorted[a]][f] < b.data.X[sorted[c]][f]
		})
		leftSum, leftSq := 0.0, 0.0
		for k := 0; k < n-1; k++ {
			y := b.targets[sorted[k]]
			leftSum += y
			leftSq += y * y
			vk, vk1 := b.data.X[sorted[k]][f], b.data.X[sorted[k+1]][f]
			if vk == vk1 {
				continue
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

// legacyFitBoostedTrees is the boosting loop as it was: a Dataset.Subset
// per round and every row re-predicted through the new tree.
func legacyFitBoostedTrees(d *Dataset, opt BoostOptions) *BoostedTrees {
	opt = opt.withDefaults()
	n := d.Len()
	base := 0.0
	for _, y := range d.Y {
		base += y
	}
	base /= float64(n)
	model := &BoostedTrees{base: base, learningRate: opt.LearningRate}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	residual := make([]float64, n)
	rng := rand.New(rand.NewSource(opt.Seed))
	for round := 0; round < opt.Rounds; round++ {
		for i := range residual {
			residual[i] = d.Y[i] - pred[i]
		}
		fitData, fitResidual := d, residual
		if opt.Subsample < 1 {
			m := max(int(float64(n)*opt.Subsample), 1)
			idx := rng.Perm(n)[:m]
			fitData = d.Subset(idx)
			fitResidual = make([]float64, m)
			for k, i := range idx {
				fitResidual[k] = residual[i]
			}
		}
		tree := legacyFitTree(fitData, fitResidual, opt.Tree)
		model.trees = append(model.trees, tree)
		mse := 0.0
		for i, row := range d.X {
			pred[i] += opt.LearningRate * tree.Predict(row)
			e := d.Y[i] - pred[i]
			mse += e * e
		}
		model.TrainLoss = append(model.TrainLoss, mse/float64(n))
	}
	return model
}

// sameTree reports the first node where two trees differ in any bit.
func sameTree(a, b *Tree) error {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Errorf("%d nodes vs %d", len(a.nodes), len(b.nodes))
	}
	for i, x := range a.nodes {
		y := b.nodes[i]
		if x.feature != y.feature || x.left != y.left || x.right != y.right ||
			math.Float64bits(x.threshold) != math.Float64bits(y.threshold) ||
			math.Float64bits(x.value) != math.Float64bits(y.value) {
			return fmt.Errorf("node %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// tieData mimics the training grids: thread counts from a short list,
// complementary one-hot affinity columns, a few sizes and the fraction
// grid, with targets rounded to quarter units so they tie too. The
// one-hot columns give equal-gain splits that only summation order
// separates.
func tieData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	threads := []float64{1, 2, 4, 8, 16, 24, 48}
	sizes := []float64{1, 10, 100, 1000}
	d := &Dataset{}
	for i := 0; i < n; i++ {
		th := threads[rng.Intn(len(threads))]
		aff := rng.Intn(3)
		size := sizes[rng.Intn(len(sizes))]
		frac := 2.5 * float64(1+rng.Intn(40))
		onehot := [3]float64{}
		onehot[aff] = 1
		y := size*frac/100/th + float64(aff)*0.5 + rng.Float64()*0.3
		y = math.Round(y*4) / 4
		d.Append([]float64{th, onehot[0], onehot[1], onehot[2], size, frac}, y)
	}
	return d
}

// TestTreeMatchesLegacySplitSearch: single trees from the packed split
// search equal, node for node and bit for bit, the trees the sort.Slice
// search built, on tie-heavy data.
func TestTreeMatchesLegacySplitSearch(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		d := tieData(700, seed)
		for _, opt := range []TreeOptions{{MaxDepth: 3, MinLeaf: 1}, {MaxDepth: 7, MinLeaf: 5}, {MaxDepth: 12, MinLeaf: 2}} {
			got, err := FitTree(d, d.Y, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, legacyFitTree(d, d.Y, opt)); err != nil {
				t.Fatalf("seed %d %+v: %v", seed, opt, err)
			}
		}
	}
}

// TestBoostedMatchesLegacy: whole ensembles, with and without row
// subsampling, equal the ones the old boosting loop trained, tree for
// tree, and so do the per-round training losses.
func TestBoostedMatchesLegacy(t *testing.T) {
	d := tieData(900, 9)
	for _, sub := range []float64{1, 0.9} {
		opt := BoostOptions{Rounds: 40, LearningRate: 0.08, Tree: TreeOptions{MaxDepth: 7, MinLeaf: 5}, Subsample: sub, Seed: 1}
		got, err := FitBoostedTrees(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := legacyFitBoostedTrees(d, opt)
		if got.NumTrees() != want.NumTrees() {
			t.Fatalf("subsample %g: %d trees vs %d", sub, got.NumTrees(), want.NumTrees())
		}
		for i := range got.trees {
			if err := sameTree(got.trees[i], want.trees[i]); err != nil {
				t.Fatalf("subsample %g, tree %d: %v", sub, i, err)
			}
			if math.Float64bits(got.TrainLoss[i]) != math.Float64bits(want.TrainLoss[i]) {
				t.Fatalf("subsample %g, round %d: loss %x vs %x", sub, i, got.TrainLoss[i], want.TrainLoss[i])
			}
		}
	}
}

// TestSplitSearchFallsBack: on tie-heavy data some split searches are
// left uncertified and run the sorted scan, and the trees still equal
// the legacy ones.
func TestSplitSearchFallsBack(t *testing.T) {
	d := tieData(700, 1)
	opt := TreeOptions{MaxDepth: 7, MinLeaf: 5}
	b := newTreeBuilder(d.X, d.Y, opt)
	got := b.fit(identity(d.Len()), nil)
	if b.fallbacks == 0 {
		t.Fatal("no split search fell back to the sorted scan")
	}
	if splits := got.NumNodes() / 2; b.fallbacks >= splits {
		t.Fatalf("%d of %d split searches fell back: the certificate settled none", b.fallbacks, splits)
	}
	if err := sameTree(got, legacyFitTree(d, d.Y, opt)); err != nil {
		t.Fatal(err)
	}
}

// FuzzSplitSearch: on any small tie-heavy dataset FitTree builds the
// tree the legacy sort.Slice search builds, bit for bit. data[0] and
// the low bit of data[1] give the row count (up to 512), data[1..3] the
// target scale, MinLeaf and MaxDepth; each row reads two bytes, cycling
// through the rest. The columns are a thread-count grid, a one-hot
// affinity with a duplicate and a complement of its first column, a
// ±0 column, a constant and, from 257 rows on, a column of more than
// maxRanks distinct values.
func FuzzSplitSearch(f *testing.F) {
	f.Add([]byte{40, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 2, 4, 2, 0, 0, 255, 255, 17, 34})
	f.Add([]byte{255, 1, 1, 3, 7, 9, 11, 200, 13, 77, 5, 6})
	f.Add([]byte{20, 4, 2, 5, 8, 8, 8, 8, 9, 9})
	f.Add([]byte{200, 5, 3, 1, 250, 3, 128, 64, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 1 + int(data[0]) + 256*int(data[1]&1)
		scale := []float64{1, 1e-160, 1e150, 1e-3, 1e155}[int(data[1]>>1)%5]
		opt := TreeOptions{MinLeaf: 1 + int(data[2])%8, MaxDepth: 1 + int(data[3])%6}
		body := data[4:]
		threads := []float64{1, 2, 4, 8, 16}
		d := &Dataset{}
		for i := 0; i < n; i++ {
			a, c := body[(2*i)%len(body)], body[(2*i+1)%len(body)]
			onehot := [3]float64{}
			onehot[a%3] = 1
			zero := 0.0
			switch c % 4 {
			case 0:
				zero = math.Copysign(0, -1)
			case 3:
				zero = float64(c%8) - 4
			}
			x := []float64{threads[a/3%5], onehot[0], onehot[1], onehot[2], onehot[0], 1 - onehot[0], zero, 3, float64(i) * 0.37}
			d.Append(x, scale*float64(c%16)/4)
		}
		got, err := FitTree(d, d.Y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTree(got, legacyFitTree(d, d.Y, opt)); err != nil {
			t.Fatalf("n=%d %+v scale %g: %v", n, opt, scale, err)
		}
	})
}

// TestSplitSearchAtGainFloor: with the targets scaled so the root's
// best gain sits on the 1e-12 floor, and stepped across it a few ulps
// at a time, the two summation orders disagree on which side of the
// floor a gain lies; the trees must still equal the legacy ones.
func TestSplitSearchAtGainFloor(t *testing.T) {
	opt := TreeOptions{MaxDepth: 2, MinLeaf: 1}
	for seed := int64(1); seed <= 100; seed++ {
		base := tieData(40, seed)
		s := nodeSums{n: base.Len()}
		for _, y := range base.Y {
			s.sum += y
			s.sq += y * y
		}
		s.parentSSE = s.sq - s.sum*s.sum/float64(s.n)
		b, top := newTreeBuilder(base.X, base.Y, opt), split{feature: -1}
		for f := range base.X[0] {
			b.scanSorted(f, identity(base.Len()), s, &top)
		}
		floor := math.Sqrt(1e-12 / top.gain)
		d := &Dataset{X: base.X, Y: make([]float64, base.Len())}
		for k := -40; k <= 40; k++ {
			scale := floor * (1 + float64(k)*0x1p-50)
			for i, y := range base.Y {
				d.Y[i] = y * scale
			}
			got, err := FitTree(d, d.Y, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, legacyFitTree(d, d.Y, opt)); err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, k, err)
			}
		}
	}
}
