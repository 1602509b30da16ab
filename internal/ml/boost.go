package ml

import (
	"fmt"
	"math/rand"
)

// Regressor is a fitted model predicting a scalar from a feature vector.
type Regressor interface {
	Predict(x []float64) float64
}

// BoostOptions configures Boosted Decision Tree Regression (least-squares
// gradient boosting of CART trees, the algorithm of Section III-B).
type BoostOptions struct {
	// Rounds is the number of boosting stages (trees). Zero selects 300.
	Rounds int
	// LearningRate is the shrinkage nu applied to every tree. Zero
	// selects 0.1.
	LearningRate float64
	// Tree configures the base learners. Zero values select depth 5 /
	// min-leaf 5 (boosting prefers slightly stronger leaves than a lone
	// CART).
	Tree TreeOptions
	// Subsample is the per-round row-sampling fraction (stochastic
	// gradient boosting). Zero selects 0.8; 1 disables subsampling.
	Subsample float64
	// Seed drives subsampling.
	Seed int64
}

func (o BoostOptions) withDefaults() BoostOptions {
	if o.Rounds == 0 {
		o.Rounds = 300
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
	if o.Tree.MaxDepth == 0 {
		o.Tree.MaxDepth = 5
	}
	if o.Tree.MinLeaf == 0 {
		o.Tree.MinLeaf = 5
	}
	if o.Subsample == 0 {
		o.Subsample = 0.8
	}
	return o
}

// BoostedTrees is a fitted boosted regression-tree ensemble.
type BoostedTrees struct {
	base         float64
	learningRate float64
	trees        []*Tree
	// TrainLoss records the mean squared error on the training set after
	// every round (diagnostics and convergence tests).
	TrainLoss []float64
}

// NumTrees returns the number of boosting stages fitted.
func (b *BoostedTrees) NumTrees() int { return len(b.trees) }

// NumNodes returns the node count summed over all trees (diagnostics).
func (b *BoostedTrees) NumNodes() int {
	n := 0
	for _, t := range b.trees {
		n += t.NumNodes()
	}
	return n
}

// Predict implements Regressor.
func (b *BoostedTrees) Predict(x []float64) float64 {
	out := b.base
	for _, t := range b.trees {
		out += b.learningRate * t.Predict(x)
	}
	return out
}

// FitBoostedTrees trains Boosted Decision Tree Regression on d with
// least-squares loss:
//
//	F_0(x)   = mean(y)
//	r_i      = y_i - F_{m-1}(x_i)            (negative gradient)
//	F_m(x)   = F_{m-1}(x) + nu * tree_m(x)   (tree_m fitted to r)
func FitBoostedTrees(d *Dataset, opt BoostOptions) (*BoostedTrees, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if opt.Rounds < 1 {
		return nil, fmt.Errorf("ml: boosting rounds must be positive, got %d", opt.Rounds)
	}
	if opt.LearningRate <= 0 || opt.LearningRate > 1 {
		return nil, fmt.Errorf("ml: learning rate %g outside (0,1]", opt.LearningRate)
	}
	if opt.Subsample <= 0 || opt.Subsample > 1 {
		return nil, fmt.Errorf("ml: subsample fraction %g outside (0,1]", opt.Subsample)
	}
	if opt.Tree.MaxDepth < 0 || opt.Tree.MinLeaf < 1 {
		return nil, fmt.Errorf("ml: invalid tree options %+v", opt.Tree)
	}

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
	// step[i] is the new tree's output on row i: the leaf value build
	// recorded for fitted rows, tree.Predict for the rows left out.
	step := make([]float64, n)
	builder := newTreeBuilder(d.X, residual, opt.Tree)
	rng := rand.New(rand.NewSource(opt.Seed))

	for round := 0; round < opt.Rounds; round++ {
		for i := range residual {
			residual[i] = d.Y[i] - pred[i]
		}
		var fitRows, restRows []int
		if opt.Subsample < 1 {
			m := int(float64(n) * opt.Subsample)
			if m < 1 {
				m = 1
			}
			perm := rng.Perm(n)
			fitRows, restRows = perm[:m], perm[m:]
		} else {
			fitRows = identity(n)
		}
		tree := builder.fit(fitRows, step)
		for _, i := range restRows {
			step[i] = tree.Predict(d.X[i])
		}
		model.trees = append(model.trees, tree)
		mse := 0.0
		for i := range pred {
			pred[i] += opt.LearningRate * step[i]
			e := d.Y[i] - pred[i]
			mse += e * e
		}
		model.TrainLoss = append(model.TrainLoss, mse/float64(n))
	}
	return model, nil
}
