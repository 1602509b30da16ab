package ml

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Model persistence: trained ensembles can be saved and reloaded, the
// "off-line learning" usage the paper describes (train once, reuse the
// predictor for new inputs without re-measuring).

// persistedNode mirrors treeNode with exported fields for encoding.
type persistedNode struct {
	Feature     int
	Threshold   float64
	Left, Right int32
	Value       float64
}

// persistedBoosted is the serialized form of BoostedTrees.
type persistedBoosted struct {
	Base         float64
	LearningRate float64
	Trees        [][]persistedNode
}

// Save writes the ensemble to w in gob encoding.
func (b *BoostedTrees) Save(w io.Writer) error {
	p := persistedBoosted{Base: b.base, LearningRate: b.learningRate}
	for _, t := range b.trees {
		nodes := make([]persistedNode, len(t.nodes))
		for i, n := range t.nodes {
			nodes[i] = persistedNode{
				Feature:   n.feature,
				Threshold: n.threshold,
				Left:      n.left,
				Right:     n.right,
				Value:     n.value,
			}
		}
		p.Trees = append(p.Trees, nodes)
	}
	if err := gob.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("ml: saving boosted trees: %w", err)
	}
	return nil
}

// LoadBoostedTrees reads an ensemble previously written by Save.
func LoadBoostedTrees(r io.Reader) (*BoostedTrees, error) {
	var p persistedBoosted
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("ml: loading boosted trees: %w", err)
	}
	if p.LearningRate <= 0 || p.LearningRate > 1 {
		return nil, fmt.Errorf("ml: loaded learning rate %g outside (0,1]", p.LearningRate)
	}
	b := &BoostedTrees{base: p.Base, learningRate: p.LearningRate}
	for i, nodes := range p.Trees {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("ml: loaded tree %d is empty", i)
		}
		t := &Tree{nodes: make([]treeNode, len(nodes))}
		for j, n := range nodes {
			t.nodes[j] = treeNode{
				feature:   n.Feature,
				threshold: n.Threshold,
				left:      n.Left,
				right:     n.Right,
				value:     n.Value,
			}
		}
		if err := t.validate(); err != nil {
			return nil, fmt.Errorf("ml: loaded tree %d: %w", i, err)
		}
		b.trees = append(b.trees, t)
	}
	return b, nil
}

// validate checks structural sanity of a deserialized tree: child indices
// in range and leaves marked consistently. Every internal node's
// children must come after it in the arena, as build lays them out;
// that rules out cycles, so Predict always reaches a leaf.
func (t *Tree) validate() error {
	n := int32(len(t.nodes))
	for i, node := range t.nodes {
		if node.feature < 0 {
			continue // leaf
		}
		if node.left <= int32(i) || node.left >= n || node.right <= int32(i) || node.right >= n {
			return fmt.Errorf("node %d has children (%d, %d) outside (%d, %d)", i, node.left, node.right, i, n)
		}
	}
	return nil
}
