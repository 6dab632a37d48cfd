package core

import (
	"fmt"

	"kylix/internal/comm"
	"kylix/internal/sparse"
)

// TreeAllreduce is the tree-topology baseline of §II-A1: values flow up
// a binary tree rooted at rank 0, the root holds the full reduction, and
// the result is broadcast back down. It exists to demonstrate the
// paper's point that tree reduction is impractical for sparse data —
// intermediate unions grow toward fully dense at the root — and to serve
// as a correctness oracle. It performs configuration and reduction in
// one shot and returns the values for inSet in key order.
//
// The second return value is the size (in keys) of the largest
// intermediate union this machine held, which the ablation benchmarks
// report to show the root blow-up.
func (m *Machine) TreeAllreduce(inSet, outSet sparse.Set, outVals []float32) ([]float32, int, error) {
	if !inSet.IsSorted() || !outSet.IsSorted() {
		return nil, 0, fmt.Errorf("core: TreeAllreduce requires sorted Sets")
	}
	w := m.opts.Width
	if len(outVals) != len(outSet)*w {
		return nil, 0, fmt.Errorf("core: rank %d: TreeAllreduce got %d values, want %d",
			m.Rank(), len(outVals), len(outSet)*w)
	}
	round := m.nextRound()
	rank, size := m.Rank(), m.ep.Size()
	level := treeLevel(rank)

	// Upward accumulate: merge children's aggregates into mine.
	keys := outSet
	vals := outVals
	maxUnion := len(keys)
	for _, child := range []int{2*rank + 1, 2*rank + 2} {
		if child >= size {
			continue
		}
		p, err := m.ep.Recv(child, m.tag(comm.KindReduce, treeLevel(child), round))
		if err != nil {
			return nil, 0, fmt.Errorf("core: tree recv from child %d: %w", child, err)
		}
		kv, err := m.treePiece(p)
		if err != nil {
			return nil, 0, fmt.Errorf("core: tree piece from child %d: %w", child, err)
		}
		union, maps := sparse.UnionWithMaps([]sparse.Set{keys, kv.Keys})
		acc := make([]float32, len(union)*w)
		if id := m.opts.Reducer.Identity(); id != 0 {
			sparse.Fill(acc, id)
		}
		sparse.CombineInto(m.opts.Reducer, acc, maps[0], vals, w)
		sparse.CombineInto(m.opts.Reducer, acc, maps[1], kv.Vals, w)
		keys, vals = union, acc
		if len(keys) > maxUnion {
			maxUnion = len(keys)
		}
	}
	if rank != 0 {
		parent := (rank - 1) / 2
		if err := m.ep.Send(parent, m.tag(comm.KindReduce, level, round), &comm.KeysVals{Keys: keys, Vals: vals}); err != nil {
			return nil, 0, err
		}
		// Downward broadcast: receive the full result from the parent.
		p, err := m.ep.Recv(parent, m.tag(comm.KindGather, level, round))
		if err != nil {
			return nil, 0, fmt.Errorf("core: tree recv broadcast: %w", err)
		}
		kv, err := m.treePiece(p)
		if err != nil {
			return nil, 0, fmt.Errorf("core: tree broadcast: %w", err)
		}
		keys, vals = kv.Keys, kv.Vals
		if len(keys) > maxUnion {
			maxUnion = len(keys)
		}
	}
	// Forward the full result to the children.
	for _, child := range []int{2*rank + 1, 2*rank + 2} {
		if child >= size {
			continue
		}
		if err := m.ep.Send(child, m.tag(comm.KindGather, treeLevel(child), round), &comm.KeysVals{Keys: keys, Vals: vals}); err != nil {
			return nil, 0, err
		}
	}

	// Extract the requested in-values from the dense result.
	bm, missing := sparse.PartialPositionMap(inSet, keys)
	if m.opts.Strict && missing > 0 {
		return nil, 0, fmt.Errorf("core: rank %d: %d in-indices missing from tree reduction", rank, missing)
	}
	inVals := make([]float32, len(inSet)*w)
	sparse.GatherInto(inVals, bm, vals, w, m.opts.Reducer.Identity())
	return inVals, maxUnion, nil
}

// treePiece checks that a received tree message is a KeysVals carrying
// Width values per key: the fold and the final gather index its values
// by key position.
func (m *Machine) treePiece(p comm.Payload) (*comm.KeysVals, error) {
	kv, ok := p.(*comm.KeysVals)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", p)
	}
	if want := len(kv.Keys) * m.opts.Width; len(kv.Vals) != want {
		return nil, fmt.Errorf("%d values, want %d", len(kv.Vals), want)
	}
	return kv, nil
}

// treeLevel returns the depth of a rank in the binary heap layout
// (root = 0). Tags use it as their layer field so traces aggregate tree
// traffic by level; depths beyond 255 are unreachable for any practical
// cluster (2^255 machines).
func treeLevel(rank int) int {
	level := 0
	for rank > 0 {
		rank = (rank - 1) / 2
		level++
	}
	return level
}
