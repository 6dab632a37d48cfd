// Package components finds weakly/strongly-directed connected components
// by distributed label propagation — the "connected components ... can be
// computed from such matrix-vector products" application of §I-A2. Each
// vertex carries the minimum vertex id it has heard of; one MIN-allreduce
// per round propagates labels along edges, and a piggybacked one-feature
// SUM-allreduce detects global convergence.
package components

import (
	"fmt"
	"math"

	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/sparse"
)

// Result is one machine's outcome.
type Result struct {
	// Labels holds the final component label (minimum reachable vertex
	// id) for each In vertex of the shard, aligned with shard.In.
	Labels []int32
	// Rounds is the number of propagation rounds executed.
	Rounds int
	// Converged reports whether propagation reached a fixed point.
	Converged bool
}

// RunNode propagates labels collectively. The main machine must be built
// with sparse.Min and the convergence machine with the default sum
// reducer on a distinct stream. Labels propagate along edge direction;
// run on a symmetrized edge list for weakly connected components.
func RunNode(m *core.Machine, convergence *core.Machine, shard *graph.Shard, maxRounds int) (*Result, error) {
	cfg, err := m.Configure(shard.In, shard.Out)
	if err != nil {
		return nil, fmt.Errorf("components: configure: %w", err)
	}
	convSet := sparse.MustNewSet([]int32{0})
	convCfg, err := convergence.Configure(convSet, convSet)
	if err != nil {
		return nil, fmt.Errorf("components: convergence configure: %w", err)
	}

	labels := make([]float32, len(shard.In))
	for i, k := range shard.In {
		labels[i] = float32(k.Index())
	}
	out := make([]float32, len(shard.Out))
	res := &Result{}
	for round := 1; round <= maxRounds; round++ {
		// Each destination hears the minimum label among its local
		// in-neighbours.
		inf := float32(math.Inf(1))
		for i := range out {
			out[i] = inf
		}
		for e := 0; e < shard.NNZ(); e++ {
			if l := labels[shard.SrcPos[e]]; l < out[shard.DstPos[e]] {
				out[shard.DstPos[e]] = l
			}
		}
		gathered, err := cfg.Reduce(out)
		if err != nil {
			return nil, fmt.Errorf("components: round %d: %w", round, err)
		}
		changed := 0
		for i := range labels {
			if gathered[i] < labels[i] {
				labels[i] = gathered[i]
				changed++
			}
		}
		total, err := convCfg.Reduce([]float32{float32(changed)})
		if err != nil {
			return nil, fmt.Errorf("components: convergence round %d: %w", round, err)
		}
		res.Rounds = round
		if total[0] == 0 {
			res.Converged = true
			break
		}
	}
	res.Labels = make([]int32, len(labels))
	for i, l := range labels {
		res.Labels[i] = int32(l)
	}
	return res, nil
}

// Sequential computes component labels by iterating label propagation to
// a fixed point on one machine (labels propagate along edge direction,
// matching RunNode).
func Sequential(n int32, edges []graph.Edge) []int32 {
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}
	for {
		changed := false
		for _, e := range edges {
			if labels[e.Src] < labels[e.Dst] {
				labels[e.Dst] = labels[e.Src]
				changed = true
			}
		}
		if !changed {
			return labels
		}
	}
}

// Symmetrize doubles an edge list with reversed copies so label
// propagation computes weakly connected components.
func Symmetrize(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}
