// Package bfs computes single-source shortest hop distances (directed
// breadth-first search) with distributed sparse matrix-vector products —
// one of the §I-A2 graph workloads ("connected components, breadth-first
// search, and eigenvalues can be computed from such matrix-vector
// products"). Each round relaxes distances along edges through a
// MIN-allreduce; a piggybacked one-feature SUM-allreduce detects
// frontier exhaustion.
package bfs

import (
	"fmt"
	"math"

	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/sparse"
)

// Unreached marks vertices the source cannot reach.
const Unreached = int32(-1)

// Result is one machine's BFS outcome.
type Result struct {
	// Dist holds hop distances for the machine's tracked vertices
	// (aligned with Vertices); Unreached where the source has no path.
	Dist []int32
	// Vertices lists the vertices this machine tracks (its shard's
	// sources and destinations).
	Vertices sparse.Set
	// Rounds is the number of relaxation rounds executed.
	Rounds int
	// Converged reports whether the frontier emptied within the budget.
	Converged bool
}

// RunNode runs BFS from the given source collectively. The main machine
// must use sparse.Min; the convergence machine uses the default sum
// reducer on a distinct stream.
func RunNode(m *core.Machine, convergence *core.Machine, shard *graph.Shard, source int32, maxRounds int) (*Result, error) {
	if maxRounds < 1 {
		return nil, fmt.Errorf("bfs: maxRounds %d must be >= 1", maxRounds)
	}
	tracked := sparse.TreeUnion([]sparse.Set{shard.In, shard.Out})
	srcSlot, err := sparse.PositionMap(shard.In, tracked)
	if err != nil {
		return nil, fmt.Errorf("bfs: %w", err)
	}
	cfg, err := m.Configure(tracked, shard.Out)
	if err != nil {
		return nil, fmt.Errorf("bfs: configure: %w", err)
	}
	convSet := sparse.MustNewSet([]int32{0})
	convCfg, err := convergence.Configure(convSet, convSet)
	if err != nil {
		return nil, fmt.Errorf("bfs: convergence configure: %w", err)
	}

	inf := float32(math.Inf(1))
	dist := make([]float32, len(tracked))
	for i, k := range tracked {
		if k.Index() == source {
			dist[i] = 0
		} else {
			dist[i] = inf
		}
	}
	out := make([]float32, len(shard.Out))
	res := &Result{Vertices: tracked}
	for round := 1; round <= maxRounds; round++ {
		// Candidate distance for each destination: min over local
		// in-edges of dist[src] + 1.
		for i := range out {
			out[i] = inf
		}
		for e := 0; e < shard.NNZ(); e++ {
			if d := dist[srcSlot[shard.SrcPos[e]]]; d+1 < out[shard.DstPos[e]] {
				out[shard.DstPos[e]] = d + 1
			}
		}
		gathered, err := cfg.Reduce(out)
		if err != nil {
			return nil, fmt.Errorf("bfs: round %d: %w", round, err)
		}
		changed := 0
		for i := range dist {
			if gathered[i] < dist[i] {
				dist[i] = gathered[i]
				changed++
			}
		}
		total, err := convCfg.Reduce([]float32{float32(changed)})
		if err != nil {
			return nil, fmt.Errorf("bfs: convergence round %d: %w", round, err)
		}
		res.Rounds = round
		if total[0] == 0 {
			res.Converged = true
			break
		}
	}
	res.Dist = make([]int32, len(dist))
	for i, d := range dist {
		if math.IsInf(float64(d), 1) {
			res.Dist[i] = Unreached
		} else {
			res.Dist[i] = int32(d)
		}
	}
	return res, nil
}

// Sequential is the single-machine reference BFS (directed).
func Sequential(n int32, edges []graph.Edge, source int32) []int32 {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[source] = 0
	frontier := []int32{source}
	for level := int32(1); len(frontier) > 0; level++ {
		var next []int32
		for _, v := range frontier {
			for _, u := range adj[v] {
				if dist[u] == Unreached {
					dist[u] = level
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}
