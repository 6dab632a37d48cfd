package components

import (
	"math/rand"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

func runDistributed(t *testing.T, m int, edges []graph.Edge, maxRounds int) ([]*Result, []*graph.Shard) {
	t.Helper()
	bf := topo.MustNew([]int{m})
	rng := rand.New(rand.NewSource(5))
	parts := graph.PartitionEdges(rng, edges, m)
	shards := make([]*graph.Shard, m)
	for i := range parts {
		s, err := graph.BuildShard(parts[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	net := memnet.New(m)
	defer net.Close()
	results := make([]*Result, m)
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		mach, err := core.NewMachine(ep, bf, core.Options{Reducer: sparse.Min})
		if err != nil {
			return err
		}
		conv, err := core.NewMachine(ep, bf, core.Options{Stream: 1})
		if err != nil {
			return err
		}
		res, err := RunNode(mach, conv, shards[ep.Rank()], maxRounds)
		if err != nil {
			return err
		}
		results[ep.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, shards
}

func TestComponentsTwoIslands(t *testing.T) {
	// {0,1,2} and {3,4} as undirected components.
	edges := Symmetrize([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}})
	results, shards := runDistributed(t, 2, edges, 20)
	want := Sequential(5, edges)
	for r, res := range results {
		if !res.Converged {
			t.Fatalf("machine %d did not converge", r)
		}
		for i, k := range shards[r].In {
			if res.Labels[i] != want[k.Index()] {
				t.Fatalf("machine %d vertex %d: label %d, want %d", r, k.Index(), res.Labels[i], want[k.Index()])
			}
		}
	}
}

func TestComponentsMatchSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := int64(120)
	edges := Symmetrize(graph.GenPowerLaw(rng, n, 150, 1, 1))
	want := Sequential(int32(n), edges)
	results, shards := runDistributed(t, 4, edges, 60)
	for r, res := range results {
		if !res.Converged {
			t.Fatalf("machine %d did not converge", r)
		}
		for i, k := range shards[r].In {
			if res.Labels[i] != want[k.Index()] {
				t.Fatalf("machine %d vertex %d: label %d, want %d", r, k.Index(), res.Labels[i], want[k.Index()])
			}
		}
	}
}

func TestSequentialLabels(t *testing.T) {
	edges := Symmetrize([]graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 4}})
	labels := Sequential(5, edges)
	if labels[1] != 1 || labels[2] != 1 || labels[4] != 1 {
		t.Fatalf("component of {1,2,4} mislabeled: %v", labels)
	}
	if labels[0] != 0 || labels[3] != 3 {
		t.Fatalf("singletons mislabeled: %v", labels)
	}
}

func TestSymmetrize(t *testing.T) {
	edges := Symmetrize([]graph.Edge{{Src: 1, Dst: 2}})
	if len(edges) != 2 || edges[1] != (graph.Edge{Src: 2, Dst: 1}) {
		t.Fatalf("Symmetrize = %v", edges)
	}
}

func TestDirectedPropagationFollowsEdges(t *testing.T) {
	// Without symmetrization, labels flow only along edge direction:
	// 0 -> 1 gives vertex 1 label 0, but a back-edge is required for 0
	// to ever change (it cannot, being the minimum).
	labels := Sequential(2, []graph.Edge{{Src: 0, Dst: 1}})
	if labels[0] != 0 || labels[1] != 0 {
		t.Fatalf("labels = %v", labels)
	}
	labels = Sequential(2, []graph.Edge{{Src: 1, Dst: 0}})
	if labels[0] != 0 || labels[1] != 1 {
		t.Fatalf("labels = %v", labels)
	}
}
