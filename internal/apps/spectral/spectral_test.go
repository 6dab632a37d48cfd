package spectral

import (
	"math"
	"math/rand"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/memnet"
	"kylix/internal/topo"
)

func runDistributed(t *testing.T, m int, n int32, edges []graph.Edge, weights []float32, maxIters int, tol float64) []*Result {
	t.Helper()
	bf := topo.MustNew([]int{m})
	rng := rand.New(rand.NewSource(2))
	// Partition edges, carrying weights along.
	type we struct {
		e graph.Edge
		w float32
	}
	parts := make([][]we, m)
	for i, e := range edges {
		p := rng.Intn(m)
		w := float32(1)
		if weights != nil {
			w = weights[i]
		}
		parts[p] = append(parts[p], we{e, w})
	}
	shards := make([]*graph.Shard, m)
	for p := range parts {
		es := make([]graph.Edge, len(parts[p]))
		ws := make([]float32, len(parts[p]))
		for i, x := range parts[p] {
			es[i], ws[i] = x.e, x.w
		}
		s, err := graph.BuildShard(es, ws)
		if err != nil {
			t.Fatal(err)
		}
		shards[p] = s
	}
	net := memnet.New(m)
	defer net.Close()
	results := make([]*Result, m)
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		mach, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			return err
		}
		scalar, err := core.NewMachine(ep, bf, core.Options{Stream: 1})
		if err != nil {
			return err
		}
		res, err := RunNode(mach, scalar, shards[ep.Rank()], maxIters, tol)
		if err != nil {
			return err
		}
		results[ep.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestPowerIterationKnownEigenvalue(t *testing.T) {
	// A 3-cycle plus self-loops (A = P + I) is aperiodic with a real
	// spectral gap: the Perron eigenvalue is 2 (eigenvector all-ones),
	// the other eigenvalues 1+w for complex cube roots w have magnitude
	// 1, so power iteration converges cleanly.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 2, Dst: 2},
	}
	results := runDistributed(t, 2, 3, edges, nil, 200, 1e-9)
	for r, res := range results {
		if math.Abs(res.Eigenvalue-2) > 1e-3 {
			t.Fatalf("machine %d eigenvalue %f, want 2", r, res.Eigenvalue)
		}
	}
}

func TestPowerIterationMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := int32(80)
	edges := graph.GenPowerLaw(rng, int64(n), 600, 0.8, 0.8)
	weights := make([]float32, len(edges))
	for i := range weights {
		weights[i] = rng.Float32()
	}
	wantLambda, wantVec, _ := Sequential(n, edges, weights, 150, 1e-10)
	results := runDistributed(t, 4, n, edges, weights, 150, 1e-10)
	for r, res := range results {
		if math.Abs(res.Eigenvalue-wantLambda) > 1e-2*(1+math.Abs(wantLambda)) {
			t.Fatalf("machine %d eigenvalue %f, sequential %f", r, res.Eigenvalue, wantLambda)
		}
		// Eigenvector entries agree (up to float noise) at tracked
		// vertices.
		for i, k := range res.Vertices {
			diff := math.Abs(float64(res.Vector[i] - wantVec[k.Index()]))
			if diff > 5e-2 {
				t.Fatalf("machine %d vertex %d component %f vs %f", r, k.Index(), res.Vector[i], wantVec[k.Index()])
			}
		}
	}
}

func TestMachinesAgreeOnEigenvalue(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edges := graph.GenPowerLaw(rng, 60, 300, 1, 1)
	results := runDistributed(t, 3, 60, edges, nil, 80, 1e-8)
	for r := 1; r < len(results); r++ {
		if results[r].Eigenvalue != results[0].Eigenvalue {
			t.Fatalf("machines disagree: %f vs %f", results[r].Eigenvalue, results[0].Eigenvalue)
		}
		if results[r].Iters != results[0].Iters {
			t.Fatal("machines disagree on iteration count")
		}
	}
}

func TestRunNodeValidates(t *testing.T) {
	net := memnet.New(1)
	defer net.Close()
	bf := topo.MustNew([]int{1})
	m, _ := core.NewMachine(net.Endpoint(0), bf, core.Options{})
	scalar, _ := core.NewMachine(net.Endpoint(0), bf, core.Options{Stream: 1})
	shard, _ := graph.BuildShard([]graph.Edge{{Src: 0, Dst: 1}}, nil)
	if _, err := RunNode(m, scalar, shard, 0, 1e-6); err == nil {
		t.Fatal("accepted maxIters 0")
	}
}

func TestInitValueDeterministicPositive(t *testing.T) {
	for v := int32(0); v < 1000; v++ {
		x := initValue(v)
		if x <= 0 || x > 1 {
			t.Fatalf("initValue(%d) = %f out of (0,1]", v, x)
		}
		if x != initValue(v) {
			t.Fatal("not deterministic")
		}
	}
}

func TestSequentialStarGraph(t *testing.T) {
	// Undirected star with k leaves plus self-loops everywhere:
	// A = A_star + I has eigenvalues 1 ± sqrt(k) and 1, so the dominant
	// one is 1 + sqrt(k) = 4 for k = 9, with a genuine gap (the plain
	// star is bipartite and would make power iteration oscillate).
	k := 9
	edges := []graph.Edge{{Src: 0, Dst: 0}}
	for leaf := int32(1); leaf <= int32(k); leaf++ {
		edges = append(edges,
			graph.Edge{Src: 0, Dst: leaf},
			graph.Edge{Src: leaf, Dst: 0},
			graph.Edge{Src: leaf, Dst: leaf})
	}
	lambda, _, _ := Sequential(int32(k+1), edges, nil, 500, 1e-12)
	if math.Abs(lambda-4) > 1e-3 {
		t.Fatalf("star eigenvalue %f, want 4", lambda)
	}
}
