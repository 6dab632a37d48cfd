// Package spectral estimates the dominant eigenvalue/eigenvector of a
// distributed sparse matrix by power iteration — the "eigenvalues can be
// computed from such matrix-vector products" workload of §I-A2, and the
// computational core of spectral clustering, which the paper lists among
// the sparse-allreduce applications. Each iteration is one distributed
// SpMV through the sum-allreduce plus two scalar allreduces (norm and
// Rayleigh quotient) on a separate stream.
package spectral

import (
	"fmt"
	"math"

	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/sparse"
)

// Result is one machine's power-iteration outcome.
type Result struct {
	// Eigenvalue is the converged Rayleigh-quotient estimate of the
	// dominant eigenvalue (identical on all machines).
	Eigenvalue float64
	// Vector holds the machine's view of the (unit-norm) dominant
	// eigenvector restricted to Vertices.
	Vector []float32
	// Vertices lists the vertices this machine tracks.
	Vertices sparse.Set
	// Iters is the number of iterations executed.
	Iters int
	// Converged reports whether successive eigenvalue estimates got
	// within the tolerance.
	Converged bool
}

// RunNode runs power iteration collectively. The main machine uses the
// default sum reducer; scalar is a second sum machine on a distinct
// stream used for the global norm and Rayleigh-quotient reductions.
func RunNode(m *core.Machine, scalar *core.Machine, shard *graph.Shard, maxIters int, tol float64) (*Result, error) {
	if maxIters < 1 {
		return nil, fmt.Errorf("spectral: maxIters %d must be >= 1", maxIters)
	}
	tracked := sparse.TreeUnion([]sparse.Set{shard.In, shard.Out})
	srcSlot, err := sparse.PositionMap(shard.In, tracked)
	if err != nil {
		return nil, fmt.Errorf("spectral: %w", err)
	}
	cfg, err := m.Configure(tracked, shard.Out)
	if err != nil {
		return nil, fmt.Errorf("spectral: configure: %w", err)
	}
	// Scalar network: index 0 carries squared norms, index 1 the
	// Rayleigh numerator.
	scalarSet := sparse.MustNewSet([]int32{0, 1})
	scalarCfg, err := scalar.Configure(scalarSet, scalarSet)
	if err != nil {
		return nil, fmt.Errorf("spectral: scalar configure: %w", err)
	}

	// Global inner products must count every vertex exactly once, but a
	// vertex can be tracked by several machines. Each machine therefore
	// weights its per-vertex contributions by 1/(number of machines
	// tracking the vertex), obtained from one extra sum-allreduce of
	// ones at setup. Any vertex with a nonzero iterate has an edge and
	// so is tracked somewhere, making the weighted sums complete.
	share, err := shareWeights(m, tracked)
	if err != nil {
		return nil, err
	}

	// x starts as a deterministic pseudo-random unit-ish vector so all
	// machines agree on shared vertices.
	x := make([]float32, len(tracked))
	for i, k := range tracked {
		x[i] = initValue(k.Index())
	}
	if err := normalize(scalarCfg, scalarSet, share, x); err != nil {
		return nil, err
	}

	out := make([]float32, len(shard.Out))
	res := &Result{Vertices: tracked}
	prev := math.Inf(1)
	for it := 1; it <= maxIters; it++ {
		// y = A x restricted to local edges, then global sum.
		for i := range out {
			out[i] = 0
		}
		for e := 0; e < shard.NNZ(); e++ {
			out[shard.DstPos[e]] += shard.W[e] * x[srcSlot[shard.SrcPos[e]]]
		}
		y, err := cfg.Reduce(out)
		if err != nil {
			return nil, fmt.Errorf("spectral: iter %d: %w", it, err)
		}
		// Rayleigh numerator x·y and norm |y|, share-weighted so each
		// vertex counts once globally.
		var dot, norm2 float64
		for i := range y {
			w := float64(share[i])
			dot += w * float64(x[i]) * float64(y[i])
			norm2 += w * float64(y[i]) * float64(y[i])
		}
		totals, err := scalarCfg.Reduce([]float32{float32(norm2), float32(dot)})
		if err != nil {
			return nil, fmt.Errorf("spectral: scalar iter %d: %w", it, err)
		}
		scalarVals := alignScalars(scalarSet, totals)
		gNorm := math.Sqrt(float64(scalarVals[0]))
		lambda := float64(scalarVals[1])
		res.Iters = it
		if gNorm == 0 {
			return nil, fmt.Errorf("spectral: iterate collapsed to zero (matrix nilpotent?)")
		}
		for i := range x {
			x[i] = y[i] / float32(gNorm)
		}
		res.Eigenvalue = lambda
		if math.Abs(lambda-prev) <= tol*(1+math.Abs(lambda)) {
			res.Converged = true
			break
		}
		prev = lambda
	}
	res.Vector = x
	return res, nil
}

// shareWeights runs one sum-allreduce of ones over the tracked set and
// returns 1/count per tracked vertex: the weight that makes per-machine
// partial inner products sum to exactly one contribution per vertex.
func shareWeights(m *core.Machine, tracked sparse.Set) ([]float32, error) {
	cfg, err := m.Configure(tracked, tracked)
	if err != nil {
		return nil, fmt.Errorf("spectral: share configure: %w", err)
	}
	ones := make([]float32, len(tracked))
	for i := range ones {
		ones[i] = 1
	}
	counts, err := cfg.Reduce(ones)
	if err != nil {
		return nil, fmt.Errorf("spectral: share reduce: %w", err)
	}
	share := make([]float32, len(counts))
	for i, c := range counts {
		if c <= 0 {
			return nil, fmt.Errorf("spectral: tracked vertex %d has share count %f", tracked[i].Index(), c)
		}
		share[i] = 1 / c
	}
	return share, nil
}

// normalize scales x to unit norm globally.
func normalize(scalarCfg *core.Config, scalarSet sparse.Set, share, x []float32) error {
	var norm2 float64
	for i := range x {
		norm2 += float64(share[i]) * float64(x[i]) * float64(x[i])
	}
	totals, err := scalarCfg.Reduce([]float32{float32(norm2), 0})
	if err != nil {
		return fmt.Errorf("spectral: normalize: %w", err)
	}
	g := math.Sqrt(float64(alignScalars(scalarSet, totals)[0]))
	if g == 0 {
		return fmt.Errorf("spectral: zero initial vector")
	}
	for i := range x {
		x[i] /= float32(g)
	}
	return nil
}

// alignScalars maps key-ordered scalar results back to index order
// (indices 0 and 1).
func alignScalars(set sparse.Set, vals []float32) [2]float32 {
	var out [2]float32
	for i, k := range set {
		out[k.Index()] = vals[i]
	}
	return out
}

// initValue is a deterministic pseudo-random starting component in
// (0, 1], identical on every machine for a given vertex. Positive
// entries guarantee a nonzero overlap with the Perron vector of a
// non-negative matrix.
func initValue(v int32) float32 {
	h := uint64(uint32(v))*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	h ^= h >> 33
	return float32(h%1000+1) / 1000
}

// Sequential is the single-machine reference power iteration.
func Sequential(n int32, edges []graph.Edge, weights []float32, maxIters int, tol float64) (float64, []float32, int) {
	a := graph.NewCSR(n, edges, weights)
	x := make([]float32, n)
	for v := int32(0); v < n; v++ {
		x[v] = initValue(v)
	}
	var norm2 float64
	for _, v := range x {
		norm2 += float64(v) * float64(v)
	}
	g := float32(math.Sqrt(norm2))
	for i := range x {
		x[i] /= g
	}
	y := make([]float32, n)
	prev := math.Inf(1)
	lambda := 0.0
	for it := 1; it <= maxIters; it++ {
		a.Multiply(x, y)
		var dot, n2 float64
		for i := range y {
			dot += float64(x[i]) * float64(y[i])
			n2 += float64(y[i]) * float64(y[i])
		}
		lambda = dot
		gn := math.Sqrt(n2)
		if gn == 0 {
			return 0, x, it
		}
		for i := range x {
			x[i] = y[i] / float32(gn)
		}
		if math.Abs(lambda-prev) <= tol*(1+math.Abs(lambda)) {
			return lambda, x, it
		}
		prev = lambda
	}
	return lambda, x, maxIters
}
