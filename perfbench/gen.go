package main

import (
	"math"
	"math/rand"
	"sort"

	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// powerLaw describes a synthetic feature distribution in the Kylix
// model: feature r (1-based rank, index r-1) is present in one rank's
// partition with probability 1-exp(-lambda r^-alpha).
type powerLaw struct {
	n      int
	alpha  float64
	lambda float64
}

// newPowerLaw solves lambda for the target partition density.
func newPowerLaw(n int, alpha, density float64) powerLaw {
	g := powerLaw{n: n, alpha: alpha}
	lo, hi := 1e-9, 1e9
	for i := 0; i < 100 && hi/lo > 1+1e-9; i++ {
		g.lambda = math.Sqrt(lo * hi)
		if g.expectedKeys() < density*float64(n) {
			lo = g.lambda
		} else {
			hi = g.lambda
		}
	}
	g.lambda = math.Sqrt(lo * hi)
	return g
}

func (g powerLaw) p(r float64) float64 { return -math.Expm1(-g.lambda * math.Pow(r, -g.alpha)) }

// expectedKeys sums presence probabilities: exactly over the head, by
// 1%-wide blocks evaluated at their midpoint over the tail.
func (g powerLaw) expectedKeys() float64 {
	sum := 0.0
	r := 1
	for ; r <= g.n && r <= 4096; r++ {
		sum += g.p(float64(r))
	}
	for r <= g.n {
		end := r + r/100
		if end > g.n {
			end = g.n
		}
		sum += g.p(float64(r+end)/2) * float64(end-r+1)
		r = end + 1
	}
	return sum
}

// draw samples one partition's sorted feature indices. The head, where
// presence is likely, is sampled feature by feature; the tail skips
// geometrically between hits with the rate frozen per block (blocks
// grow by 12.5%, so the frozen rate tracks the power law closely).
func (g powerLaw) draw(rng *rand.Rand) []int32 {
	var out []int32
	r := 1
	for ; r <= g.n; r++ {
		p := g.p(float64(r))
		if p < 0.05 {
			break
		}
		if rng.Float64() < p {
			out = append(out, int32(r-1))
		}
	}
	for r <= g.n {
		end := r + r/8
		if end < r+63 {
			end = r + 63
		}
		if end > g.n {
			end = g.n
		}
		p := g.p(math.Sqrt(float64(r) * float64(end)))
		for r <= end {
			u := rng.Float64()
			if u == 0 {
				u = 0x1p-60
			}
			skip := math.Floor(math.Log(u) / math.Log1p(-p))
			if skip > float64(end-r) {
				r = end + 1
				break
			}
			r += int(skip)
			out = append(out, int32(r-1))
			r++
		}
	}
	return out
}

// batch is one round's inputs for every rank: each rank contributes
// values for, and requests the reduced values of, the same index set
// (in = out, the PageRank and minibatch shape), plus the exact
// reference its result is checked against.
type batch struct {
	idx  [][]int32   // per rank: sorted feature indices
	vals [][]float32 // per rank: width values per index
	// want is the exact reduced value of every requested row, summed
	// in float64; tol bounds float32 summation error per value.
	want [][]float64
	tol  [][]float64
}

// newBatch draws one set and value vector per rank and computes the
// exact reference.
func newBatch(rng *rand.Rand, g powerLaw, ranks, width int) *batch {
	b := &batch{
		idx:  make([][]int32, ranks),
		vals: make([][]float32, ranks),
		want: make([][]float64, ranks),
		tol:  make([][]float64, ranks),
	}
	for r := 0; r < ranks; r++ {
		b.idx[r] = g.draw(rng)
		v := make([]float32, len(b.idx[r])*width)
		for i := range v {
			v[i] = 2*rng.Float32() - 1
		}
		b.vals[r] = v
	}
	b.reference(g.n, width)
	return b
}

// reference fills want and tol. A float32 sum of k terms differs from
// the exact sum by at most (k-1)*2^-24*sum|x| (plus the final
// rounding); tol allows k*2^-23*sum|x|, twice that, which still flags
// any dropped, doubled or misrouted contribution.
func (b *batch) reference(n, width int) {
	sum := make([]float64, n*width)
	abs := make([]float64, n*width)
	cnt := make([]int32, n)
	for r, idx := range b.idx {
		for p, k := range idx {
			cnt[k]++
			for c := 0; c < width; c++ {
				x := float64(b.vals[r][p*width+c])
				sum[int(k)*width+c] += x
				abs[int(k)*width+c] += math.Abs(x)
			}
		}
	}
	for r, idx := range b.idx {
		want := make([]float64, len(idx)*width)
		tol := make([]float64, len(idx)*width)
		for p, k := range idx {
			for c := 0; c < width; c++ {
				j := int(k)*width + c
				want[p*width+c] = sum[j]
				tol[p*width+c] = float64(cnt[k]) * 0x1p-23 * abs[j]
			}
		}
		b.want[r], b.tol[r] = want, tol
	}
}

// inputProps records the input properties the system's behaviour
// depends on, so a later change that helps only some inputs can state
// what share of each workload has the property.
type inputProps struct {
	Seed            int64   `json:"seed"`
	KeysPerRank     float64 `json:"keys_per_rank"`
	KeysPerRankMin  int     `json:"keys_per_rank_min"`
	KeysPerRankMax  int     `json:"keys_per_rank_max"`
	CollisionRatio  float64 `json:"collision_ratio"`
	GlobalUnion     int     `json:"global_union"`
	BottomUnionMin  int     `json:"bottom_union_min"`
	BottomUnionMean float64 `json:"bottom_union_mean"`
	BottomUnionMax  int     `json:"bottom_union_max"`
	FreshSetShare   float64 `json:"fresh_set_share"`
	ConfigureShare  float64 `json:"configure_share"`
}

// props measures the batches' properties on the butterfly bf: the
// collision ratio is sum|set| over |global union|, and the bottom
// union of a rank is the part of the global union that lands in the
// hash range it owns after the last layer.
func props(seed int64, batches []*batch, bf *topo.Butterfly) inputProps {
	pr := inputProps{Seed: seed, KeysPerRankMin: math.MaxInt, BottomUnionMin: math.MaxInt}
	var keys, union, sets int
	bottomSum := 0
	for _, b := range batches {
		seen := map[int32]struct{}{}
		for _, idx := range b.idx {
			keys += len(idx)
			sets++
			pr.KeysPerRankMin = min(pr.KeysPerRankMin, len(idx))
			pr.KeysPerRankMax = max(pr.KeysPerRankMax, len(idx))
			for _, k := range idx {
				seen[k] = struct{}{}
			}
		}
		union += len(seen)
		global := make(sparse.Set, 0, len(seen))
		for k := range seen {
			global = append(global, sparse.MakeKey(k))
		}
		sort.Slice(global, func(i, j int) bool { return global[i] < global[j] })
		for r := 0; r < bf.M(); r++ {
			rg := bf.RangeAt(r, bf.Layers())
			n := global.LowerBound(rg.Hi) - global.LowerBound(rg.Lo)
			bottomSum += n
			pr.BottomUnionMin = min(pr.BottomUnionMin, n)
			pr.BottomUnionMax = max(pr.BottomUnionMax, n)
		}
	}
	pr.KeysPerRank = float64(keys) / float64(sets)
	pr.CollisionRatio = float64(keys) / float64(union)
	pr.GlobalUnion = union / len(batches)
	pr.BottomUnionMean = float64(bottomSum) / float64(len(batches)*bf.M())
	return pr
}
