package core

import (
	"kylix/internal/comm"
	"kylix/internal/sparse"
)

// genBufs is one generation of a Config's reusable reduction buffers.
// Every slice a warm Reduce writes — layer accumulators, send payload
// headers, gather extraction buffers, the turnaround vector and the
// per-layer assembly buffers — is carved here once, so steady-state
// rounds allocate nothing.
type genBufs struct {
	// acc[i] is layer i+1's scatter-reduce accumulator
	// (len = |outUnion| * width).
	acc [][]float32
	// scatter[i][t] is the send state of the scatter piece to layer
	// i+1's member t; its raw header is re-pointed at a segment of the
	// current value vector each round.
	scatter [][]valueSend
	// gather[i][t] is the send state of the allgather piece to layer
	// i+1's member t; its raw header's Vals is a fixed buffer
	// (len = |inMaps[t]| * width) refilled by GatherInto each round.
	gather [][]valueSend
	// inVals is the bottom turnaround vector (len = |bottomIn| * width).
	inVals []float32
	// next[i] is the allgather assembly buffer below layer i+1
	// (len = |inSet| * width for i == 0, |layers[i-1].inUnion| * width
	// otherwise). next[0] is the vector handed back to the caller.
	next [][]float32
}

// valueSend is the reusable send state of one value piece. raw ships
// the values as plain float32s. When Options.Quant is a lossy mode, q
// is the piece's quantized header, whose Data (sized exactly by
// sparse.QuantizedSize) is refilled by the quantize kernels each round;
// like the gather value buffers, Data may still be draining through a
// transport when the round ends, so it lives in the two-generation
// arena. res is the piece's error-feedback residual (nil when
// quantization is off or Options.QuantNoFeedback is set): each round's
// quantization error is left there and added to the next round's
// values before encoding. It is not scratch in the reuse sense — both
// generations share one residual per piece, and it is never cleared.
type valueSend struct {
	raw comm.Floats
	q   comm.QVals
	res []float32
}

// scratch is a Config's two-generation reduction arena plus the
// generation-independent receive state. Rounds alternate generations:
// round N reuses the buffers of round N-2, which are quiescent by then —
// any rank entering round N has completed round N-1, which required a
// message from every group member at every layer, which those members
// only send after finishing round N-2 and therefore after consuming
// every round-N-2 payload addressed to them. (Send-side transports
// either finish reading a payload before the receiver can complete the
// round it belongs to, or deep-copy it up front, so the same bound
// covers them.)
//
// Generations are built lazily: a fused ConfigureReduce performs one
// allgather and then often hands the Config to a caller that never
// Reduces again, so eagerly sizing both generations doubled the
// configuration pass's footprint for nothing (the BenchmarkConfigureReduce16
// regression tracked in EXPERIMENTS.md). The first flip into a
// generation pays its build; a Config that settles into steady-state
// reduction touches both exactly once.
type scratch struct {
	gen   int
	bufs  [2]genBufs
	ready [2]bool
	// vals[t] holds the values received from group slot t until they can
	// be folded in canonical member order, and staged[t] records the
	// receipt — the duplicate-delivery guard. A piece with no values may
	// be a nil slice, so receipt is the flag, never the slice. Both live
	// in the machine scratch (cfgScratch.vals/seen): one goroutine per
	// machine, passes never overlap, and each layer clears the flags
	// before use.
	vals   [][]float32
	staged []bool
	// groups[i][t] is the singleton group {layers[i].group[t]} — the
	// RecvGroup argument that makes receives pure arrival-order with no
	// cancellation. Shared from the machine-level cfgScratch: the layer
	// groups are fixed by the topology, not by the Config.
	groups [][][]int
	// land[i][t] is the dequantize landing buffer for the scatter piece
	// received from layer i+1's member t (len = |outMaps[t]| * width);
	// nil when values ship raw. The staged fold consumes it within the
	// same layer on the same goroutine, so one instance (not one per
	// generation) suffices.
	land [][][]float32
}

// flip advances to the next generation — building it on first use — and
// returns its buffers.
func (c *Config) flip(s *scratch) *genBufs {
	s.gen ^= 1
	if !s.ready[s.gen] {
		c.buildGen(s, s.gen)
	}
	return &s.bufs[s.gen]
}

// ensureScratch builds the Config's receive state on first use; the
// per-generation value buffers follow lazily at each generation's first
// flip. Sizes are fully determined by the configuration, so every warm
// Reduce is allocation-free.
//
//kylix:coldpath
func (c *Config) ensureScratch() *scratch {
	if c.scratch != nil {
		return c.scratch
	}
	w := c.mach.opts.Width
	cs := c.mach.ensureCfgScratch()
	s := &scratch{vals: cs.vals, staged: cs.seen, groups: cs.groups}
	if c.mach.opts.Quant != sparse.QuantOff {
		s.land = make([][][]float32, len(c.layers))
		for i := range c.layers {
			ls := &c.layers[i]
			s.land[i] = make([][]float32, len(ls.group))
			for t := range ls.group {
				s.land[i][t] = make([]float32, len(ls.outMaps[t])*w)
			}
		}
	}
	c.scratch = s
	return s
}

// landing returns the dequantize landing buffer for the scatter piece
// from layer i+1's member t, or nil when values ship raw.
func (s *scratch) landing(i, t int) []float32 {
	if s.land == nil {
		return nil
	}
	return s.land[i][t]
}

// buildGen sizes one generation of the reduction arena. Error-feedback
// residuals are allocated (zeroed: the first round has no prior error
// to fold in) with the first generation built and shared by the second.
//
//kylix:coldpath
func (c *Config) buildGen(s *scratch, gen int) {
	w := c.mach.opts.Width
	quant := c.mach.opts.Quant
	feedback := quant != sparse.QuantOff && !c.mach.opts.QuantNoFeedback
	g, other := &s.bufs[gen], &s.bufs[gen^1]
	g.acc = make([][]float32, len(c.layers))
	g.scatter = make([][]valueSend, len(c.layers))
	g.gather = make([][]valueSend, len(c.layers))
	g.next = make([][]float32, len(c.layers))
	g.inVals = make([]float32, len(c.bottomIn())*w)
	for i := range c.layers {
		ls := &c.layers[i]
		g.acc[i] = make([]float32, len(ls.outUnion)*w)
		g.scatter[i] = make([]valueSend, len(ls.group))
		g.gather[i] = make([]valueSend, len(ls.group))
		for t := range ls.group {
			sc, ga := &g.scatter[i][t], &g.gather[i][t]
			ns := int(ls.outOffsets[t+1]-ls.outOffsets[t]) * w
			ng := len(ls.inMaps[t]) * w
			ga.raw.Vals = make([]float32, ng)
			if quant != sparse.QuantOff {
				sc.q = comm.QVals{Mode: quant, N: ns, Data: make([]byte, sparse.QuantizedSize(quant, ns))}
				ga.q = comm.QVals{Mode: quant, N: ng, Data: make([]byte, sparse.QuantizedSize(quant, ng))}
			}
			if feedback {
				if s.ready[gen^1] {
					sc.res, ga.res = other.scatter[i][t].res, other.gather[i][t].res
				} else {
					sc.res, ga.res = make([]float32, ns), make([]float32, ng)
				}
			}
		}
		below := c.inSet
		if i > 0 {
			below = c.layers[i-1].inUnion
		}
		g.next[i] = make([]float32, len(below)*w)
	}
	s.ready[gen] = true
}

// cfgScratch is the machine-level scratch of the configuration pass:
// everything transient whose shape depends only on the topology
// (receive groups, piece staging, union arenas). One instance serves
// every Configure / ConfigureReduce / Reconfigure on the Machine —
// machines are single-goroutine by contract, and nothing here survives
// a pass except as reusable capacity.
type cfgScratch struct {
	// groupOf[layer-1] is this machine's layer group (topology-fixed;
	// retained read-only by every Config's layerStates).
	groupOf [][]int
	// groups[layer-1][t] is the singleton receive group {groupOf[t]}.
	groups [][][]int
	// got/seen stage one layer's received configuration pieces, indexed
	// by group slot; inP/outP are the union inputs built from them (with
	// unchanged markers rebuilt). All are sized to the widest layer.
	got       []*comm.ConfigPiece
	inP, outP []sparse.Set
	seen      []bool
	// vals is the reduction's arrival-order value staging (see
	// scratch.vals), which shares seen as its receipt flags.
	vals [][]float32
	// uni is the tree-union arena; unions are cloned out of it into the
	// retained layerState, so only the final deduplicated keys are paid
	// for per configuration.
	uni sparse.UnionScratch
	// offs stages a layer's candidate split offsets, which are retained
	// (copied) only when they differ from the previous pass's
	// (2*(maxDeg+1) entries).
	offs []int32
	// keys holds the pieces rebuilt for unchanged markers in a layer
	// that must re-merge; it is reset per layer and keeps its capacity.
	keys sparse.Set
}

// rebuild appends to cs.keys the piece whose union positions are pos —
// union[pos[i]] for each i — and returns it.
func (cs *cfgScratch) rebuild(union sparse.Set, pos []int32) sparse.Set {
	start := len(cs.keys)
	for _, p := range pos {
		cs.keys = append(cs.keys, union[p])
	}
	return cs.keys[start:len(cs.keys):len(cs.keys)]
}

// ensureCfgScratch builds the machine's configuration scratch on first
// use.
//
//kylix:coldpath
func (m *Machine) ensureCfgScratch() *cfgScratch {
	if m.cfg != nil {
		return m.cfg
	}
	L := m.bf.Layers()
	cs := &cfgScratch{groupOf: make([][]int, L), groups: make([][][]int, L)}
	maxDeg := 0
	for layer := 1; layer <= L; layer++ {
		group := m.bf.Group(m.Rank(), layer)
		d := len(group)
		if d > maxDeg {
			maxDeg = d
		}
		cs.groupOf[layer-1] = group
		cs.groups[layer-1] = make([][]int, d)
		for t := range group {
			cs.groups[layer-1][t] = group[t : t+1 : t+1]
		}
	}
	cs.got = make([]*comm.ConfigPiece, maxDeg)
	cs.inP = make([]sparse.Set, maxDeg)
	cs.outP = make([]sparse.Set, maxDeg)
	cs.vals = make([][]float32, maxDeg)
	cs.seen = make([]bool, maxDeg)
	cs.offs = make([]int32, 2*(maxDeg+1))
	m.cfg = cs
	return cs
}

// memberIndex locates a rank in a layer group (groups are small — the
// topology degree — so a linear scan beats any index structure).
func memberIndex(group []int, rank int) int {
	for t, m := range group {
		if m == rank {
			return t
		}
	}
	return -1
}
