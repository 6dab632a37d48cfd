package core

import (
	"fmt"

	"kylix/internal/comm"
	"kylix/internal/obs"
	"kylix/internal/sparse"
)

// Reduce runs one reduction over an existing configuration (§III-B):
// a downward scatter-reduce followed by an upward allgather through the
// same nested groups. outVals must hold Width values per key of
// OutSet(), in key order; the result holds Width values per key of
// InSet(), in key order. All live machines must call Reduce collectively
// and in the same round order.
//
// The hot path is pipelined and allocation-free: within each layer all
// pieces are sent before any receive is posted, incoming pieces are
// taken in arrival order (so a slow member never blocks combining the
// fast ones), and every buffer comes from the Config's two-generation
// scratch arena. Arrival order does not change results — pieces are
// staged per sender and folded in canonical member order, so the float
// combine sequence is bit-identical to a fully in-order run.
//
// When Options.Tracer is set, the pass records a whole-pass span
// (layer 0) nesting one span per communication layer, each carrying the
// layer's wire bytes in/out and group size; the zero-alloc property is
// preserved (spans are stack values recorded into preallocated rings).
//
// The returned slice is owned by the arena: it stays valid until the
// second-following Reduce/ConfigureReduce on this Config overwrites it.
// Callers that retain results longer must copy them out.
//
//kylix:hotpath
func (c *Config) Reduce(outVals []float32) (res []float32, err error) {
	m := c.mach
	if c.poisoned {
		return nil, &PoisonedError{Rank: m.Rank()}
	}
	w := m.opts.Width
	if len(outVals) != len(c.outSet)*w {
		return nil, fmt.Errorf("core: rank %d: Reduce got %d values, want %d (|out|=%d x width %d)",
			m.Rank(), len(outVals), len(c.outSet)*w, len(c.outSet), w)
	}
	round := m.nextRound()
	s := c.ensureScratch()
	g := c.flip(s)
	// The pool's workers live for this pass only: the first fold or
	// gather big enough to shard spawns them, and the pass joins them on
	// every exit path, so Machines never accumulate goroutines.
	defer m.pool.End()
	tr := m.opts.Tracer
	tr.CountRound()
	tr.CountArenaFlip()
	outer := tr.Begin(comm.KindReduce, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()

	// Downward scatter-reduce.
	cur := outVals
	for i := range c.layers {
		acc, err := c.scatterLayer(i, round, cur, s, g, tr)
		if err != nil {
			return nil, err
		}
		cur = acc
	}

	return c.gatherUp(cur, round, s, g)
}

// scatterLayer runs one layer of the downward scatter-reduce: issue
// every send before posting any receive (all pieces in flight while we
// turn around to combine), then take pieces as they arrive but fold in
// canonical member order — each receipt is staged in its sender's slot
// and a fold cursor advances over the contiguous staged prefix, so
// compute overlaps with stragglers' network time while the float
// combine sequence stays exactly the in-order one.
//
//kylix:hotpath
func (c *Config) scatterLayer(i int, round uint32, cur []float32, s *scratch, g *genBufs, tr *obs.Tracer) (acc []float32, err error) {
	m := c.mach
	w := m.opts.Width
	ls := &c.layers[i]
	layer := i + 1
	sp := tr.Begin(comm.KindReduce, layer)
	sp.Peers = len(ls.group)
	defer func() { sp.Err = err; tr.End(&sp) }()
	tag := m.tag(comm.KindReduce, layer, round)

	for t, member := range ls.group {
		p := m.encode(&g.scatter[i][t], cur[int(ls.outOffsets[t])*w:int(ls.outOffsets[t+1])*w])
		n := int64(p.WireSize())
		sp.BytesOut += n
		tr.CountValueBytes(int64(comm.RawWireSize(p)), n)
		if err := m.ep.Send(member, tag, p); err != nil {
			return nil, err
		}
	}

	acc = g.acc[i]
	tr.CountCombineShards(m.pool.Fill(acc, m.opts.Reducer.Identity()))

	vals, staged := s.vals[:len(ls.group)], s.staged[:len(ls.group)]
	for t := range staged {
		staged[t] = false
	}
	folded := 0
	for received := 0; received < len(ls.group); {
		from, p, err := m.ep.RecvGroup(s.groups[i], tag)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d reduce layer %d recv: %w", m.Rank(), layer, err)
		}
		t := memberIndex(ls.group, from)
		if t < 0 {
			return nil, fmt.Errorf("core: rank %d reduce layer %d: piece from %d outside group", m.Rank(), layer, from)
		}
		if staged[t] {
			continue // duplicate delivery (chaotic transport)
		}
		// A quantized piece lands in its (layer, member) buffer; the staged
		// fold below consumes it before this layer returns, so one landing
		// buffer serves every generation.
		v, err := m.decode(p, len(ls.outMaps[t])*w, s.landing(i, t))
		if err != nil {
			return nil, fmt.Errorf("core: rank %d reduce layer %d: piece from %d: %w", m.Rank(), layer, from, err)
		}
		sp.BytesIn += int64(p.WireSize())
		vals[t], staged[t] = v, true
		received++
		for folded < len(ls.group) && staged[folded] {
			// Each staged piece is folded by the sharded kernel: its map is
			// injective into the union, so shards touch disjoint rows and
			// the per-row fold order — piece by piece, in member order —
			// is exactly the serial one.
			tr.CountCombineShards(m.pool.CombineInto(m.opts.Reducer, acc, ls.outMaps[folded], vals[folded], w))
			folded++
		}
	}
	return acc, nil
}

// gatherUp runs the upward allgather from fully reduced bottom values.
// cur must align with the bottom out-union. Buffers come from the given
// arena generation; the returned slice is g.next[0].
//
//kylix:hotpath
func (c *Config) gatherUp(cur []float32, round uint32, s *scratch, g *genBufs) (res []float32, err error) {
	m := c.mach
	tr := m.opts.Tracer
	outer := tr.Begin(comm.KindGather, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()

	// Bottom turnaround: look the in-union's values up in the reduced
	// out-union (v_in^l := v_out^l restricted to the requested indices).
	// Indices nobody contributed gather the reducer's identity (0 for
	// sum, +Inf for min, ...), so downstream folds remain neutral.
	inVals := g.inVals
	tr.CountCombineShards(m.pool.GatherInto(inVals, c.bottomMap, cur, m.opts.Width, m.opts.Reducer.Identity()))

	// Upward allgather, layer l..1.
	for i := len(c.layers) - 1; i >= 0; i-- {
		next, err := c.gatherLayer(i, round, inVals, s, g, tr)
		if err != nil {
			return nil, err
		}
		inVals = next
	}
	return inVals, nil
}

// gatherLayer runs one layer of the upward allgather: extract and
// return to each member the values for the in-piece it sent down during
// configuration (the g maps), all sends issued before any receive, then
// copy received segments into place in arrival order — segments are
// disjoint, so there is no ordering constraint at all.
//
//kylix:hotpath
func (c *Config) gatherLayer(i int, round uint32, inVals []float32, s *scratch, g *genBufs, tr *obs.Tracer) (next []float32, err error) {
	m := c.mach
	w := m.opts.Width
	ls := &c.layers[i]
	layer := i + 1
	sp := tr.Begin(comm.KindGather, layer)
	sp.Peers = len(ls.group)
	defer func() { sp.Err = err; tr.End(&sp) }()
	tag := m.tag(comm.KindGather, layer, round)

	for t, member := range ls.group {
		v := &g.gather[i][t]
		tr.CountCombineShards(m.pool.GatherInto(v.raw.Vals, ls.inMaps[t], inVals, w, 0))
		p := m.encode(v, v.raw.Vals)
		n := int64(p.WireSize())
		sp.BytesOut += n
		tr.CountValueBytes(int64(comm.RawWireSize(p)), n)
		if err := m.ep.Send(member, tag, p); err != nil {
			return nil, err
		}
	}

	next = g.next[i]
	seen := s.staged[:len(ls.group)]
	for t := range seen {
		seen[t] = false
	}
	for received := 0; received < len(ls.group); {
		from, p, err := m.ep.RecvGroup(s.groups[i], tag)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d gather layer %d recv: %w", m.Rank(), layer, err)
		}
		t := memberIndex(ls.group, from)
		if t < 0 {
			return nil, fmt.Errorf("core: rank %d gather layer %d: piece from %d outside group", m.Rank(), layer, from)
		}
		if seen[t] {
			continue // duplicate delivery
		}
		// Gather segments are disjoint, so a quantized piece dequantizes
		// straight into place and the copy below is a no-op.
		seg := next[int(ls.inOffsets[t])*w : int(ls.inOffsets[t+1])*w]
		v, err := m.decode(p, len(seg), seg)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d gather layer %d: segment from %d: %w", m.Rank(), layer, from, err)
		}
		sp.BytesIn += int64(p.WireSize())
		copy(seg, v)
		seen[t] = true
		received++
	}
	return next, nil
}

// encode returns the payload that ships vals through the piece's send
// state v: the raw Floats header pointed at vals (zero-copy) or, when
// quantizing, v's QVals refilled from vals with its error-feedback
// residual folded in. encode and decode are the only codec-specific
// code on the value path.
//
//kylix:hotpath
func (m *Machine) encode(v *valueSend, vals []float32) comm.Payload {
	if m.opts.Quant == sparse.QuantOff {
		v.raw.Vals = vals
		return &v.raw
	}
	sparse.Quantize(m.opts.Quant, v.q.Data, vals, v.res)
	return &v.q
}

// decode checks a received value piece — payload type, quantization
// mode and a count of n values — and returns its values: a raw piece's
// own slice (zero-copy), or a quantized piece dequantized into dst
// (len n).
//
//kylix:hotpath
func (m *Machine) decode(p comm.Payload, n int, dst []float32) ([]float32, error) {
	quant := m.opts.Quant
	if quant == sparse.QuantOff {
		f, ok := p.(*comm.Floats)
		if !ok {
			return nil, fmt.Errorf("unexpected payload %T", p)
		}
		if len(f.Vals) != n {
			return nil, fmt.Errorf("%d values, want %d", len(f.Vals), n)
		}
		return f.Vals, nil
	}
	q, ok := p.(*comm.QVals)
	if !ok || q.Mode != quant {
		return nil, fmt.Errorf("unexpected payload %T (quantization %v)", p, quant)
	}
	if q.N != n {
		return nil, fmt.Errorf("%d values, want %d", q.N, n)
	}
	sparse.Dequantize(quant, dst, q.Data)
	return dst, nil
}

// ConfigureReduce fuses configuration and reduction in a single downward
// pass plus the upward allgather, halving message count for workloads
// whose in/out sets change on every call (minibatch SGD, Gibbs sampling;
// §III: "it is more efficient to do configuration and reduction
// concurrently with combined network messages"). It returns the
// resulting Config — reusable by later plain Reduce calls — together
// with the reduced in-values (arena-owned, like Reduce results).
func (m *Machine) ConfigureReduce(inSet, outSet sparse.Set, outVals []float32) (cfgOut *Config, res []float32, err error) {
	if !inSet.IsSorted() || !outSet.IsSorted() {
		return nil, nil, fmt.Errorf("core: ConfigureReduce requires sorted, deduplicated Sets")
	}
	w := m.opts.Width
	if len(outVals) != len(outSet)*w {
		return nil, nil, fmt.Errorf("core: rank %d: ConfigureReduce got %d values, want %d",
			m.Rank(), len(outVals), len(outSet)*w)
	}
	round := m.nextRound()
	cfg := m.newConfig()
	defer m.pool.End() // join any pass-scoped combine workers
	tr := m.opts.Tracer
	tr.CountRound()
	outer := tr.Begin(comm.KindConfigReduce, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()

	cur, _, err := cfg.configure(comm.KindConfigReduce, round, false, inSet, outSet, outVals)
	if err != nil {
		return nil, nil, err
	}
	s := cfg.ensureScratch()
	g := cfg.flip(s)
	tr.CountArenaFlip()
	inVals, err := cfg.gatherUp(cur, round, s, g)
	if err != nil {
		return nil, nil, err
	}
	return cfg, inVals, nil
}
