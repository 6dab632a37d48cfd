package core

import (
	"fmt"

	"kylix/internal/comm"
	"kylix/internal/obs"
	"kylix/internal/sparse"
)

// unchangedPiece is the shared both-directions-unchanged marker of a
// plain (unfused) pass. It is immutable (its lazily memoized encoding is
// a sync.Once), so every rank sends the same two-byte payload without
// allocating.
var unchangedPiece = &comm.ConfigPiece{InSame: true, OutSame: true}

// Configure runs the downward configuration pass (§III-A) for the given
// top-level index sets, which must be sorted key Sets (use
// sparse.NewSet to build them from raw indices). Every live machine must
// call Configure collectively with its own sets.
//
// At each layer the machine partitions its current in/out sets into
// equal hash sub-ranges, ships piece t to the group member owning
// sub-range t (its own piece included, through the transport, so traffic
// accounting matches the paper's Figure 5 convention), merges the pieces
// it receives into per-layer unions, and keeps the position maps that
// let reduction run in constant time per element.
//
// The pass allocates only what the returned Config retains: transient
// state (receive staging, union work arenas, split offsets) lives in a
// machine-level scratch reused across configurations, and per-layer
// retained slices are carved from single blocks.
func (m *Machine) Configure(inSet, outSet sparse.Set) (cfgOut *Config, err error) {
	if !inSet.IsSorted() || !outSet.IsSorted() {
		return nil, fmt.Errorf("core: Configure requires sorted, deduplicated Sets")
	}
	round := m.nextRound()
	cfg := m.newConfig()
	tr := m.opts.Tracer
	outer := tr.Begin(comm.KindConfig, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()

	if _, _, err := cfg.configure(comm.KindConfig, round, false, inSet, outSet, nil); err != nil {
		return nil, err
	}
	return cfg, nil
}

// newConfig returns an empty Config with one zero layer per butterfly
// layer, ready for its first configuration pass.
func (m *Machine) newConfig() *Config {
	return &Config{mach: m, layers: make([]layerState, m.bf.Layers())}
}

// prevLayer is one layer's routing state from the previous
// configuration pass over a Config, together with the sets the layer
// split then: what an incremental pass compares against and may keep.
type prevLayer struct {
	layerState
	in, out sparse.Set
}

// configure runs the downward configuration pass over every layer and
// rebinds c to inSet/outSet. It is the one layer loop behind Configure,
// ConfigureReduce and Reconfigure:
//
//   - incremental passes (Reconfigure) start from the routing state c
//     already holds: pieces identical to the previous pass's travel as
//     unchanged markers, and a layer that receives only markers keeps its
//     unions and maps;
//   - kind KindConfigReduce fuses the reduction (§III): vals (Width per
//     key of outSet) ride the out-pieces and are combined layer by
//     layer, and acc is the bottom out-union's reduced values.
//
// kept reports that every layer kept both its send split and its
// unions, so the routing state is exactly the previous pass's.
func (c *Config) configure(kind comm.Kind, round uint32, incremental bool, inSet, outSet sparse.Set, vals []float32) (acc []float32, kept bool, err error) {
	m := c.mach
	m.ensureCfgScratch()
	tr := m.opts.Tracer
	prevIn, prevOut := c.inSet, c.outSet
	inCur, outCur := inSet, outSet
	c.inSet, c.outSet = inSet, outSet
	kept = incremental
	acc = vals
	for i := range c.layers {
		ls := &c.layers[i]
		// Snapshot the previous layer state: ls is overwritten below, but
		// the comparisons and marker rebuilds need the old slices.
		var old *prevLayer
		if incremental {
			old = &prevLayer{layerState: *ls, in: prevIn, out: prevOut}
			prevIn, prevOut = ls.inUnion, ls.outUnion
		}
		sp := tr.Begin(kind, i+1)
		var layerKept bool
		acc, layerKept, err = c.configureLayer(i, round, kind, old, inCur, outCur, acc, &sp)
		sp.Err = err
		tr.End(&sp)
		if err != nil {
			return nil, false, fmt.Errorf("core: rank %d %v layer %d: %w", m.Rank(), kind, i+1, err)
		}
		kept = kept && layerKept
		inCur, outCur = ls.inUnion, ls.outUnion
	}
	// The bottom turnaround depends only on the bottom unions: rebuild it
	// unless the last layer ended where it was. (When it kept them,
	// inCur/outCur alias the old unions, so the map is still exact.)
	if !incremental || !inCur.Equal(prevIn) || !outCur.Equal(prevOut) {
		if err := c.finishBottom(inCur, outCur); err != nil {
			return nil, false, err
		}
	}
	return acc, kept, nil
}

// configureLayer executes layer i+1 of the downward pass, rewriting
// c.layers[i]. old is the layer's previous state (nil for a fresh
// Config). When kind is KindConfigReduce the pass is fused with
// reduction: out-pieces carry their slice of vals, and acc is the
// combined layer result. kept reports that the layer reused both its
// send split and its unions/maps. The caller's span sp accumulates the
// layer's wire bytes (sized only when the tracer is live: sizing a
// configuration payload runs the index codec) and group size.
func (c *Config) configureLayer(i int, round uint32, kind comm.Kind, old *prevLayer, inCur, outCur sparse.Set, vals []float32, sp *obs.Span) (acc []float32, kept bool, err error) {
	m := c.mach
	cs := m.cfg
	ls := &c.layers[i]
	layer := i + 1
	d := m.bf.Degree(layer)
	group := cs.groupOf[i]
	parent := m.bf.RangeAt(m.Rank(), i)
	sp.Peers = d
	tag := m.tag(kind, layer, round)
	fused := kind == comm.KindConfigReduce
	w := m.opts.Width
	tr := m.opts.Tracer

	// Whole-set fast path: when this layer's input sets are the previous
	// ones (O(1) when they alias, which is what an unchanged upper layer
	// hands down), every piece is trivially identical — skip the split
	// and the per-piece comparisons.
	wholeSame := old != nil && inCur.Equal(old.in) && outCur.Equal(old.out)
	var inOffs, outOffs []int32
	if wholeSame {
		inOffs, outOffs = old.inOffsets, old.outOffsets
	} else {
		// Split staged in machine scratch; it is retained (copied) below
		// only if it differs from the previous one.
		inOffs = sparse.SplitOffsetsInto(cs.offs[:d+1:d+1], inCur, parent, d)
		outOffs = sparse.SplitOffsetsInto(cs.offs[d+1:2*(d+1)], outCur, parent, d)
	}

	// Send one piece per member: a direction identical to the previous
	// pass's piece becomes a marker. The payload headers cannot come from
	// machine scratch — transports may retain the pointers past this call
	// (fault-injecting fabrics re-Send them) — but one block covers the
	// whole group.
	sentSame := true
	var hdrs []comm.ConfigPiece
	for t, member := range group {
		inSame, outSame := wholeSame, wholeSame
		if old != nil && !wholeSame {
			inSame = sparse.Piece(inCur, inOffs, t).Equal(sparse.Piece(old.in, old.inOffsets, t))
			outSame = sparse.Piece(outCur, outOffs, t).Equal(sparse.Piece(old.out, old.outOffsets, t))
		}
		sentSame = sentSame && inSame && outSame
		p := unchangedPiece
		if !inSame || !outSame || fused {
			if hdrs == nil {
				hdrs = make([]comm.ConfigPiece, d)
			}
			p = &hdrs[t]
			p.InSame, p.OutSame = inSame, outSame
			if !inSame {
				p.In = sparse.Piece(inCur, inOffs, t)
			}
			if !outSame {
				p.Out = sparse.Piece(outCur, outOffs, t)
			}
			if fused {
				p.HasVals = true
				p.Vals = vals[int(outOffs[t])*w : int(outOffs[t+1])*w]
			}
		}
		tr.Sent(sp, p)
		if err := m.ep.Send(member, tag, p); err != nil {
			return nil, false, err
		}
	}

	// Receive one piece per member, in arrival order, staged in the
	// machine scratch.
	got, seen := cs.got[:d], cs.seen[:d]
	for t := range seen {
		seen[t] = false
	}
	recvSame := old != nil
	myRange := parent.Sub(d, m.bf.Digit(m.Rank(), layer))
	for received := 0; received < d; {
		from, p, err := m.ep.RecvGroup(cs.groups[i], tag)
		if err != nil {
			return nil, false, fmt.Errorf("recv: %w", err)
		}
		t := memberIndex(group, from)
		if t < 0 {
			return nil, false, fmt.Errorf("piece from %d outside group", from)
		}
		if seen[t] {
			continue // duplicate delivery
		}
		q, ok := p.(*comm.ConfigPiece)
		if !ok {
			return nil, false, fmt.Errorf("unexpected payload %T from %d", p, from)
		}
		if (q.InSame || q.OutSame) && old == nil {
			return nil, false, fmt.Errorf("unchanged marker from %d but no previous pass", from)
		}
		if q.HasVals != fused {
			return nil, false, fmt.Errorf("piece from %d: carries values %v in a fused=%v pass", from, q.HasVals, fused)
		}
		nOut := len(q.Out)
		if q.OutSame {
			nOut = len(old.outMaps[t])
		} else if err := sparse.CheckInRange(q.Out, myRange); err != nil {
			return nil, false, fmt.Errorf("piece from %d: %w", from, err)
		}
		if fused && len(q.Vals) != nOut*w {
			return nil, false, fmt.Errorf("piece from %d: %d values, want %d", from, len(q.Vals), nOut*w)
		}
		tr.Received(sp, p)
		recvSame = recvSame && q.InSame && q.OutSame
		got[t], seen[t] = q, true
		received++
	}

	// Send side: keep the old split when nothing we ship changed,
	// otherwise retain a copy of the staged offsets (both from one block).
	ls.group = group
	if sentSame {
		ls.inOffsets, ls.outOffsets = old.inOffsets, old.outOffsets
	} else {
		offs := make([]int32, 2*(d+1))
		copy(offs, inOffs)
		copy(offs[d+1:], outOffs)
		ls.inOffsets, ls.outOffsets = offs[:d+1:d+1], offs[d+1:]
	}

	// Receive side: unions and maps depend only on the received pieces,
	// so all-markers means they are exactly the old ones. Otherwise each
	// marker's piece is rebuilt from the old union through its position
	// map — exact, since maps[t][i] is the union position of piece t's
	// i-th key — and the layer re-merges.
	if recvSame {
		ls.inUnion, ls.outUnion = old.inUnion, old.outUnion
		ls.inMaps, ls.outMaps = old.inMaps, old.outMaps
	} else {
		inP, outP := cs.inP[:d], cs.outP[:d]
		cs.keys = cs.keys[:0]
		for t, q := range got {
			inP[t], outP[t] = q.In, q.Out
			if q.InSame {
				inP[t] = cs.rebuild(old.inUnion, old.inMaps[t])
			}
			if q.OutSame {
				outP[t] = cs.rebuild(old.outUnion, old.outMaps[t])
			}
		}
		m.buildUnions(ls, inP, outP)
		for t := range inP {
			inP[t], outP[t] = nil, nil
		}
	}
	if old != nil {
		tr.CountReconfigureLayer(recvSame)
	}

	if fused {
		// The fused accumulator is freshly allocated, not arena-carved:
		// it becomes the next layer's vals, whose segments outlive this
		// call inside retained ConfigPiece payloads.
		acc = make([]float32, len(ls.outUnion)*w)
		if id := m.opts.Reducer.Identity(); id != 0 {
			m.pool.Fill(acc, id)
		}
		for t, q := range got {
			tr.CountCombineShards(m.pool.CombineInto(m.opts.Reducer, acc, ls.outMaps[t], q.Vals, w))
		}
	}
	// Drop staged references so the scratch does not pin received
	// payload memory past the pass.
	for t := range got {
		got[t] = nil
	}
	return acc, recvSame && sentSame, nil
}

// buildUnions computes a layer's in/out unions and position maps from
// the received pieces. The unions are merged in the machine's reusable
// arena and cloned out; the 2d position maps are carved from a single
// data block, so the whole step costs four retained allocations.
func (m *Machine) buildUnions(ls *layerState, inPieces, outPieces []sparse.Set) {
	d := len(inPieces)
	total := 0
	for t := 0; t < d; t++ {
		total += len(inPieces[t]) + len(outPieces[t])
	}
	data := make([]int32, total)
	hdr := make([][]int32, 2*d)
	ls.inMaps = hdr[:d:d]
	ls.outMaps = hdr[d:]
	off := 0
	for t, p := range inPieces {
		ls.inMaps[t] = data[off : off+len(p) : off+len(p)]
		off += len(p)
	}
	for t, p := range outPieces {
		ls.outMaps[t] = data[off : off+len(p) : off+len(p)]
		off += len(p)
	}
	uni := &m.cfg.uni
	ls.inUnion = uni.UnionMaps(inPieces, ls.inMaps).Clone()
	ls.outUnion = uni.UnionMaps(outPieces, ls.outMaps).Clone()
}

// finishBottom builds the turnaround map from the bottom in-union into
// the bottom out-union and enforces Strict coverage.
func (cfg *Config) finishBottom(inBottom, outBottom sparse.Set) error {
	var missing int
	cfg.bottomMap, missing = sparse.PartialPositionMap(inBottom, outBottom)
	cfg.missing = missing
	if cfg.mach.opts.Strict && missing > 0 {
		return fmt.Errorf("core: rank %d: %d requested in-indices have no contributor (strict mode)",
			cfg.mach.Rank(), missing)
	}
	return nil
}

// bottomIn returns the machine's bottom-layer in-union (the top set when
// the topology has zero effective layers, which cannot happen since
// topologies always have >= 1 layer).
func (cfg *Config) bottomIn() sparse.Set {
	return cfg.layers[len(cfg.layers)-1].inUnion
}
