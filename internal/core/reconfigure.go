package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"kylix/internal/comm"
	"kylix/internal/sparse"
)

// Reconfigure rebinds the Config to new top-level index sets, reusing
// every piece of routing state the change does not touch. It is the
// incremental counterpart of Machine.Configure for workloads whose sets
// evolve slowly (a few vertices enter or leave between rounds): each
// layer ships a two-byte unchanged marker instead of a re-encoded piece
// for every neighbour whose piece is identical to the previous pass,
// and a layer whose received pieces are all unchanged keeps its unions
// and position maps without re-merging anything. When nothing changed
// at all, the reduction scratch arena survives too, so the next Reduce
// is as warm as before the call.
//
// Reconfigure is collective and SPMD like Configure: every live machine
// must call it in the same round order (possibly with unchanged sets).
// Markers are valid from the first Reconfigure on: a receiver rebuilds
// a marked piece from the union and position map the previous pass left
// behind, whichever entry point built the Config.
//
// On error the Config is poisoned: some layers may hold new state and
// others old, so it must be discarded (along with the collective round,
// which has diverged anyway).
func (c *Config) Reconfigure(inSet, outSet sparse.Set) (err error) {
	m := c.mach
	if c.poisoned {
		return &PoisonedError{Rank: m.Rank()}
	}
	// A set equal to the currently configured one is sorted by
	// construction; the warm unchanged-sets path gets away with two O(1)
	// aliasing checks instead of full validation scans. Failing here is
	// safe — nothing has been exchanged or overwritten yet, so the
	// Config stays usable; only errors past this point poison it.
	if !(inSet.Equal(c.inSet) || inSet.IsSorted()) || !(outSet.Equal(c.outSet) || outSet.IsSorted()) {
		return fmt.Errorf("core: Reconfigure requires sorted, deduplicated Sets")
	}
	defer func() {
		if err != nil {
			c.poisoned = true
		}
	}()
	round := m.nextRound()
	tr := m.opts.Tracer
	outer := tr.Begin(comm.KindConfig, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()

	_, kept, err := c.configure(comm.KindConfig, round, true, inSet, outSet, nil)
	if err != nil {
		return err
	}
	if !kept {
		// Buffer sizes may have changed somewhere; rebuild the reduction
		// arena lazily on the next Reduce.
		c.scratch = nil
	}
	return nil
}

// Digest returns a 64-bit FNV-1a fingerprint of every piece of routing
// state the Config holds: top sets, per-layer groups, split offsets,
// unions, position maps, and the bottom turnaround. Two Configs with
// equal digests route identically, so a Reconfigure pass can be checked
// bit-for-bit against a fresh Configure of the same sets — the chaos
// suite uses this to prove fault-injected reconfiguration converges to
// exactly the fault-free state.
func (c *Config) Digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	set := func(s sparse.Set) {
		u64(uint64(len(s)))
		for _, k := range s {
			u64(uint64(k))
		}
	}
	i32s := func(m []int32) {
		u64(uint64(len(m)))
		for _, v := range m {
			u64(uint64(uint32(v)))
		}
	}
	set(c.inSet)
	set(c.outSet)
	for i := range c.layers {
		ls := &c.layers[i]
		u64(uint64(len(ls.group)))
		for _, r := range ls.group {
			u64(uint64(r))
		}
		i32s(ls.inOffsets)
		i32s(ls.outOffsets)
		set(ls.inUnion)
		set(ls.outUnion)
		for _, m := range ls.inMaps {
			i32s(m)
		}
		for _, m := range ls.outMaps {
			i32s(m)
		}
	}
	i32s(c.bottomMap)
	u64(uint64(c.missing))
	return h.Sum64()
}
