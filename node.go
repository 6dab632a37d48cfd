package kylix

import (
	"fmt"
	"io"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/sparse"
	"kylix/internal/tcpnet"
	"kylix/internal/topo"
)

// Node is one machine's handle on the allreduce. Methods are collective:
// every live machine must call the same sequence of Configure /
// Reduce / ConfigureReduce / TreeAllreduce operations.
type Node struct {
	mach     *core.Machine
	ep       comm.Endpoint // logical (replication-wrapped) endpoint
	bf       *topo.Butterfly
	cfg      config
	base     uint32
	physRank int
	width    int
	closer   io.Closer
	// tn is the node's raw TCP transport when built by ListenNode —
	// CloseStream purges through it. Nil for in-process cluster nodes.
	tn *tcpnet.Node
	// derived holds the networks derived with Stream, so tag accounting
	// covers them across repeated Cluster.Run calls.
	derived []*Node
}

// newNode builds one machine's handle. physRank is the machine's
// position in the physical cluster — distinct from ep.Rank() when ep is
// a membership view (dense member rank) or a replication wrapper
// (logical rank); observability is keyed by the physical identity.
func newNode(ep comm.Endpoint, bf *topo.Butterfly, cfg config, roundBase uint32, physRank int) (*Node, error) {
	lep, err := wrapReplication(ep, cfg)
	if err != nil {
		return nil, err
	}
	mach, err := core.NewMachine(lep, bf, machineOptions(cfg, roundBase, physRank))
	if err != nil {
		return nil, err
	}
	return &Node{
		mach: mach, ep: lep, bf: bf, cfg: cfg, base: roundBase,
		physRank: physRank, width: cfg.width,
	}, nil
}

// machineOptions builds the options of a node's core Machine: cfg's
// data-plane settings, the tag round base and the tracer of the
// machine's physical rank.
func machineOptions(cfg config, roundBase uint32, physRank int) core.Options {
	return core.Options{
		Width:          cfg.width,
		Reducer:        cfg.reducer,
		Strict:         cfg.strict,
		Stream:         cfg.stream,
		RoundBase:      roundBase,
		Quant:          cfg.quant,
		Tracer:         cfg.obsv.Node(physRank),
		CombineWorkers: cfg.combineWorkers,
	}
}

// Stream derives a second, independent allreduce network over the same
// endpoint: its message tags live in the given stream's namespace, so
// its collectives interleave freely with the node's own and with other
// streams'. This is how multi-network programs compose — e.g. an
// OR-reduce sketch network plus a width-1 sum network for a global
// convergence counter — and it is the cross-process counterpart of
// Cluster.OpenStream. Every machine must derive the same ids with the
// same options, and the id must be neither 0 (the cluster's own
// namespace) nor the node's own stream. Options may override WithWidth, WithReducer, WithStrict,
// WithQuantization and WithCombineWorkers; transport and replication
// are inherited.
//
// The derived network starts at the node's tag round base and its
// rounds count as the node's, so repeated Cluster.Run calls that derive
// the same id never reuse its tags. An id must be derived at most once
// per node. On a Cluster node, ids share the space OpenStream hands out
// (1, 2, ... in opening order): derive only ids that no open stream of
// the cluster uses.
func (n *Node) Stream(id uint16, opts ...Option) (*Node, error) {
	if id == 0 || comm.StreamID(id) == n.cfg.stream {
		return nil, fmt.Errorf("kylix: stream %d is the cluster's or the node's own namespace", id)
	}
	cfg := n.cfg
	for _, o := range opts {
		o(&cfg)
	}
	cfg.stream = comm.StreamID(id)
	mach, err := core.NewMachine(n.ep, n.bf, machineOptions(cfg, n.base, n.physRank))
	if err != nil {
		return nil, err
	}
	derived := &Node{
		mach: mach, ep: n.ep, bf: n.bf, cfg: cfg, base: n.base,
		physRank: n.physRank, width: cfg.width, tn: n.tn,
	}
	n.derived = append(n.derived, derived)
	return derived, nil
}

// roundsUsed reports the maximum tag rounds consumed by this node and
// its derived networks (Cluster.Run uses it to keep tag spaces fresh
// across runs).
func (n *Node) roundsUsed() uint32 {
	used := n.mach.RoundsUsed()
	for _, c := range n.derived {
		if u := c.roundsUsed(); u > used {
			used = u
		}
	}
	return used
}

// Rank is the node's logical rank (the rank its data partition is
// addressed by). Without replication it equals the physical rank.
func (n *Node) Rank() int { return n.mach.Rank() }

// PhysicalRank is the machine's position in the physical cluster.
func (n *Node) PhysicalRank() int { return n.physRank }

// Size is the logical cluster size the topology spans.
func (n *Node) Size() int { return n.mach.Topology().M() }

// Width is the number of float32 values carried per feature.
func (n *Node) Width() int { return n.width }

// Observability returns the Observatory wired into this node's cluster
// (or this process, for ListenNode). Nil without WithObservability.
func (n *Node) Observability() *Observatory { return n.cfg.obsv }

// Metrics returns the node's metrics registry. Nil without
// WithObservability.
func (n *Node) Metrics() *MetricsRegistry { return n.cfg.obsv.Registry() }

// Close releases a node created by ListenNode (no-op otherwise).
func (n *Node) Close() error {
	if n.closer != nil {
		return n.closer.Close()
	}
	return nil
}

// Reduction is a reusable routing configuration for fixed in/out index
// sets: configure once, reduce any number of value vectors (the
// PageRank pattern). Values are exchanged in the caller's original
// index order.
type Reduction struct {
	node    *Node
	cfg     *core.Config
	inPerm  []int32 // user in position -> key-ordered position
	outPerm []int32
	nIn     int
	nOut    int
}

// Configure runs the downward configuration pass for the given index
// sets. in lists the indices whose reduced values this node wants; out
// lists the indices it will contribute values for. in may contain
// duplicates (each position receives the value); out must not.
func (n *Node) Configure(in, out []int32) (*Reduction, error) {
	inSet, inPerm, outSet, outPerm, err := n.prepareSets(in, out)
	if err != nil {
		return nil, err
	}
	cfg, err := n.mach.Configure(inSet, outSet)
	if err != nil {
		return nil, err
	}
	return &Reduction{node: n, cfg: cfg, inPerm: inPerm, outPerm: outPerm, nIn: len(in), nOut: len(out)}, nil
}

// ConfigureReduce fuses configuration and reduction into one network
// pass — the efficient path when the index sets change on every call
// (minibatch training). It returns the reusable Reduction and the
// reduced values for in, in the caller's order.
func (n *Node) ConfigureReduce(in, out []int32, outVals []float32) (*Reduction, []float32, error) {
	inSet, inPerm, outSet, outPerm, err := n.prepareSets(in, out)
	if err != nil {
		return nil, nil, err
	}
	sorted, err := permuteOut(outVals, outPerm, len(outSet), n.width, len(out))
	if err != nil {
		return nil, nil, err
	}
	cfg, gathered, err := n.mach.ConfigureReduce(inSet, outSet, sorted)
	if err != nil {
		return nil, nil, err
	}
	red := &Reduction{node: n, cfg: cfg, inPerm: inPerm, outPerm: outPerm, nIn: len(in), nOut: len(out)}
	return red, permuteIn(gathered, inPerm, n.width), nil
}

// TreeAllreduce runs the tree-topology baseline (§II-A1) in one shot:
// slower and memory-hungry on sparse data (the root holds the dense
// union) but useful as an oracle and for the ablation benchmarks. It
// returns the reduced in-values in caller order and the largest
// intermediate union size this machine held.
func (n *Node) TreeAllreduce(in, out []int32, outVals []float32) ([]float32, int, error) {
	inSet, inPerm, outSet, outPerm, err := n.prepareSets(in, out)
	if err != nil {
		return nil, 0, err
	}
	sorted, err := permuteOut(outVals, outPerm, len(outSet), n.width, len(out))
	if err != nil {
		return nil, 0, err
	}
	gathered, maxUnion, err := n.mach.TreeAllreduce(inSet, outSet, sorted)
	if err != nil {
		return nil, 0, err
	}
	return permuteIn(gathered, inPerm, n.width), maxUnion, nil
}

func (n *Node) prepareSets(in, out []int32) (sparse.Set, []int32, sparse.Set, []int32, error) {
	inSet, inPerm, err := sparse.NewSet(in)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("kylix: in indices: %w", err)
	}
	outSet, outPerm, err := sparse.NewSet(out)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("kylix: out indices: %w", err)
	}
	if len(outSet) != len(out) {
		return nil, nil, nil, nil, fmt.Errorf("kylix: out indices contain duplicates (%d unique of %d)", len(outSet), len(out))
	}
	return inSet, inPerm, outSet, outPerm, nil
}

// Missing reports how many requested in-indices had no contributor in
// this node's bottom range (0 under WithStrict).
func (r *Reduction) Missing() int { return r.cfg.Missing() }

// Reduce pushes this node's contribution (one Width-sized row per out
// index, in the order passed to Configure) and returns the reduced
// values for the in indices, in their original order.
func (r *Reduction) Reduce(outVals []float32) ([]float32, error) {
	w := r.node.width
	sorted, err := permuteOut(outVals, r.outPerm, len(r.cfg.OutSet()), w, r.nOut)
	if err != nil {
		return nil, err
	}
	gathered, err := r.cfg.Reduce(sorted)
	if err != nil {
		return nil, err
	}
	return permuteIn(gathered, r.inPerm, w), nil
}

// Reconfigure rebinds the Reduction to new index sets incrementally,
// reusing the routing state the change does not touch: unchanged pieces
// cross the wire as two-byte markers and layers whose inputs did not
// move keep their unions and position maps. It is the cheap path when
// sets evolve slowly between reductions (a few indices enter or leave);
// when most indices change, a fresh Configure or ConfigureReduce costs
// the same and is simpler to reason about.
//
// Reconfigure is collective: every live node must call it in the same
// round order (with its own, possibly unchanged, sets). It is safe
// exactly where Reduce is — same cluster membership, same topology,
// same SPMD call sequence. On error the Reduction is poisoned and must
// be replaced via Configure; see Config.Reconfigure.
func (r *Reduction) Reconfigure(in, out []int32) error {
	n := r.node
	inSet, inPerm, outSet, outPerm, err := n.prepareSets(in, out)
	if err != nil {
		return err
	}
	if err := r.cfg.Reconfigure(inSet, outSet); err != nil {
		return err
	}
	r.inPerm, r.outPerm = inPerm, outPerm
	r.nIn, r.nOut = len(in), len(out)
	return nil
}

// ConfigDigest returns a 64-bit fingerprint of the Reduction's routing
// state (sets, groups, offsets, unions, position maps, bottom
// turnaround). Two nodes — or two runs — whose digests agree route
// identically; the chaos suite uses it to prove reconfiguration under
// faults converges to exactly the fault-free state.
func (r *Reduction) ConfigDigest() uint64 { return r.cfg.Digest() }

// permuteOut reorders caller-order values into key order.
func permuteOut(vals []float32, perm []int32, setLen, width, nOut int) ([]float32, error) {
	if len(vals) != nOut*width {
		return nil, fmt.Errorf("kylix: got %d values, want %d (%d out indices x width %d)", len(vals), nOut*width, nOut, width)
	}
	sorted := make([]float32, setLen*width)
	for p := 0; p < nOut; p++ {
		copy(sorted[int(perm[p])*width:(int(perm[p])+1)*width], vals[p*width:(p+1)*width])
	}
	return sorted, nil
}

// permuteIn reorders key-order gathered values into caller order.
func permuteIn(gathered []float32, perm []int32, width int) []float32 {
	out := make([]float32, len(perm)*width)
	for p := range perm {
		copy(out[p*width:(p+1)*width], gathered[int(perm[p])*width:(int(perm[p])+1)*width])
	}
	return out
}
