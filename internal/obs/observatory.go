package obs

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"kylix/internal/comm"
)

// DefaultSpanCapacity is the per-node span ring size: enough for
// thousands of collective rounds before the ring wraps (overwrites are
// counted in the spans_dropped metric, never allocated around).
const DefaultSpanCapacity = 4096

// maxLayerMetric caps the per-layer byte counter index; deeper layers
// fold into the last bucket (real topologies have <= 8 layers).
const maxLayerMetric = 16

// Observatory is one cluster's observability state: a per-node span
// Tracer, the shared metrics Registry, and the exporters. All methods
// are nil-safe so callers thread a possibly-nil *Observatory without
// branching.
type Observatory struct {
	epoch   time.Time
	reg     *Registry
	tracers []*Tracer
	trans   *TransportMetrics

	rounds        *Counter
	arenaFlips    *Counter
	combineShards *Counter
	spansDropped  *Counter
	recvMsgs      *Counter // every matched receive, control plane included
	recvTimeouts  *Counter
	recvWait      *Histogram
	groupWait     *Histogram
	faultCounts   map[string]*Counter

	// Incremental-reconfigure layer outcomes (fast = the layer reused
	// its previous unions and maps; full = it recomputed them).
	reconfigFastLayer *Counter
	reconfigFullLayer *Counter

	// Byte counters, all derived from layer spans as they are recorded
	// (Tracer.record), so they agree with the spans to the byte:
	// recvBytes is the BytesIn that collective-pass layers consumed;
	// the config pair is the wire bytes of configuration pieces (fused
	// values included) vs. what the raw 8-byte-per-key format would have
	// cost; the values pair is the same for reduce/gather value blocks
	// vs. raw 4-byte float32s. With quantization off the values pair
	// advances in lockstep; its ratio is the wire-level value
	// compression.
	recvBytes      *Counter
	configBytesEnc *Counter
	configBytesRaw *Counter
	valuesBytesEnc *Counter
	valuesBytesRaw *Counter

	layerBytes [8][maxLayerMetric + 1]atomic.Pointer[Counter]
}

// FaultEventNames are the faultnet event labels the Observatory
// pre-registers counters for.
var FaultEventNames = []string{"drop", "duplicate", "delay", "reorder", "partition", "kill"}

// New creates an Observatory for an m-machine cluster with the given
// span ring capacity per node (<= 0 uses DefaultSpanCapacity).
func New(m, spanCap int) *Observatory {
	if spanCap <= 0 {
		spanCap = DefaultSpanCapacity
	}
	reg := NewRegistry()
	o := &Observatory{
		epoch:         time.Now(),
		reg:           reg,
		tracers:       make([]*Tracer, m),
		rounds:        reg.Counter("reduce_rounds"),
		arenaFlips:    reg.Counter("arena_flips"),
		combineShards: reg.Counter("combine_shards"),
		spansDropped:  reg.Counter("spans_dropped"),
		recvMsgs:      reg.Counter("recv_msgs"),
		recvBytes:     reg.Counter("recv_bytes"),
		recvTimeouts:  reg.Counter("recv_timeouts"),
		recvWait:      reg.Histogram("recv_wait_ns"),
		groupWait:     reg.Histogram("recv_group_wait_ns"),
		faultCounts:   make(map[string]*Counter, len(FaultEventNames)),
	}
	o.configBytesEnc = reg.Counter("config_bytes_encoded")
	o.configBytesRaw = reg.Counter("config_bytes_raw")
	o.valuesBytesEnc = reg.Counter("values_bytes_encoded")
	o.valuesBytesRaw = reg.Counter("values_bytes_raw")
	o.reconfigFastLayer = reg.Counter("reconfigure_fast_layers")
	o.reconfigFullLayer = reg.Counter("reconfigure_full_layers")
	o.trans = NewTransportMetrics(reg)
	for _, ev := range FaultEventNames {
		o.faultCounts[ev] = reg.Counter("fault_" + ev)
	}
	for i := range o.tracers {
		o.tracers[i] = &Tracer{o: o, node: i, ring: make([]Span, spanCap)}
	}
	return o
}

// now is nanoseconds since the epoch (monotonic).
func (o *Observatory) now() int64 { return int64(time.Since(o.epoch)) }

// Machines returns the cluster size the Observatory was built for.
func (o *Observatory) Machines() int {
	if o == nil {
		return 0
	}
	return len(o.tracers)
}

// Node returns rank's span tracer (nil on a nil Observatory or an
// out-of-range rank, which instruments to a no-op).
func (o *Observatory) Node(rank int) *Tracer {
	if o == nil || rank < 0 || rank >= len(o.tracers) {
		return nil
	}
	return o.tracers[rank]
}

// Registry returns the metrics registry (nil on a nil Observatory).
func (o *Observatory) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Transport returns the transport metric set, shared by every node's
// TCP stream machinery.
func (o *Observatory) Transport() *TransportMetrics {
	if o == nil {
		return nil
	}
	return o.trans
}

// layerCounter returns the per-(kind, layer) byte counter, created
// lazily on first traffic so the registry only lists layers that
// exist. The hot path is one atomic pointer load.
func (o *Observatory) layerCounter(kind comm.Kind, layer int) *Counter {
	k := int(kind)
	if k < 0 || k >= len(o.layerBytes) {
		k = 0
	}
	if layer < 0 || layer > maxLayerMetric {
		layer = maxLayerMetric
	}
	if c := o.layerBytes[k][layer].Load(); c != nil {
		return c
	}
	return o.makeLayerCounter(k, layer)
}

// makeLayerCounter is layerCounter's slow path: it registers the
// counter on the first span of a (kind, layer) pair and is never taken
// again for it, so the name formatting and registry insertion are
// one-time costs.
//
//kylix:coldpath
func (o *Observatory) makeLayerCounter(k, layer int) *Counter {
	c := o.reg.Counter(fmt.Sprintf("bytes_%s_L%d", comm.Kind(k), layer))
	o.layerBytes[k][layer].CompareAndSwap(nil, c)
	return o.layerBytes[k][layer].Load()
}

// RecvObserver returns rank's receive hook for transports (nil on a
// nil Observatory, which transports treat as "no observation").
func (o *Observatory) RecvObserver(rank int) comm.RecvObserver {
	if o == nil {
		return nil
	}
	return &recvObserver{o: o, tr: o.Node(rank)}
}

// recvObserver implements comm.RecvObserver for one node: the message
// counter, wait-time histograms, and error spans for timed-out receives
// (the TimeoutError propagation contract). Received bytes come from
// spans, not from here.
type recvObserver struct {
	o  *Observatory
	tr *Tracer
}

// ObserveRecv records one delivery: counters and wait histogram on
// success, timeout accounting and an error span on failure.
//
//kylix:hotpath
func (r *recvObserver) ObserveRecv(from int, tag comm.Tag, wait time.Duration, err error) {
	o := r.o
	if err == nil {
		o.recvMsgs.Inc()
		if wait > 0 {
			o.recvWait.Observe(int64(wait))
		}
		return
	}
	if errors.Is(err, comm.ErrTimeout) {
		o.recvTimeouts.Inc()
		r.tr.RecordError(tag.Kind(), tag.Layer(), wait, err)
	}
}

// ObserveRecvGroup records the wait of one group receive.
//
//kylix:hotpath
func (r *recvObserver) ObserveRecvGroup(tag comm.Tag, wait time.Duration) {
	if wait > 0 {
		r.o.groupWait.Observe(int64(wait))
	}
}

// FaultObserver returns the hook the fault fabric calls once per
// injected fault: it bumps the per-event counter and drops an instant
// event on the faulty rank's timeline.
func (o *Observatory) FaultObserver() func(rank int, event string) {
	if o == nil {
		return nil
	}
	return func(rank int, event string) {
		if c := o.faultCounts[event]; c != nil {
			c.Inc()
		} else {
			o.reg.Counter("fault_" + event).Inc()
		}
		o.Node(rank).Instant(event)
	}
}

// Spans returns every buffered span across all nodes, sorted by start
// time. The result is a copy; tracing continues unaffected.
func (o *Observatory) Spans() []Span {
	if o == nil {
		return nil
	}
	var out []Span
	for _, t := range o.tracers {
		out = t.spans(out)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}
