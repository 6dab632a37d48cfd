package obs

import (
	"sync"
	"time"

	"kylix/internal/comm"
)

// Span is one timed slice of protocol work on one machine: a whole
// config/reduce/gather pass (Layer 0) or a single communication layer
// within it (Layer >= 1). Instant fault events reuse the type with a
// non-empty Event and Start == End. Timestamps are nanoseconds since
// the Observatory's monotonic epoch, so spans from different nodes of
// one cluster share a timeline.
type Span struct {
	// Node is the machine the span ran on.
	Node int
	// Kind is the protocol phase (config, reduce, gather, ...).
	Kind comm.Kind
	// Layer is the communication layer, or 0 for a whole-pass span.
	Layer int
	// Start and End are nanoseconds since the Observatory epoch.
	Start, End int64
	// BytesOut and BytesIn are the wire volumes the span sent and
	// consumed (self-sends included, the Figure 5 convention); RawOut is
	// what the sent payloads would have cost uncompressed (RawWireSize).
	// They are the only byte source of the Observatory's counters.
	BytesOut, BytesIn, RawOut int64
	// Peers is the communication group size of the span's layer.
	Peers int
	// Err is non-nil when the pass failed; a timed-out receive closes
	// its span with the *comm.TimeoutError attached.
	Err error
	// Event names an instant event ("drop", "kill", ...); empty for
	// phase spans.
	Event string
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer records spans for one machine into a preallocated ring. A nil
// Tracer is a valid no-op: Begin returns a zero Span and End discards
// it, so instrumented hot paths cost two nil checks when observability
// is off. With observability on, a span costs two monotonic clock
// reads, one short mutex hold and a ring write — no allocation.
type Tracer struct {
	o    *Observatory
	node int

	mu    sync.Mutex
	ring  []Span
	next  int
	total int64 // spans recorded ever; total - len(ring) overwritten
}

// Begin opens a span. The caller fills Peers/Err, sizes its traffic
// through Sent and Received, and hands the span back to End.
//
//kylix:hotpath
func (t *Tracer) Begin(kind comm.Kind, layer int) Span {
	if t == nil {
		return Span{}
	}
	return Span{Node: t.node, Kind: kind, Layer: layer, Start: t.o.now()}
}

// End stamps the span's end time and records it.
//
//kylix:hotpath
func (t *Tracer) End(sp *Span) {
	if t == nil {
		return
	}
	sp.End = t.o.now()
	t.record(*sp)
}

// Instant records a zero-duration event (fault injections, kills).
func (t *Tracer) Instant(event string) {
	if t == nil {
		return
	}
	now := t.o.now()
	t.record(Span{Node: t.node, Event: event, Start: now, End: now})
}

// CountRound bumps the cluster-wide reduce-round counter.
func (t *Tracer) CountRound() {
	if t != nil {
		t.o.rounds.Inc()
	}
}

// CountArenaFlip bumps the scratch-arena generation counter.
func (t *Tracer) CountArenaFlip() {
	if t != nil {
		t.o.arenaFlips.Inc()
	}
}

// CountCombineShards accounts one combine/gather kernel dispatch that
// was sharded across the worker pool: shards is the shard count the
// kernel ran with. Serial runs (shards <= 1) are not counted — the
// metric reads as "how much work the Fig 7 threading actually took",
// staying zero on single-worker machines.
//
//kylix:hotpath
func (t *Tracer) CountCombineShards(shards int) {
	if t != nil && shards > 1 {
		t.o.combineShards.Add(int64(shards))
	}
}

// Sent charges one sent payload to sp: its wire size to BytesOut and
// its uncompressed size to RawOut. A no-op on a nil Tracer, so untraced
// passes never size payloads — the config pass would otherwise run the
// index codec just to learn its wire sizes.
//
//kylix:hotpath
func (t *Tracer) Sent(sp *Span, p comm.Payload) {
	if t != nil {
		sp.BytesOut += int64(p.WireSize())
		sp.RawOut += int64(comm.RawWireSize(p))
	}
}

// Received charges one accepted receipt's wire size to sp.BytesIn (a
// no-op on a nil Tracer).
//
//kylix:hotpath
func (t *Tracer) Received(sp *Span, p comm.Payload) {
	if t != nil {
		sp.BytesIn += int64(p.WireSize())
	}
}

// CountReconfigureLayer records one layer outcome of an incremental
// reconfiguration: fast when the layer reused its previous unions and
// position maps, full when it had to recompute them.
func (t *Tracer) CountReconfigureLayer(fast bool) {
	if t == nil {
		return
	}
	if fast {
		t.o.reconfigFastLayer.Inc()
	} else {
		t.o.reconfigFullLayer.Inc()
	}
}

// RecordError closes a synthetic span carrying an error that was not
// bracketed by Begin/End (e.g. a timed-out receive observed at the
// transport): the span covers the wait that failed.
func (t *Tracer) RecordError(kind comm.Kind, layer int, wait time.Duration, err error) {
	if t == nil {
		return
	}
	now := t.o.now()
	t.record(Span{Node: t.node, Kind: kind, Layer: layer, Start: now - int64(wait), End: now, Err: err})
}

//
//kylix:hotpath
func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	if len(t.ring) == 0 {
		t.mu.Unlock()
		return
	}
	if t.total >= int64(len(t.ring)) {
		t.o.spansDropped.Inc()
	}
	t.ring[t.next] = sp
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	t.mu.Unlock()
	if sp.Event != "" {
		return
	}
	o := t.o
	if sp.BytesOut > 0 {
		o.layerCounter(sp.Kind, sp.Layer).Add(sp.BytesOut)
		switch sp.Kind {
		case comm.KindConfig, comm.KindConfigReduce:
			o.configBytesEnc.Add(sp.BytesOut)
			o.configBytesRaw.Add(sp.RawOut)
		case comm.KindReduce, comm.KindGather:
			o.valuesBytesEnc.Add(sp.BytesOut)
			o.valuesBytesRaw.Add(sp.RawOut)
		}
	}
	if sp.BytesIn > 0 {
		o.recvBytes.Add(sp.BytesIn)
	}
}

// spans appends the tracer's buffered spans, oldest first.
func (t *Tracer) spans(out []Span) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.total)
	if n > len(t.ring) {
		n = len(t.ring)
	}
	start := (t.next - n + len(t.ring)) % len(t.ring)
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}
