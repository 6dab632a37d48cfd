package main

import (
	"sort"
	"sync"
	"time"

	"kylix"
)

// trafficThreads is the per-node send/receive concurrency the netsim
// model is evaluated at.
const trafficThreads = 4

// harvestEvery is how often the window's spans are copied out of the
// per-node span rings, well inside the time a ring takes to wrap at
// the workloads' span rates.
const harvestEvery = 500 * time.Millisecond

// counterNames are the registry counters read as window deltas.
var counterNames = []string{
	"tcp_frames_sent", "tcp_writev_calls", "tcp_reconnects", "tcp_dedup_hits",
	"values_bytes_raw", "values_bytes_encoded", "recv_msgs", "stream_admission_rejected",
}

// tracer collects one traced window: every span the program records
// (set-up spans kept apart), counter deltas, and receive-wait and
// scheduler-wait distributions.
type tracer struct {
	obs *kylix.Observatory
	reg *kylix.MetricsRegistry

	mu     sync.Mutex
	cutoff int64
	seen   map[spanKey]struct{}
	setup  []kylix.TraceSpan
	spans  []kylix.TraceSpan

	c0       map[string]int64
	wait0    int64
	stop     chan struct{}
	done     chan struct{}
	counters map[string]int64
	waitSum  int64
}

type spanKey struct {
	node, layer int
	kind        uint8
	start       int64
}

func newTracer(cl *kylix.Cluster) *tracer {
	return &tracer{obs: cl.Observability(), reg: cl.Metrics(), seen: map[spanKey]struct{}{}}
}

func (t *tracer) snapshot() map[string]int64 {
	c := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		c[n] = t.reg.Counter(n).Value()
	}
	return c
}

// begin marks the window start: spans recorded so far are set-up
// spans, and a harvester copies window spans out of the rings until
// end.
func (t *tracer) begin() {
	t.setup = t.obs.Spans()
	for _, sp := range t.setup {
		t.cutoff = max(t.cutoff, sp.End)
	}
	t.c0 = t.snapshot()
	t.wait0 = t.reg.Histogram("recv_wait_ns").Sum()
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(harvestEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.harvest()
			}
		}
	}()
}

func (t *tracer) harvest() {
	spans := t.obs.Spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range spans {
		if sp.Start <= t.cutoff || sp.Event != "" {
			continue
		}
		k := spanKey{sp.Node, sp.Layer, uint8(sp.Kind), sp.Start}
		if _, dup := t.seen[k]; !dup {
			t.seen[k] = struct{}{}
			t.spans = append(t.spans, sp)
		}
	}
}

// end stops the harvester, takes the final harvest and the counters.
func (t *tracer) end() {
	close(t.stop)
	<-t.done
	t.harvest()
	c1 := t.snapshot()
	t.counters = make(map[string]int64, len(c1))
	for n, v := range c1 {
		t.counters[n] = v - t.c0[n]
	}
	t.waitSum = t.reg.Histogram("recv_wait_ns").Sum() - t.wait0
}

// tracedData is what a traced window recorded.
type tracedData struct {
	setup, spans []kylix.TraceSpan
	counters     map[string]int64
	// recvWaitSum is the window's total receive wait (ns).
	recvWaitSum int64
	// Lifetime quantiles of the program's log2 histograms (ns).
	recvWaitP50, recvWaitP99   float64
	schedWaitP50, schedWaitP99 float64
}

func (t *tracer) collect() *tracedData {
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	rw := t.reg.Histogram("recv_wait_ns")
	sw := t.reg.Histogram("stream_sched_wait_ns")
	return &tracedData{
		setup: t.setup, spans: t.spans, counters: t.counters, recvWaitSum: t.waitSum,
		recvWaitP50: float64(rw.Quantile(0.5)), recvWaitP99: float64(rw.Quantile(0.99)),
		schedWaitP50: float64(sw.Quantile(0.5)), schedWaitP99: float64(sw.Quantile(0.99)),
	}
}
