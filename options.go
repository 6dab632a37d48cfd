package kylix

import (
	"math/rand"
	"time"

	"kylix/internal/comm"
	"kylix/internal/faultnet"
	"kylix/internal/obs"
	"kylix/internal/powerlaw"
	"kylix/internal/sparse"
)

// Reducer combines the values of a feature contributed by different
// machines. See Sum, Max, Min and Or.
type Reducer = sparse.Reducer

// Built-in reducers.
var (
	// Sum adds contributions (the default; PageRank, gradients).
	Sum = sparse.Sum
	// Max keeps the elementwise maximum.
	Max = sparse.Max
	// Min keeps the elementwise minimum (label propagation).
	Min = sparse.Min
	// Or treats each float32 as a 32-bit mask and unions them
	// (Flajolet-Martin sketches).
	Or = sparse.Or
)

// Quantization selects the wire encoding of reduce/gather value blocks;
// see WithQuantization.
type Quantization = sparse.Quantization

// Quantization modes.
const (
	// QuantOff ships raw float32 values (the default, bit-exact).
	QuantOff = sparse.QuantOff
	// QuantFP16 ships IEEE half-precision values: 2 bytes per value
	// (2x smaller), round-to-nearest-even, ~3 decimal digits.
	QuantFP16 = sparse.QuantFP16
	// QuantINT8 ships per-piece max-abs-scaled 8-bit values: a 4-byte
	// scale plus 1 byte per value (~4x smaller).
	QuantINT8 = sparse.QuantINT8
)

// ParseQuantization maps "off" (or ""), "fp16" and "int8" to the
// corresponding mode, for flags and HTTP parameters.
func ParseQuantization(s string) (Quantization, error) {
	return sparse.ParseQuantization(s)
}

// ValuesDigest is an order-sensitive FNV-1a hash of a float32 vector's
// exact bit patterns — the oracle for asserting that reduction results
// are bit-identical across runs, transports and fault schedules.
func ValuesDigest(vals []float32) uint64 { return sparse.ValuesDigest(vals) }

// Transport selects how cluster machines exchange messages.
type Transport int

const (
	// TransportMemory runs machines as goroutines with in-memory
	// mailboxes: fastest, supports failure injection. The default.
	TransportMemory Transport = iota
	// TransportTCP runs machines as goroutines connected through real
	// loopback TCP sockets, exercising the full wire path.
	TransportTCP
)

type config struct {
	degrees        []int
	binary         bool
	transport      Transport
	replication    int
	width          int
	reducer        Reducer
	strict         bool
	recvTimeout    time.Duration
	trace          bool
	faults         *faultnet.Plan
	observe        bool
	elastic        *ElasticOptions
	combineWorkers int
	// quant is the wire encoding of value blocks (default QuantOff).
	quant Quantization
	// stream is the tag namespace nodes built from this config mint
	// into. DefaultStream for Cluster.Run and ListenNode; set by
	// Cluster.OpenStream for tenant streams.
	stream comm.StreamID
	// maxStreams bounds how many streams may be open at once.
	maxStreams int
	// streamInflight bounds each stream's queued-plus-running passes.
	streamInflight int
	// streamSlots is the fabric's global concurrent-pass budget.
	streamSlots int
	// obsv is the live Observatory once construction wired it (set by
	// NewCluster/ListenNode when observe is on, then read by newNode).
	obsv *obs.Observatory
}

func defaultConfig() config {
	return config{
		transport:      TransportMemory,
		replication:    1,
		width:          1,
		reducer:        Sum,
		recvTimeout:    30 * time.Second,
		maxStreams:     64,
		streamInflight: 4,
		streamSlots:    4,
	}
}

// Option customizes a Cluster or a listening Node.
type Option func(*config)

// WithDegrees fixes the butterfly layer degrees d_1, ..., d_l. Their
// product must equal the (logical) machine count. Without this option
// the cluster uses the direct (single-layer) topology.
func WithDegrees(degrees ...int) Option {
	return func(c *config) { c.degrees = append([]int(nil), degrees...) }
}

// WithBinaryButterfly selects the log2(m)-layer degree-2 topology. The
// (logical) machine count must be a power of two.
func WithBinaryButterfly() Option {
	return func(c *config) { c.binary = true }
}

// WithTransport selects the message transport.
func WithTransport(t Transport) Option {
	return func(c *config) { c.transport = t }
}

// WithReplication enables the paper's §V fault tolerance: data and
// messages are replicated s ways, receivers race the copies, and the
// protocol survives any failures that leave one live replica per group.
// The machine count must be divisible by s; the topology then spans the
// m/s logical machines.
func WithReplication(s int) Option {
	return func(c *config) { c.replication = s }
}

// WithWidth sets the number of float32 values carried per feature
// (default 1).
func WithWidth(w int) Option {
	return func(c *config) { c.width = w }
}

// WithReducer sets the combining operation (default Sum).
func WithReducer(r Reducer) Option {
	return func(c *config) { c.reducer = r }
}

// WithCombineWorkers sizes each machine's intra-node worker pool: large
// combine/gather folds are sharded by disjoint index ranges across n
// goroutines, the paper's Figure 7 threading of the combine stage.
// 0 (the default) selects min(GOMAXPROCS, 4); 1 keeps every kernel on
// the machine goroutine. Results are bit-identical for every setting —
// sharding partitions rows, never the per-row fold order — and the warm
// Reduce stays allocation-free.
func WithCombineWorkers(n int) Option {
	return func(c *config) { c.combineWorkers = n }
}

// WithQuantization selects the wire encoding of the values shipped by
// the scatter-reduce and allgather passes. QuantOff (the default) sends
// raw float32s and is bit-exact. QuantFP16 and QuantINT8 quantize every
// value piece on send and dequantize on arrival — 2x and ~4x less value
// traffic — with an error-feedback residual per (layer, piece,
// direction): each round's quantization error is added to the next
// round's values before encoding, so values too small to survive one
// round's rounding accumulate until they ship instead of being lost
// forever. Results stay deterministic — every rank's output is a pure
// function of the inputs and call sequence, bit-identical across
// reruns, transports and chaotic fault schedules — but lossy modes are
// (by design) not bit-equal to a QuantOff run; relative error is
// bounded by the mode's precision. The warm Reduce remains
// allocation-free. Passed to OpenStream / Node.Stream it overrides the
// cluster default for that stream, so tenants choose their own
// precision/bandwidth point.
func WithQuantization(q Quantization) Option {
	return func(c *config) { c.quant = q }
}

// WithStrict makes configuration fail when a requested in-index has no
// contributor anywhere (instead of gathering the reducer's identity).
func WithStrict() Option {
	return func(c *config) { c.strict = true }
}

// WithRecvTimeout bounds blocking receives so dead unreplicated peers
// surface as errors rather than hangs (default 30s; 0 waits forever).
func WithRecvTimeout(d time.Duration) Option {
	return func(c *config) { c.recvTimeout = d }
}

// WithTrace enables traffic recording; see Cluster.Traffic.
func WithTrace() Option {
	return func(c *config) { c.trace = true }
}

// WithMaxStreams bounds how many tenant streams may be open on the
// cluster at once (default 64; n <= 0 means unbounded). OpenStream
// past the bound fails with stream.ErrTooManyStreams — admission
// control, the service's first line of overload defense.
func WithMaxStreams(n int) Option {
	return func(c *config) { c.maxStreams = n }
}

// WithStreamInflight bounds each stream's queued-plus-running
// collective passes (default 4; n <= 0 means unbounded). A pass
// submitted past the bound is rejected immediately with a
// *StreamBusyError instead of queueing without limit — per-tenant
// backpressure. Passed to OpenStream it overrides the cluster default
// for that stream.
func WithStreamInflight(n int) Option {
	return func(c *config) { c.streamInflight = n }
}

// WithStreamSlots sets the fabric's global concurrent-pass budget
// (default 4; n <= 0 selects 1, fully serialized). When more streams
// want to run than there are slots, grants rotate round-robin across
// the waiting streams, so one greedy tenant cannot starve the rest.
func WithStreamSlots(n int) Option {
	return func(c *config) { c.streamSlots = n }
}

// Observatory is the runtime observability state of a cluster built
// with WithObservability: per-machine span timelines of every
// config/reduce/gather pass, the metrics registry, and the exporters
// (Chrome trace_event JSON, human-readable timeline, HTTP endpoint).
type Observatory = obs.Observatory

// MetricsRegistry is the named counter/gauge/histogram collection
// exposed by Cluster.Metrics.
type MetricsRegistry = obs.Registry

// TraceSpan is one timed slice of protocol work on one machine.
type TraceSpan = obs.Span

// MetricsServer is a running observability HTTP endpoint.
type MetricsServer = obs.Server

// ServeMetrics starts the observability HTTP endpoint on addr —
// /metrics (expvar-style JSON snapshot), /trace (Chrome trace_event
// JSON) and /timeline (per-phase text summary). ":0" picks a free
// port; the bound address is in the returned server's Addr.
func ServeMetrics(addr string, o *Observatory) (*MetricsServer, error) {
	return obs.Serve(addr, o)
}

// WithObservability enables the runtime observability layer: per-layer
// spans on every pass, transport metrics (reconnects, resend-ring
// occupancy, dedup hits, receive waits) and fault-event timelines.
// Access the data via Cluster.Metrics / Cluster.Observability (or
// Node.Observability for ListenNode), export with
// Observatory.WriteChromeTrace / WriteTimeline, or serve it over HTTP
// with obs.Serve. The hot path stays allocation-free with this on.
func WithObservability() Option {
	return func(c *config) { c.observe = true }
}

// FaultPlan scripts deterministic fault injection for WithFaults: a
// seeded schedule of message drops, delays, duplicates, per-link
// reorders, crash-stop kills at precise points mid-round, and rank-set
// partitions. Every decision is a pure function of (Seed, sender,
// receiver, tag) — no wall clock — so the same plan replays identically
// on every run and both transports. See faultnet.Plan for field
// semantics.
type FaultPlan = faultnet.Plan

// FaultKill crash-stops a rank after exactly AfterSends sends — the
// deterministic way to land a failure mid-scatter or mid-gather.
type FaultKill = faultnet.Kill

// FaultPartition separates rank groups for a window of the sender's
// send count.
type FaultPartition = faultnet.Partition

// FaultInjector is the live fault controller of a cluster built with
// WithFaults: it exposes manual Kill/Partition/Heal, per-rank send
// counts (the logical clock kill schedules use), and Flush for
// releasing held messages between rounds.
type FaultInjector = faultnet.Fabric

// WithFaults interposes a deterministic chaos layer between the
// protocol and the transport (memory or TCP): messages are dropped,
// delayed, duplicated, reordered and partitioned, and machines crash-
// stopped mid-round, exactly as the seeded plan dictates. Combined with
// WithReplication(s) the §V guarantee applies: as long as the plan
// leaves one live, un-dropped replica per group — e.g. by listing only
// one replica half in plan.Faulty — every allreduce completes with
// results bit-identical to a fault-free run. The live controller is
// available as Cluster.Faults.
//
//	kylix.NewCluster(16,
//		kylix.WithReplication(2),
//		kylix.WithFaults(kylix.FaultPlan{
//			Seed:   42,
//			Faulty: []int{8, 9, 10, 11, 12, 13, 14, 15}, // upper replicas only
//			Drop:   0.1, Duplicate: 0.15,
//			Delay:  0.25, MaxDelay: 2 * time.Millisecond,
//			Kills:  []kylix.FaultKill{{Rank: 9, AfterSends: 40}},
//		}))
func WithFaults(plan FaultPlan) Option {
	return func(c *config) {
		p := plan
		c.faults = &p
	}
}

// DesignInput parameterizes DesignDegrees; see the package
// documentation of the design workflow (paper §IV).
type DesignInput = powerlaw.DesignInput

// DesignDegrees runs the paper's §IV workflow: given the feature count,
// the power-law exponent, the measured density of the initial per-node
// partition, the machine count and the network's minimum efficient
// packet size, it returns the optimal butterfly degrees (largest degree
// per layer that keeps packets at or above the floor, product equal to
// the machine count).
func DesignDegrees(in DesignInput) ([]int, error) {
	return powerlaw.Design(in)
}

// DesignFromSample runs the measure-then-design pipeline for datasets
// whose power-law exponent is unknown (§IV's empirical-curve variant):
// it fits (alpha, lambda) to a sample of raw feature occurrences (with
// multiplicity, e.g. all edge endpoints of one machine's partition) and
// returns the optimal degrees plus the fitted exponent.
func DesignFromSample(seed int64, occurrences []int32, n int64, machines, elemBytes int, minPacket float64) (degrees []int, alpha float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	degrees, alpha, _, err = powerlaw.DesignFromSample(rng, occurrences, n, machines, elemBytes, minPacket)
	return degrees, alpha, err
}
