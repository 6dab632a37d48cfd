package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kylix"
)

// chunkRounds is how many rounds the ranks run between rendezvous. The
// stop decision is taken only at a rendezvous, so every rank runs the
// same number of collective rounds.
const chunkRounds = 8

// checkEvery is the stride of in-window correctness checks; the first
// and the last round of the window are always checked as well.
const checkEvery = 4

// errBroken reports a rank released by a broken barrier after another
// rank failed; the failing rank's error is the one reported.
var errBroken = errors.New("perfbench: another rank failed")

// mode selects what one cluster's life measures.
type mode struct {
	// rounds is how many collective rounds the closed-loop window runs
	// (summed over tenants); 0 means set-up only. A window is cut at a
	// round count, not at a time, so every version of the program is
	// measured over the same rounds of a cluster's life.
	rounds int
	// limit ends a window early if its rounds take longer; it only
	// bounds the run's time.
	limit time.Duration
	// traced adds WithObservability and WithTrace and collects spans
	// and counters over the window.
	traced bool
	// probe adds WithTrace only and reports the window's traffic.
	probe bool
}

func (m mode) options(base []kylix.Option) []kylix.Option {
	opts := append([]kylix.Option(nil), base...)
	if m.traced {
		opts = append(opts, kylix.WithObservability())
	}
	if m.traced || m.probe {
		opts = append(opts, kylix.WithTrace())
	}
	return opts
}

// window is what one timed closed-loop window measured.
type window struct {
	seconds float64
	rounds  int
	// lat is, per round, the slowest rank's call time (ns); calls is
	// every rank's call time per round (ns), indexed [rank][round].
	lat   []float64
	calls [][]float64
	// attempted counts calls (warm-up included); failed counts calls
	// that returned an error or a result failing the correctness check.
	attempted, failed atomic.Int64
	errMu             sync.Mutex
	firstErr          error
	mallocs           uint64
	numGC             uint32
	gcPauses          []float64 // ns, GCs that ended inside the window
	liveHeap          uint64
	traffic           *kylix.TrafficReport
	// Stream workloads only: per pass, the Stream.Run call time and the
	// slowest rank's body time (ns).
	passRun, passBody []float64
}

func (w *window) fail(err error) {
	w.failed.Add(1)
	w.errMu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.errMu.Unlock()
}

// err returns the first failure recorded, if any.
func (w *window) err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.firstErr
}

// finish derives per-round latency from the per-rank call times.
func (w *window) finish() {
	w.lat = make([]float64, w.rounds)
	for r := range w.calls {
		w.calls[r] = w.calls[r][:w.rounds]
		for i, c := range w.calls[r] {
			w.lat[i] = max(w.lat[i], c)
		}
	}
}

// outcome is one cluster's life: set-up, and the window when measured.
type outcome struct {
	setup      float64 // s, NewCluster through the warm-up
	newCluster float64 // s
	configure  float64 // s, slowest rank's first configuring call
	w          *window
	// warmDigests[rank][batch] is the ValuesDigest of the rank's last
	// warm-up result on each batch; lastDigests[batch][rank] holds the
	// digests of the window's final results.
	warmDigests [][]uint64
	lastDigests map[int][]uint64
	tr          *tracedData
}

func newOutcome(ranks, batches int) *outcome {
	o := &outcome{
		w:           &window{calls: make([][]float64, ranks)},
		warmDigests: make([][]uint64, ranks),
		lastDigests: map[int][]uint64{},
	}
	for r := range o.warmDigests {
		o.warmDigests[r] = make([]uint64, batches)
	}
	return o
}

// memWindow reads the runtime counters that bracket a timed window.
type memWindow struct{ start runtime.MemStats }

func (m *memWindow) begin() { runtime.ReadMemStats(&m.start) }

func (m *memWindow) end(w *window) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - m.start.Mallocs
	w.numGC = ms.NumGC - m.start.NumGC
	n := uint32(len(ms.PauseNs))
	for g := m.start.NumGC; g < ms.NumGC; g++ {
		if ms.NumGC-g <= n {
			w.gcPauses = append(w.gcPauses, float64(ms.PauseNs[g%n]))
		}
	}
}

// life is one cluster's life as a load runs it: the set-up and window
// bracketing every load shares, around the load's own closed loop.
type life struct {
	cl         *kylix.Cluster
	m          mode
	o          *outcome
	t0, tStart time.Time
	mem        memWindow
	tc         *tracer
}

// live builds a cluster for m and runs body on it. body runs the
// load's set-up and calls lf.beginWindow when it ends; when m measures,
// body then runs the window, ends it with lf.endWindow and sets
// o.w.rounds and o.w.calls. live collects what the window recorded and
// closes the cluster.
func live(ranks, batches int, opts []kylix.Option, m mode, body func(lf *life) error) (_ *outcome, err error) {
	o := newOutcome(ranks, batches)
	lf := &life{m: m, o: o, t0: time.Now()}
	cl, err := kylix.NewCluster(ranks, m.options(opts)...)
	if err != nil {
		return nil, fmt.Errorf("NewCluster: %w", err)
	}
	o.newCluster = time.Since(lf.t0).Seconds()
	lf.cl = cl
	defer func() {
		// Close reports transport streams that failed during the run.
		if cerr := cl.Close(); cerr != nil && err == nil {
			o.w.fail(cerr)
			err = fmt.Errorf("Close: %w", cerr)
		}
	}()
	if m.traced {
		lf.tc = newTracer(cl)
	}
	if err := body(lf); err != nil {
		return o, err
	}
	if m.rounds == 0 {
		return o, nil
	}
	w := o.w
	w.finish()
	if lf.tc != nil {
		o.tr = lf.tc.collect()
	}
	if m.probe || m.traced {
		if w.traffic, err = cl.Traffic(trafficThreads); err != nil {
			return o, err
		}
	}
	return o, nil
}

// beginWindow ends the set-up and, when m measures, starts the window:
// the live heap after a GC, then the tracer, traffic and runtime
// counters.
func (lf *life) beginWindow() {
	lf.o.setup = time.Since(lf.t0).Seconds()
	if lf.m.rounds == 0 {
		return
	}
	lf.o.w.liveHeap = liveHeap()
	if lf.tc != nil {
		lf.tc.begin()
	}
	lf.cl.ResetTraffic()
	lf.mem.begin()
	lf.tStart = time.Now()
}

// expired reports whether the window has run past its time limit.
func (lf *life) expired() bool { return time.Since(lf.tStart) >= lf.m.limit }

// endWindow stops the window's clock and counters.
func (lf *life) endWindow() {
	w := lf.o.w
	w.seconds = time.Since(lf.tStart).Seconds()
	lf.mem.end(w)
	if lf.tc != nil {
		lf.tc.end()
	}
}

// liveHeap collects garbage and returns the bytes of live heap
// objects. HeapInuse would add span fragmentation, which varies from
// process to process by a third on the same inputs.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// clusterLoad is a raw-valued workload run as one Cluster.Run in which
// every rank loops over collective rounds.
type clusterLoad struct {
	ranks  int
	opts   []kylix.Option
	warmup int
	// prologue runs once per rank before the warm-up (Configure), or
	// is nil.
	prologue func(n *kylix.Node) error
	// round runs round k on one rank and returns its result.
	round func(n *kylix.Node, k int) ([]float32, error)
	// batchOf maps round k to the index of its input batch.
	batchOf func(k int) int
	batches []*batch
}

// run builds a cluster, configures and warms it up (the set-up)
// and, when m.rounds > 0, runs the closed-loop window.
func (l *clusterLoad) run(m mode) (*outcome, error) {
	return live(l.ranks, len(l.batches), l.opts, m, l.loop)
}

// loop is the load's single Cluster.Run. Every rank runs the prologue
// and the warm-up, then window rounds in chunks until the window has
// its rounds or runs out of time.
func (l *clusterLoad) loop(lf *life) error {
	o, m := lf.o, lf.m
	w := o.w
	for r := range w.calls {
		w.calls[r] = make([]float64, m.rounds)
	}
	cfgDur := make([]time.Duration, l.ranks)
	bar := newBarrier(l.ranks)
	stop := false
	setupDone := func() {
		lf.beginWindow()
		stop = m.rounds == 0
	}
	// chunkDone runs once per chunk, on the last rank to finish it.
	chunkDone := func() {
		w.rounds += chunkRounds
		if w.rounds+chunkRounds <= m.rounds && !lf.expired() {
			return
		}
		stop = true
		lf.endWindow()
	}
	fail := func(err error) error {
		w.fail(err)
		bar.abort()
		return err
	}
	check := func(r, k int, res []float32) error {
		b := l.batches[l.batchOf(k)]
		// Cluster workloads carry raw values: no relative bound.
		if err := checkResult(res, b.want[r], b.tol[r], 0); err != nil {
			return fail(fmt.Errorf("rank %d round %d: %w", r, k, err))
		}
		return nil
	}
	lastDigest := make([]uint64, l.ranks)
	runErr := lf.cl.Run(func(n *kylix.Node) error {
		r := n.Rank()
		ts := time.Now()
		if l.prologue != nil {
			w.attempted.Add(1)
			if err := l.prologue(n); err != nil {
				return fail(fmt.Errorf("rank %d configure: %w", r, err))
			}
			cfgDur[r] = time.Since(ts)
		}
		for k := 0; k < l.warmup; k++ {
			w.attempted.Add(1)
			res, err := l.round(n, k)
			if err != nil {
				return fail(fmt.Errorf("rank %d warm-up round %d: %w", r, k, err))
			}
			if k == 0 && l.prologue == nil {
				cfgDur[r] = time.Since(ts)
			}
			if err := check(r, k, res); err != nil {
				return err
			}
			o.warmDigests[r][l.batchOf(k)] = kylix.ValuesDigest(res)
		}
		if !bar.wait(setupDone) {
			return errBroken
		}
		if stop {
			return nil
		}
		calls := w.calls[r]
		var last []float32
		rounds := 0
		for !stop {
			for j := 0; j < chunkRounds; j++ {
				i := rounds + j
				k := l.warmup + i
				t := time.Now()
				res, err := l.round(n, k)
				calls[i] = float64(time.Since(t))
				w.attempted.Add(1)
				if err != nil {
					return fail(fmt.Errorf("rank %d round %d: %w", r, k, err))
				}
				if i%checkEvery == 0 {
					if err := check(r, k, res); err != nil {
						return err
					}
				}
				last = res
			}
			rounds += chunkRounds
			if !bar.wait(chunkDone) {
				return errBroken
			}
		}
		if err := check(r, l.warmup+rounds-1, last); err != nil {
			return err
		}
		lastDigest[r] = kylix.ValuesDigest(last)
		return nil
	})
	if runErr != nil {
		if w.err() == nil {
			w.fail(runErr)
		}
		return w.err()
	}
	for _, d := range cfgDur {
		o.configure = max(o.configure, d.Seconds())
	}
	if m.rounds > 0 {
		o.lastDigests[l.batchOf(l.warmup+w.rounds-1)] = lastDigest
	}
	return nil
}
