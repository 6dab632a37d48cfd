// Command perfbench is the repository's end-to-end benchmark. It drives
// the public kylix API from one process over loopback TCP on three
// workloads generated from a seed, checks every result against an exact
// reference, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, --trace 1). See README.md for the
// workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"kylix"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// unmeasuredReps is how many clusters an untraced run sets up before
// the workload's measured ones; setup_s is the median over all of them.
const unmeasuredReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one generated workload, ready to run.
type workload struct {
	name        string
	bf          *topo.Butterfly
	width       int
	quant       sparse.Quantization
	multiStream bool
	batches     []*batch
	props       inputProps
	run         func(mode) (*outcome, error)
	// windowRounds is how many rounds one measured window runs. It
	// stays well below the roughly 2,000 rounds after which tcpnet's
	// resend rings (4096 frames per peer stream) have cycled and the
	// allocation rate and round time step down, so every window
	// measures the rings' fill phase whatever the program's speed.
	windowRounds int
	// windows is how many clusters an untraced run measures, one
	// window each. A window that takes more than twice its share of
	// --seconds is cut short.
	windows int
	// probeRounds is how many window rounds give the exact per-round
	// wire volume (a whole cycle of the workload's distinct rounds).
	probeRounds int
}

func tcpOptions(degrees ...int) []kylix.Option {
	return []kylix.Option{
		kylix.WithTransport(kylix.TransportTCP),
		kylix.WithDegrees(degrees...),
	}
}

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "reduce-tcp":
		// Configure once, reduce many: the PageRank shape.
		const ranks = 16
		degrees := []int{4, 2, 2}
		b := newBatch(rng, newPowerLaw(1<<15, 0.8, 0.21), ranks, 1)
		reds := make([]*kylix.Reduction, ranks)
		l := &clusterLoad{
			ranks: ranks, opts: tcpOptions(degrees...), warmup: 3 * chunkRounds,
			prologue: func(n *kylix.Node) error {
				in := b.idx[n.Rank()]
				var err error
				reds[n.Rank()], err = n.Configure(in, in)
				return err
			},
			round: func(n *kylix.Node, _ int) ([]float32, error) {
				return reds[n.Rank()].Reduce(b.vals[n.Rank()])
			},
			batchOf: func(int) int { return 0 },
			batches: []*batch{b},
		}
		w := &workload{name: name, bf: topo.MustNew(degrees), width: 1, batches: l.batches, run: l.run,
			windows: 12, windowRounds: 304, probeRounds: chunkRounds}
		w.props = props(seed, w.batches, w.bf)
		return w, nil
	case "minibatch-tcp":
		// Fresh sparse sets every round: minibatch SGD.
		const ranks, pool = 8, 2 * chunkRounds
		degrees := []int{4, 2}
		g := newPowerLaw(1<<20, 1.0, 0.004)
		batches := make([]*batch, pool)
		for i := range batches {
			batches[i] = newBatch(rng, g, ranks, 1)
		}
		l := &clusterLoad{
			ranks: ranks, opts: tcpOptions(degrees...), warmup: pool,
			round: func(n *kylix.Node, k int) ([]float32, error) {
				b := batches[k%pool]
				in := b.idx[n.Rank()]
				_, res, err := n.ConfigureReduce(in, in, b.vals[n.Rank()])
				return res, err
			},
			batchOf: func(k int) int { return k % pool },
			batches: batches,
		}
		w := &workload{name: name, bf: topo.MustNew(degrees), width: 1, batches: batches, run: l.run,
			windows: 8, windowRounds: 152, probeRounds: pool}
		w.props = props(seed, batches, w.bf)
		w.props.FreshSetShare, w.props.ConfigureShare = 1, 1
		return w, nil
	case "tenants-fp16-tcp":
		// Two tenants sharing one cluster, width 4, fp16 on the wire.
		const ranks, tenants, roundsPerPass = 8, 2, 8
		degrees := []int{4, 2}
		g := newPowerLaw(1<<14, 0.8, 0.21)
		batches := make([]*batch, tenants)
		for i := range batches {
			batches[i] = newBatch(rng, g, ranks, 4)
		}
		l := &tenantLoad{
			ranks: ranks, opts: append(tcpOptions(degrees...), kylix.WithStreamSlots(tenants)),
			streamOpts:    []kylix.Option{kylix.WithWidth(4), kylix.WithQuantization(kylix.QuantFP16)},
			batches:       batches,
			roundsPerPass: roundsPerPass, warmupPasses: 2,
			relBound: fp16Bound,
		}
		w := &workload{name: name, bf: topo.MustNew(degrees), width: 4, quant: sparse.QuantFP16,
			multiStream: true, batches: batches, run: l.run,
			windows: 12, windowRounds: 256, probeRounds: tenants * roundsPerPass}
		w.props = props(seed, batches, w.bf)
		w.props.ConfigureShare = 1.0 / roundsPerPass
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want reduce-tcp, minibatch-tcp or tenants-fp16-tcp)", name)
}

func main() {
	name := flag.String("workload", "reduce-tcp", "workload: reduce-tcp, minibatch-tcp or tenants-fp16-tcp")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 30, "time budget of the measured windows; a window taking over twice its share is cut short")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()

	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	in, _ := json.Marshal(w.props)
	fmt.Printf("inputs %s %s\n", w.name, in)

	var res result
	if *trace == 1 {
		err = runTraced(w, *seconds, &res)
	} else {
		err = runEndToEnd(w, *seconds, &res)
	}
	if err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// tally adds an outcome's call counts to the result.
func (res *result) tally(o *outcome) {
	if o != nil {
		res.Attempted += o.w.attempted.Load()
		res.Failed += o.w.failed.Load()
	}
}

// window is the measured mode of one of the workload's windows.
func (w *workload) window(seconds float64) mode {
	share := seconds / float64(w.windows)
	return mode{rounds: w.windowRounds, limit: time.Duration(2 * share * float64(time.Second))}
}

// runEndToEnd sets the workload up unmeasuredReps+w.windows times and
// measures one window on each of the last w.windows set-ups, pooling
// their rounds; then it probes the exact wire volume per round on a
// cluster recording traffic. Short windows on several fresh clusters
// keep every window inside the same phase of a cluster's life (the
// transport's resend rings still filling) and average out
// cluster-to-cluster scheduling luck. round_p99_ms is the median of the
// windows' p99s, so a burst of host load that slows a few windows does
// not carry the tail of the whole run.
func runEndToEnd(w *workload, seconds float64, res *result) error {
	var setups, heaps, lat, p99s []float64
	var ref *outcome
	var rounds, cut int
	var windowS float64
	var mallocs uint64
	for i := 0; i < unmeasuredReps+w.windows; i++ {
		m := mode{}
		if i >= unmeasuredReps {
			m = w.window(seconds)
		}
		o, err := w.run(m)
		res.tally(o)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = o
		}
		if err := sameDigests(ref, o); err != nil {
			res.Failed++
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, o.setup)
		if m.rounds > 0 {
			if o.w.rounds < m.rounds {
				cut++
			}
			heaps = append(heaps, float64(o.w.liveHeap))
			lat = append(lat, o.w.lat...)
			p99s = append(p99s, quantile(o.w.lat, 0.99))
			rounds += o.w.rounds
			windowS += o.w.seconds
			mallocs += o.w.mallocs
		}
	}
	probe, err := w.run(mode{rounds: w.probeRounds, limit: time.Hour, probe: true})
	res.tally(probe)
	if err != nil {
		return fmt.Errorf("traffic probe: %w", err)
	}
	if err := sameDigests(ref, probe); err != nil {
		res.Failed++
		return fmt.Errorf("traffic probe: %w", err)
	}
	var wire int64
	for _, lt := range probe.w.traffic.Layers {
		wire += lt.WireBytes
	}

	n := float64(rounds)
	res.Metrics = map[string]metric{
		"setup_s":              {median(setups), "s"},
		"rounds_per_s":         {n / windowS, "1/s"},
		"round_p50_ms":         {quantile(lat, 0.5) / 1e6, "ms"},
		"round_p99_ms":         {median(p99s) / 1e6, "ms"},
		"wire_bytes_per_round": {float64(wire) / float64(probe.w.rounds), "B"},
		"allocs_per_round":     {float64(mallocs) / n, "count"},
		"heap_inuse_mb":        {median(heaps) / (1 << 20), "MB"},
	}
	samples := map[string]string{
		"setup_s":              fmt.Sprintf("median of %d set-ups", len(setups)),
		"rounds_per_s":         fmt.Sprintf("%d rounds in %.2f s over %d clusters, %d cut short by the time limit", rounds, windowS, len(heaps), cut),
		"round_p50_ms":         fmt.Sprintf("%d rounds", rounds),
		"round_p99_ms":         fmt.Sprintf("median of %d window p99s, %d rounds each", len(p99s), w.windowRounds),
		"wire_bytes_per_round": fmt.Sprintf("exact, %d probe rounds", probe.w.rounds),
		"allocs_per_round":     fmt.Sprintf("%d mallocs over %d rounds", mallocs, rounds),
		"heap_inuse_mb":        fmt.Sprintf("median of %d live-heap reads after warm-up and GC", len(heaps)),
	}
	for _, k := range []string{"setup_s", "rounds_per_s", "round_p50_ms", "round_p99_ms", "wire_bytes_per_round", "allocs_per_round", "heap_inuse_mb"} {
		fmt.Printf("%-22s %14.4f %-6s (%s)\n", k, res.Metrics[k].Value, res.Metrics[k].Unit, samples[k])
	}
	fmt.Printf("%-22s %14.4f %-6s (%d failed of %d calls)\n", "error_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	if !res.Correct {
		return fmt.Errorf("%d of %d calls failed", res.Failed, res.Attempted)
	}
	return nil
}

// runTraced measures one window untraced and one traced, each of an
// end-to-end window's rounds (so the tracing overhead is measured in
// the same process and the same phase of a cluster's life), replays
// the kernels, and reports the per-layer metrics.
func runTraced(w *workload, seconds float64, res *result) error {
	un, err := w.run(w.window(seconds))
	res.tally(un)
	if err != nil {
		return err
	}
	traced := w.window(seconds)
	traced.traced = true
	tr, err := w.run(traced)
	res.tally(tr)
	if err != nil {
		return err
	}
	for _, o := range []*outcome{un, tr} {
		if err := sameDigests(un, o); err != nil {
			res.Failed++
			return err
		}
	}
	kernels, err := replayKernels(w.batches[0], w.bf, w.width, w.quant)
	if err != nil {
		return err
	}
	rep := analyze(w.bf.M(), w.multiStream, un, tr, kernels)
	rep.print(os.Stdout, w.name)
	res.Metrics = map[string]metric{}
	for k, v := range rep.metrics {
		res.Metrics[k] = metric{v, perLayerUnit(k)}
	}
	res.Correct = res.Failed == 0
	if !res.Correct {
		return fmt.Errorf("%d of %d calls failed", res.Failed, res.Attempted)
	}
	return nil
}

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ns_per_"):
		return "ns"
	case strings.HasPrefix(name, "comm.bytes."):
		return "B"
	case strings.Contains(name, "share"), strings.HasPrefix(name, "netsim."),
		name == "obs.overhead", name == "sparse.value_compression", name == "tcpnet.frames_per_writev":
		return "ratio"
	}
	return "count"
}

// sameDigests checks that two clusters of one workload produced
// bit-identical results: every warm-up digest, and every final window
// digest against the warm-up digest of the same batch.
func sameDigests(ref, o *outcome) error {
	for r := range ref.warmDigests {
		for b, d := range ref.warmDigests[r] {
			if d != 0 && o.warmDigests[r][b] != 0 && d != o.warmDigests[r][b] {
				return fmt.Errorf("rank %d batch %d: warm-up digest %x differs from %x", r, b, o.warmDigests[r][b], d)
			}
		}
	}
	for b, ds := range o.lastDigests {
		for r, d := range ds {
			if want := ref.warmDigests[r][b]; d != want {
				return fmt.Errorf("rank %d batch %d: last-round digest %x differs from %x", r, b, d, want)
			}
		}
	}
	return nil
}
