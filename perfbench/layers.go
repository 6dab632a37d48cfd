package main

import (
	"fmt"
	"io"
	"sort"

	"kylix"
	"kylix/internal/comm"
)

// maxLayers is how many butterfly layers the per-layer metric names
// cover; every workload has at most three.
const maxLayers = 3

// metricKinds are the span kinds the per-layer metrics are named
// after. "config" covers the standalone configuration pass and the
// fused configure-and-reduce pass alike.
var metricKinds = []string{"config", "reduce", "gather"}

func metricKind(k comm.Kind) string {
	switch k {
	case comm.KindConfig, comm.KindConfigReduce:
		return "config"
	case comm.KindReduce:
		return "reduce"
	case comm.KindGather:
		return "gather"
	}
	return ""
}

func isPass(sp kylix.TraceSpan) bool {
	return sp.Layer == 0 && (sp.Kind == comm.KindReduce || sp.Kind == comm.KindConfigReduce)
}

type kindLayer struct {
	kind  comm.Kind
	layer int
}

// layerRow is one (kind, layer) row of the per-layer table.
type layerRow struct {
	kind          comm.Kind
	layer         int
	spans         int
	p50, p99      float64 // us
	bytesPerRound float64
	msgsPerRound  float64
	residual      float64 // measured / netsim-modelled layer time
	share         float64 // share of the mean round time
}

// layerReport is the traced run's per-layer breakdown of one workload.
type layerReport struct {
	metrics map[string]float64
	rows    []layerRow
	// roundUs is the mean round time the shares divide; adapterShare
	// and unattributedShare complete the breakdown to 1.
	roundUs, adapterShare, unattributedShare float64
	paired                                   bool
}

// analyze turns an untraced and a traced window of the same workload,
// plus the kernel replay, into the per-layer metrics. multiStream marks
// workloads whose ranks interleave several streams' passes, where a
// rank's k-th pass span is not its k-th call.
func analyze(ranks int, multiStream bool, un, tr *outcome, kernels map[string]float64) *layerReport {
	w, td := tr.w, tr.tr
	rounds := float64(w.rounds)
	m := map[string]float64{}
	rep := &layerReport{metrics: m}

	// Layer spans of the window, plus configuration spans of the
	// set-up (the only ones a configure-once workload has).
	durs := map[kindLayer][]float64{}
	windowTotal := map[kindLayer]float64{}
	bytes := map[kindLayer]float64{}
	var passes []float64
	perRank := make([][]float64, ranks)
	layerTotal := 0.0
	for _, sp := range td.spans {
		d := float64(sp.End - sp.Start)
		if isPass(sp) {
			passes = append(passes, d)
			if sp.Node < ranks {
				perRank[sp.Node] = append(perRank[sp.Node], d)
			}
		}
		if sp.Layer == 0 {
			continue
		}
		kl := kindLayer{sp.Kind, sp.Layer}
		durs[kl] = append(durs[kl], d)
		windowTotal[kl] += d
		bytes[kl] += float64(sp.BytesOut)
		layerTotal += d
	}
	for _, sp := range td.setup {
		if sp.Kind == comm.KindConfig && sp.Layer > 0 {
			kl := kindLayer{sp.Kind, sp.Layer}
			durs[kl] = append(durs[kl], float64(sp.End-sp.Start))
		}
	}

	var calls []float64
	for _, c := range w.calls {
		calls = append(calls, c...)
	}
	callMean, passMean := mean(calls), mean(passes)

	// Pair each rank's k-th pass span with its k-th call when the
	// counts allow it; otherwise fall back to differences of medians
	// and to call times.
	rep.paired = !multiStream
	for _, p := range perRank {
		rep.paired = rep.paired && len(p) == w.rounds
	}
	var adapter, straggler []float64
	for i := 0; i < w.rounds; i++ {
		per := make([]float64, ranks)
		for r := 0; r < ranks; r++ {
			if rep.paired {
				per[r] = perRank[r][i]
				adapter = append(adapter, w.calls[r][i]-perRank[r][i])
			} else {
				per[r] = w.calls[r][i]
			}
		}
		slowest := 0.0
		for _, v := range per {
			slowest = max(slowest, v)
		}
		straggler = append(straggler, slowest-median(per))
	}
	if rep.paired {
		m["kylix.adapter_us"] = median(adapter) / 1e3
	} else {
		m["kylix.adapter_us"] = (median(append([]float64(nil), calls...)) - median(append([]float64(nil), passes...))) / 1e3
	}
	m["core.straggler_us"] = median(straggler) / 1e3
	m["core.pass_us.p50"] = quantile(passes, 0.5) / 1e3
	m["core.pass_us.p99"] = quantile(passes, 0.99) / 1e3

	// Netsim model and message counts per (kind, layer).
	model := map[kindLayer]float64{}
	msgs := map[kindLayer]float64{}
	totalMsgs := 0.0
	for _, lt := range w.traffic.Layers {
		kl := kindLayer{phaseKind(lt.Phase), lt.Layer}
		model[kl] += lt.ModelSec
		msgs[kl] += float64(lt.Msgs)
		totalMsgs += float64(lt.Msgs)
	}

	roundMean := mean(w.lat)
	rep.roundUs = roundMean / 1e3
	rep.adapterShare = ratio(callMean-passMean, roundMean)
	rest := 1 - rep.adapterShare
	keys := make([]kindLayer, 0, len(durs))
	for kl := range durs {
		keys = append(keys, kl)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].layer < keys[j].layer
	})
	named := map[string][]float64{}
	namedBytes := map[string]float64{}
	namedResidual := map[string][2]float64{}
	for _, kl := range keys {
		d, total := durs[kl], windowTotal[kl]
		row := layerRow{
			kind: kl.kind, layer: kl.layer, spans: len(d),
			p50: quantile(d, 0.5) / 1e3, p99: quantile(d, 0.99) / 1e3,
			bytesPerRound: bytes[kl] / rounds,
			msgsPerRound:  msgs[kl] / rounds,
			share:         ratio(total/float64(ranks), roundMean*rounds),
		}
		measured := total / float64(ranks) / 1e9
		row.residual = ratio(measured, model[kl])
		rest -= row.share
		rep.rows = append(rep.rows, row)
		name := fmt.Sprintf("%s.L%d", metricKind(kl.kind), kl.layer)
		named[name] = append(named[name], d...)
		namedBytes[name] += bytes[kl]
		r := namedResidual[name]
		namedResidual[name] = [2]float64{r[0] + measured, r[1] + model[kl]}
	}
	rep.unattributedShare = rest
	m["kylix.unattributed_share"] = rest

	for _, k := range metricKinds {
		for i := 1; i <= maxLayers; i++ {
			name := fmt.Sprintf("%s.L%d", k, i)
			m["core."+name+"_us"] = quantile(named[name], 0.5) / 1e3
			m["comm.bytes."+name] = namedBytes[name] / rounds
			r := namedResidual[name]
			m["netsim.residual."+name] = ratio(r[0], r[1])
		}
	}

	c := td.counters
	m["comm.recv_wait_us.p50"] = td.recvWaitP50 / 1e3
	m["comm.recv_wait_us.p99"] = td.recvWaitP99 / 1e3
	m["comm.wait_share"] = ratio(float64(td.recvWaitSum), layerTotal)
	m["comm.msgs_per_round"] = totalMsgs / rounds
	m["tcpnet.frames_per_round"] = float64(c["tcp_frames_sent"]) / rounds
	m["tcpnet.frames_per_writev"] = ratio(float64(c["tcp_frames_sent"]), float64(c["tcp_writev_calls"]))
	m["tcpnet.reconnects"] = float64(c["tcp_reconnects"])
	m["tcpnet.dedup_hits"] = float64(c["tcp_dedup_hits"])
	m["sparse.value_compression"] = ratio(float64(c["values_bytes_raw"]), float64(c["values_bytes_encoded"]))
	m["stream.sched_wait_us.p50"] = td.schedWaitP50 / 1e3
	m["stream.sched_wait_us.p99"] = td.schedWaitP99 / 1e3
	m["stream.rejected"] = float64(c["stream_admission_rejected"])
	var overhead []float64
	for i := range w.passRun {
		overhead = append(overhead, w.passRun[i]-w.passBody[i])
	}
	m["stream.pass_overhead_us"] = median(overhead) / 1e3

	uw := un.w
	m["kylix.newcluster_ms"] = un.newCluster * 1e3
	m["kylix.configure_ms"] = un.configure * 1e3
	m["runtime.gc_per_1k_rounds"] = 1000 * float64(uw.numGC) / float64(uw.rounds)
	m["runtime.gc_pause_p99_us"] = quantile(uw.gcPauses, 0.99) / 1e3
	m["obs.overhead"] = ratio(float64(uw.rounds)/uw.seconds, rounds/w.seconds) - 1
	for k, v := range kernels {
		m[k] = v
	}
	return rep
}

func phaseKind(p kylix.Phase) comm.Kind {
	switch p {
	case kylix.PhaseConfig:
		return comm.KindConfig
	case kylix.PhaseReduce:
		return comm.KindReduce
	case kylix.PhaseGather:
		return comm.KindGather
	case kylix.PhaseConfigReduce:
		return comm.KindConfigReduce
	}
	return comm.KindApp
}

// print writes the per-layer table: one row per (kind, layer) with
// span p50/p99, bytes and messages per round, the netsim residual and
// the row's share of the mean round, then the root adapter's and the
// unattributed shares, which complete the breakdown to 1.
func (rep *layerReport) print(out io.Writer, workload string) {
	fmt.Fprintf(out, "per-layer %s: mean round %.1f us (spans paired per call: %v)\n", workload, rep.roundUs, rep.paired)
	fmt.Fprintf(out, "  %-14s %5s %7s %10s %10s %14s %10s %9s %7s\n",
		"kind", "layer", "spans", "p50_us", "p99_us", "bytes/round", "msgs/round", "residual", "share")
	sum := rep.adapterShare + rep.unattributedShare
	for _, r := range rep.rows {
		fmt.Fprintf(out, "  %-14s %5d %7d %10.1f %10.1f %14.1f %10.2f %9.3f %7.4f\n",
			r.kind, r.layer, r.spans, r.p50, r.p99, r.bytesPerRound, r.msgsPerRound, r.residual, r.share)
		sum += r.share
	}
	fmt.Fprintf(out, "  %-14s %5s %7s %10.1f %10s %14s %10s %9s %7.4f\n", "kylix.adapter", "-", "-", rep.metrics["kylix.adapter_us"], "", "", "", "", rep.adapterShare)
	fmt.Fprintf(out, "  %-14s %5s %7s %10s %10s %14s %10s %9s %7.4f\n", "unattributed", "-", "-", "", "", "", "", "", rep.unattributedShare)
	fmt.Fprintf(out, "  %-14s %5s %7s %10s %10s %14s %10s %9s %7.4f\n", "total", "", "", "", "", "", "", "", sum)
}
