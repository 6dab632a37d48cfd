package kylix

import (
	"fmt"
	"strings"

	"kylix/internal/comm"
	"kylix/internal/netsim"
	"kylix/internal/trace"
)

// Phase identifies which protocol pass a traffic row belongs to.
type Phase string

// Protocol phases.
const (
	PhaseConfig       Phase = "config"
	PhaseReduce       Phase = "reduce"
	PhaseGather       Phase = "gather"
	PhaseConfigReduce Phase = "config+reduce"
	PhaseApplication  Phase = "app"
)

// LayerTraffic is one (phase, layer) cell of recorded traffic.
type LayerTraffic struct {
	Phase Phase
	Layer int
	// Msgs and Bytes include self-sends, the paper's Figure 5
	// convention; WireBytes excludes them.
	Msgs      int64
	Bytes     int64
	WireBytes int64
	// RawBytes is what the same messages would have cost in the
	// uncompressed wire format (8 bytes per index key, 4 bytes per
	// float32 value); the ratio RawBytes/Bytes is the codec's
	// compression factor at this layer — the index codec's for config
	// phases, the value codec's for value-only phases (which equal
	// Bytes only when WithQuantization is off).
	RawBytes int64
	// MaxNodeRecvBytes is the heaviest single receiver's byte volume in
	// this layer — the fan-in hotspot the cost model's incast term
	// penalizes.
	MaxNodeRecvBytes int64
	// ModelSec is the layer's modelled duration on the paper's EC2
	// cluster.
	ModelSec float64
}

// TrafficReport summarizes recorded traffic and its modelled timing.
type TrafficReport struct {
	Layers []LayerTraffic
	// ConfigSec / ReduceSec are the modelled phase times of Figure 6 and
	// Table I (reduce includes the gather pass).
	ConfigSec float64
	ReduceSec float64
}

// TotalSec is the modelled end-to-end allreduce time.
func (r *TrafficReport) TotalSec() float64 { return r.ConfigSec + r.ReduceSec }

// TotalBytes sums traffic (self included) over all layers, optionally
// filtered by phase ("" = all).
func (r *TrafficReport) TotalBytes(phase Phase) int64 {
	var total int64
	for _, lt := range r.Layers {
		if phase == "" || lt.Phase == phase {
			total += lt.Bytes
		}
	}
	return total
}

// TotalRawBytes is TotalBytes for the uncompressed-equivalent volume:
// what the same traffic would have cost before the compressed index
// wire format and (when quantization is on) the value codec.
func (r *TrafficReport) TotalRawBytes(phase Phase) int64 {
	var total int64
	for _, lt := range r.Layers {
		if phase == "" || lt.Phase == phase {
			total += lt.RawBytes
		}
	}
	return total
}

// String renders a per-layer table.
func (r *TrafficReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %5s %12s %14s %14s %14s %14s %6s %10s\n", "phase", "layer", "msgs", "bytes", "rawBytes", "wireBytes", "maxRecvBytes", "x", "modelSec")
	for _, lt := range r.Layers {
		ratio := 1.0
		if lt.Bytes > 0 {
			ratio = float64(lt.RawBytes) / float64(lt.Bytes)
		}
		fmt.Fprintf(&b, "%-14s %5d %12d %14d %14d %14d %14d %6.2f %10.4f\n",
			lt.Phase, lt.Layer, lt.Msgs, lt.Bytes, lt.RawBytes, lt.WireBytes, lt.MaxNodeRecvBytes, ratio, lt.ModelSec)
	}
	fmt.Fprintf(&b, "modelled: config %.4fs, reduce %.4fs\n", r.ConfigSec, r.ReduceSec)
	return b.String()
}

func phaseOf(kind comm.Kind) Phase {
	switch kind {
	case comm.KindConfig:
		return PhaseConfig
	case comm.KindReduce:
		return PhaseReduce
	case comm.KindGather:
		return PhaseGather
	case comm.KindConfigReduce:
		return PhaseConfigReduce
	default:
		return PhaseApplication
	}
}

func buildTrafficReport(col *trace.Collector, model netsim.Model, threads int) *TrafficReport {
	// One snapshot feeds both the rows and the model, so a cell that
	// first appears mid-report cannot shift the index join between them.
	layers := col.Layers()
	rep := netsim.Estimate(col.Machines(), layers, model, threads)
	out := &TrafficReport{ConfigSec: rep.ConfigSec, ReduceSec: rep.ReduceSec}
	for i, lt := range layers {
		out.Layers = append(out.Layers, LayerTraffic{
			Phase: phaseOf(lt.Kind), Layer: lt.Layer,
			Msgs: lt.Msgs, Bytes: lt.Bytes, WireBytes: lt.Bytes - lt.SelfBytes, RawBytes: lt.RawBytes,
			MaxNodeRecvBytes: lt.MaxNodeRecvBytes,
			ModelSec:         rep.Layers[i].Seconds,
		})
	}
	return out
}
