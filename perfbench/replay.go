package main

import (
	"fmt"
	"time"

	"kylix/internal/comm"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// kernelBudget is roughly how long each replayed kernel is timed.
const kernelBudget = 150 * time.Millisecond

// timeKernel returns fn's median time per call (ns) over nine samples,
// each a batch of calls sized to about a twentieth of kernelBudget.
func timeKernel(fn func()) float64 {
	fn()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= kernelBudget/20 {
			break
		}
		n *= 2
	}
	samples := make([]float64, 9)
	for s := range samples {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[s] = float64(time.Since(start)) / float64(n)
	}
	return median(samples)
}

// replayKernels times single-goroutine calls into the public sparse and
// comm functions on one batch of the workload's generated data, at the
// sizes the protocol meets them: the pieces rank 0 receives in layer 1
// (each group member's keys in rank 0's layer-1 hash range), their
// union, and value blocks of those pieces.
func replayKernels(b *batch, bf *topo.Butterfly, width int, quant sparse.Quantization) (map[string]float64, error) {
	group := bf.Group(0, 1)
	d, t := len(group), bf.Digit(0, 1)
	pieces := make([]sparse.Set, d)
	vals := make([][]float32, d)
	keys, values := 0, 0
	for j, member := range group {
		set, _, err := sparse.NewSet(b.idx[member])
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		pieces[j] = sparse.Piece(set, sparse.SplitOffsets(set, sparse.FullRange(), d), t)
		vals[j] = b.vals[member][:len(pieces[j])*width]
		keys += len(pieces[j])
		values += len(vals[j])
	}
	if keys == 0 {
		return nil, fmt.Errorf("replay: rank 0 receives no keys in layer 1")
	}
	maps := make([][]int32, d)
	for j := range maps {
		maps[j] = make([]int32, len(pieces[j]))
	}
	var us sparse.UnionScratch
	m := map[string]float64{}
	m["sparse.union_ns_per_key"] = timeKernel(func() { us.UnionMaps(pieces, maps) }) / float64(keys)
	union := us.UnionMaps(pieces, maps).Clone()

	var buf []byte
	var dec sparse.Set
	var codecErr error
	m["sparse.keys_codec_ns_per_key"] = timeKernel(func() {
		for _, p := range pieces {
			buf = sparse.AppendCompressed(buf[:0], p)
			var err error
			if dec, _, err = sparse.DecodeCompressed(dec[:0], buf); err != nil {
				codecErr = err
			}
		}
	}) / float64(keys)
	if codecErr != nil {
		return nil, fmt.Errorf("replay: keys codec: %w", codecErr)
	}

	acc := make([]float32, len(union)*width)
	m["sparse.combine_ns_per_value"] = timeKernel(func() {
		for j := range pieces {
			sparse.CombineInto(sparse.Sum, acc, maps[j], vals[j], width)
		}
	}) / float64(values)
	out := make([][]float32, d)
	for j := range out {
		out[j] = make([]float32, len(vals[j]))
	}
	m["sparse.gather_ns_per_value"] = timeKernel(func() {
		for j := range pieces {
			sparse.GatherInto(out[j], maps[j], acc, width, 0)
		}
	}) / float64(values)

	// The quantize kernels on the workload's own value path, timed only
	// where the workload quantizes; elsewhere the metric reads 0.
	if quant != sparse.QuantOff {
		var x []float32
		for _, v := range vals {
			x = append(x, v...)
		}
		q := make([]byte, sparse.QuantizedSize(quant, len(x)))
		res := make([]float32, len(x))
		back := make([]float32, len(x))
		m["sparse.quant_ns_per_value"] = timeKernel(func() {
			sparse.Quantize(quant, q, x, res)
			sparse.Dequantize(quant, back, q)
		}) / float64(len(x))
	} else {
		m["sparse.quant_ns_per_value"] = 0
	}

	// The payload codec on the workload's own value path: Floats for
	// raw values, QVals for quantized ones.
	payloads := make([]comm.Payload, d)
	for j, v := range vals {
		if quant == sparse.QuantOff {
			payloads[j] = &comm.Floats{Vals: v}
			continue
		}
		data := make([]byte, sparse.QuantizedSize(quant, len(v)))
		sparse.Quantize(quant, data, v, nil)
		payloads[j] = &comm.QVals{Mode: quant, N: len(v), Data: data}
	}
	var wire []byte
	m["comm.codec_ns_per_value"] = timeKernel(func() {
		for _, p := range payloads {
			wire = p.AppendTo(wire[:0])
			if _, err := comm.DecodePayload(wire); err != nil {
				codecErr = err
			}
		}
	}) / float64(values)
	if codecErr != nil {
		return nil, fmt.Errorf("replay: payload codec: %w", codecErr)
	}
	return m, nil
}
