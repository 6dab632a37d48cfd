package kylix_test

import (
	"fmt"
	"testing"

	"kylix"
)

// TestByteAccountingOracle checks that every byte view of one run
// agrees: span BytesOut per (kind, layer), the bytes_<kind>_L<n>
// counters and the transport-fed traffic report; the config_bytes_* and
// values_bytes_* counters against the report's Bytes/RawBytes summed
// over their phases; and span BytesIn against recv_bytes. The absolute
// figures pin the accounting of this fixed workload on both transports,
// with and without fp16 value quantization.
func TestByteAccountingOracle(t *testing.T) {
	const (
		m   = 16
		n   = int64(4096)
		nnz = 512
	)
	sets := zipfSets(t, m, n, nnz)
	transports := []struct {
		name string
		t    kylix.Transport
	}{{"memory", kylix.TransportMemory}, {"tcp", kylix.TransportTCP}}
	quants := []struct {
		name string
		q    kylix.Quantization
		want map[string]int64
	}{
		{"off", kylix.QuantOff, map[string]int64{
			"config_bytes_encoded": 82562, "config_bytes_raw": 262312,
			"values_bytes_encoded": 158232, "values_bytes_raw": 158232,
			"recv_bytes": 240794, "recv_msgs": 512,
		}},
		{"fp16", kylix.QuantFP16, map[string]int64{
			"config_bytes_encoded": 82562, "config_bytes_raw": 262312,
			"values_bytes_encoded": 79386, "values_bytes_raw": 158232,
			"recv_bytes": 161948, "recv_msgs": 512,
		}},
	}
	for _, tp := range transports {
		for _, qc := range quants {
			t.Run(tp.name+"/"+qc.name, func(t *testing.T) {
				cluster, err := kylix.NewCluster(m,
					kylix.WithDegrees(4, 4),
					kylix.WithTransport(tp.t),
					kylix.WithQuantization(qc.q),
					kylix.WithObservability(),
					kylix.WithTrace())
				if err != nil {
					t.Fatal(err)
				}
				defer cluster.Close()
				err = cluster.Run(func(node *kylix.Node) error {
					set := sets[node.Rank()]
					vals := make([]float32, len(set))
					for i := range vals {
						vals[i] = 1
					}
					red, _, err := node.ConfigureReduce(set, set, vals)
					if err != nil {
						return err
					}
					_, err = red.Reduce(vals)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				checkByteAccounting(t, cluster, qc.want)
			})
		}
	}
}

func checkByteAccounting(t *testing.T, cluster *kylix.Cluster, want map[string]int64) {
	t.Helper()
	counters := cluster.Metrics().Snapshot().Counters
	rep, err := cluster.Traffic(1)
	if err != nil {
		t.Fatal(err)
	}

	spanOut := map[string]int64{}
	var spanIn int64
	for _, sp := range cluster.Observability().Spans() {
		if sp.Event != "" {
			continue
		}
		spanIn += sp.BytesIn
		if sp.Layer > 0 && sp.BytesOut > 0 {
			spanOut[fmt.Sprintf("bytes_%s_L%d", sp.Kind, sp.Layer)] += sp.BytesOut
		}
	}

	var configEnc, configRaw, valuesEnc, valuesRaw int64
	for _, lt := range rep.Layers {
		name := fmt.Sprintf("bytes_%s_L%d", lt.Phase, lt.Layer)
		if spanOut[name] != lt.Bytes || counters[name] != lt.Bytes {
			t.Errorf("%s: spans %d, counter %d, traffic report %d", name, spanOut[name], counters[name], lt.Bytes)
		}
		delete(spanOut, name)
		switch lt.Phase {
		case kylix.PhaseConfig, kylix.PhaseConfigReduce:
			configEnc += lt.Bytes
			configRaw += lt.RawBytes
		case kylix.PhaseReduce, kylix.PhaseGather:
			valuesEnc += lt.Bytes
			valuesRaw += lt.RawBytes
		}
	}
	for name, b := range spanOut {
		t.Errorf("%s: spans sent %d bytes the traffic report never saw", name, b)
	}

	for name, got := range map[string]int64{
		"config_bytes_encoded": configEnc, "config_bytes_raw": configRaw,
		"values_bytes_encoded": valuesEnc, "values_bytes_raw": valuesRaw,
		"recv_bytes": spanIn,
	} {
		if counters[name] != got {
			t.Errorf("%s = %d, but its source sums to %d", name, counters[name], got)
		}
	}
	for name, w := range want {
		if counters[name] != w {
			t.Errorf("%s = %d, want %d", name, counters[name], w)
		}
	}
}
