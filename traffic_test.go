package kylix

import (
	"sync"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/netsim"
	"kylix/internal/trace"
)

// TestTrafficReportRowsMatchTheirOwnModel builds traffic reports while
// another goroutine keeps adding new (kind, layer) cells, and checks
// that every row's ModelSec is the model's time for that row's own
// counts: rows and modelled times must come from one snapshot.
func TestTrafficReportRowsMatchTheirOwnModel(t *testing.T) {
	const nodes = 4
	col := trace.NewCollector(nodes)
	model := netsim.EC2()
	kinds := []comm.Kind{comm.KindGather, comm.KindConfig, comm.KindApp, comm.KindReduce, comm.KindConfigReduce}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Cells appear across every kind, so each new one sorts between
		// existing rows, and existing cells keep growing. Sizes vary per
		// cell so that a row joined with another cell's time is visible.
		// Self-sends are left out: the report's rows do not carry the
		// self raw volume the model uses.
		for round := 0; ; round++ {
			for layer := 1; layer <= 200; layer++ {
				for i, k := range kinds {
					select {
					case <-stop:
						return
					default:
					}
					size := 1000*layer + 100*i + round
					for msg := 0; msg <= i; msg++ {
						col.Record(msg%nodes, (msg+1)%nodes, comm.MakeTag(k, layer, 0), size, 3*size)
					}
				}
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	for iter := 0; iter < 200; iter++ {
		rep := buildTrafficReport(col, model, 2)
		for _, row := range rep.Layers {
			own := netsim.Estimate(nodes, []trace.LayerTraffic{{
				Kind: phaseKind(row.Phase), Layer: row.Layer, Msgs: row.Msgs, Bytes: row.Bytes, RawBytes: row.RawBytes,
			}}, model, 2)
			if want := own.Layers[0].Seconds; row.ModelSec != want {
				t.Fatalf("report %d, %s L%d: ModelSec %g, want %g for its own counts", iter, row.Phase, row.Layer, row.ModelSec, want)
			}
		}
	}
}

// phaseKind inverts phaseOf for the protocol kinds.
func phaseKind(p Phase) comm.Kind {
	for _, k := range []comm.Kind{comm.KindConfig, comm.KindReduce, comm.KindGather, comm.KindConfigReduce} {
		if phaseOf(k) == p {
			return k
		}
	}
	return comm.KindApp
}
