package trace

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kylix/internal/comm"
)

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector(4)
	tag1 := comm.MakeTag(comm.KindConfig, 1, 0)
	tag2 := comm.MakeTag(comm.KindConfig, 2, 0)
	c.Record(0, 1, tag1, 100, 400)
	c.Record(0, 0, tag1, 50, 200) // self send
	c.Record(1, 2, tag1, 100, 400)
	c.Record(2, 3, tag2, 10, 10)

	layers := c.KindLayers(comm.KindConfig)
	if len(layers) != 2 {
		t.Fatalf("want 2 layers, got %d", len(layers))
	}
	l1 := layers[0]
	if l1.Layer != 1 || l1.Msgs != 3 || l1.Bytes != 250 {
		t.Fatalf("layer1 = %+v", l1)
	}
	if l1.SelfMsgs != 1 || l1.SelfBytes != 50 {
		t.Fatalf("self accounting wrong: %+v", l1)
	}
	if l1.RawBytes != 1000 || l1.SelfRawBytes != 200 {
		t.Fatalf("raw accounting wrong: %+v", l1)
	}
	if l1.MaxNodeBytes != 150 || l1.MaxNodeMsgs != 2 {
		t.Fatalf("max-node accounting wrong: %+v", l1)
	}
	if c.TotalBytes(comm.KindConfig) != 260 {
		t.Fatalf("total = %d", c.TotalBytes(comm.KindConfig))
	}
	if c.TotalBytes(comm.KindReduce) != 0 {
		t.Fatal("unexpected reduce traffic")
	}
}

func TestCollectorLayersSorted(t *testing.T) {
	c := NewCollector(2)
	c.Record(0, 1, comm.MakeTag(comm.KindReduce, 3, 0), 1, 1)
	c.Record(0, 1, comm.MakeTag(comm.KindConfig, 2, 0), 1, 1)
	c.Record(0, 1, comm.MakeTag(comm.KindConfig, 1, 0), 1, 1)
	layers := c.Layers()
	if len(layers) != 3 {
		t.Fatalf("want 3 cells, got %d", len(layers))
	}
	if layers[0].Kind != comm.KindConfig || layers[0].Layer != 1 ||
		layers[1].Layer != 2 || layers[2].Kind != comm.KindReduce {
		t.Fatalf("not sorted: %+v", layers)
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector(2)
	c.Record(0, 1, comm.MakeTag(comm.KindConfig, 1, 0), 9, 9)
	c.Reset()
	if len(c.Layers()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestCollectorMachines(t *testing.T) {
	if NewCollector(7).Machines() != 7 {
		t.Fatal("Machines() wrong")
	}
}

func TestCollectorString(t *testing.T) {
	c := NewCollector(2)
	c.Record(0, 1, comm.MakeTag(comm.KindGather, 1, 0), 42, 42)
	s := c.String()
	if !strings.Contains(s, "gather") || !strings.Contains(s, "42") {
		t.Fatalf("String() = %q", s)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Record(g, (g+1)%8, comm.MakeTag(comm.KindReduce, 1, 0), 10, 10)
			}
		}(g)
	}
	wg.Wait()
	layers := c.KindLayers(comm.KindReduce)
	if len(layers) != 1 || layers[0].Msgs != 8000 || layers[0].Bytes != 80000 {
		t.Fatalf("lost samples: %+v", layers)
	}
}

func TestCollectorRejectsInvalidRanks(t *testing.T) {
	c := NewCollector(4)
	tag := comm.MakeTag(comm.KindReduce, 1, 0)
	c.Record(-1, 0, tag, 10, 10)
	c.Record(4, 0, tag, 10, 10)
	c.Record(0, -1, tag, 10, 10)
	c.Record(0, 4, tag, 10, 10)
	if len(c.Layers()) != 0 {
		t.Fatalf("invalid ranks produced traffic cells: %+v", c.Layers())
	}
	if got := c.InvalidRecords(); got != 4 {
		t.Fatalf("InvalidRecords = %d, want 4", got)
	}
	c.Record(0, 3, tag, 10, 10) // valid boundary ranks still count
	c.Record(3, 0, tag, 10, 10)
	if got := c.KindLayers(comm.KindReduce)[0].Msgs; got != 2 {
		t.Fatalf("valid boundary records lost: msgs = %d", got)
	}
	c.Reset()
	if c.InvalidRecords() != 0 {
		t.Fatal("Reset did not clear the invalid count")
	}
}

func TestCollectorPerReceiverMax(t *testing.T) {
	c := NewCollector(4)
	tag := comm.MakeTag(comm.KindReduce, 1, 0)
	// Rank 3 is the fan-in hotspot: every sender targets it.
	for from := 0; from < 4; from++ {
		c.Record(from, 3, tag, 100, 100)
	}
	c.Record(0, 1, tag, 50, 50)
	lt := c.KindLayers(comm.KindReduce)[0]
	if lt.MaxNodeRecvBytes != 400 || lt.MaxNodeRecvMsgs != 4 {
		t.Fatalf("per-receiver max = (%d bytes, %d msgs), want (400, 4)", lt.MaxNodeRecvBytes, lt.MaxNodeRecvMsgs)
	}
	// Per-sender max is unchanged by fan-in: the busiest sender is rank 0
	// with 150 bytes.
	if lt.MaxNodeBytes != 150 || lt.MaxNodeMsgs != 2 {
		t.Fatalf("per-sender max = (%d bytes, %d msgs), want (150, 2)", lt.MaxNodeBytes, lt.MaxNodeMsgs)
	}
}

// TestCollectorHammer drives Record, Layers, String and Reset from many
// goroutines at once; under -race it proves the sharded collector's
// synchronization.
func TestCollectorHammer(t *testing.T) {
	const m = 8
	c := NewCollector(m)
	var recorders, reader sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < m; g++ {
		recorders.Add(1)
		go func(g int) {
			defer recorders.Done()
			tag := comm.MakeTag(comm.KindReduce, 1+g%3, 0)
			for i := 0; i < 5000; i++ {
				c.Record(g, (g+i)%m, tag, 8, 8)
			}
		}(g)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Layers()
			_ = c.String()
			c.Reset()
		}
	}()
	recorders.Wait()
	close(stop)
	reader.Wait()
	// No totals to assert (Reset races with Record by design); the test's
	// value is its -race cleanliness and absence of panics.
	_ = c.Layers()
}

// BenchmarkCollectorRecordParallel measures Record under full sender
// parallelism — the transport hot path of every machine at once. The
// per-sender sharding means throughput should scale with senders
// instead of collapsing onto one global mutex.
func BenchmarkCollectorRecordParallel(b *testing.B) {
	const m = 16
	c := NewCollector(m)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		from := int(next.Add(1)-1) % m
		tag := comm.MakeTag(comm.KindReduce, 1, 0)
		to := 0
		for pb.Next() {
			c.Record(from, to, tag, 64, 64)
			to = (to + 1) % m
		}
	})
}
