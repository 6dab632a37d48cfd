package netsim

import (
	"math"
	"math/rand"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/trace"
)

func TestGoodputCurveShape(t *testing.T) {
	m := EC2()
	if m.Goodput(0) != 0 || m.Goodput(-5) != 0 {
		t.Error("non-positive packets should have zero goodput")
	}
	// Monotone increasing, asymptoting to peak.
	prev := 0.0
	for _, s := range []float64{1 << 10, 1 << 16, 1 << 20, 5 << 20, 64 << 20} {
		g := m.Goodput(s)
		if g <= prev {
			t.Fatalf("goodput not increasing at %g", s)
		}
		if g >= m.BandwidthBps {
			t.Fatalf("goodput exceeds peak at %g", s)
		}
		prev = g
	}
}

func TestCalibrationMatchesPaperAnchors(t *testing.T) {
	m := EC2()
	// ~5 MB packets mask the overhead (paper: minimum efficient size).
	if f := m.GoodputFraction(5 << 20); f < 0.75 {
		t.Errorf("5MB packets reach only %.0f%% of peak", 100*f)
	}
	// 0.4 MB packets fall to roughly 30% of bandwidth (paper Fig 2/6).
	if f := m.GoodputFraction(0.4 * float64(1<<20)); f < 0.15 || f > 0.45 {
		t.Errorf("0.4MB packets reach %.0f%%, want ~24-30%%", 100*f)
	}
	// Half-throughput point is o*BW.
	if hp := m.HalfPacket(); math.Abs(m.GoodputFraction(hp)-0.5) > 1e-9 {
		t.Error("half-packet point is not half throughput")
	}
}

func TestMinEfficientPacketInvertsGoodput(t *testing.T) {
	m := EC2()
	for _, frac := range []float64{0.3, 0.5, 0.8, 0.95} {
		s := m.MinEfficientPacket(frac)
		if math.Abs(m.GoodputFraction(s)-frac) > 1e-9 {
			t.Errorf("MinEfficientPacket(%g) = %g does not invert", frac, s)
		}
	}
	if !math.IsNaN(m.MinEfficientPacket(0)) || !math.IsNaN(m.MinEfficientPacket(1)) {
		t.Error("degenerate fractions should return NaN")
	}
}

func TestNodePhaseTimeThreadScaling(t *testing.T) {
	m := EC2()
	const msgs, bytes = 64, 64 << 20
	t1 := m.NodePhaseTime(msgs, bytes, 1)
	t4 := m.NodePhaseTime(msgs, bytes, 4)
	t16 := m.NodePhaseTime(msgs, bytes, 16)
	t32 := m.NodePhaseTime(msgs, bytes, 32)
	if !(t1 > t4 && t4 > t16) {
		t.Fatalf("threading should help: %g %g %g", t1, t4, t16)
	}
	// Beyond the core count the benefit is gone (Figure 7 flattening).
	if t32 != t16 {
		t.Fatalf("t32=%g t16=%g; gains should stop at Cores", t32, t16)
	}
	// Wire time is a floor no threading removes.
	if t16 < float64(bytes)/m.BandwidthBps {
		t.Fatal("phase time fell below wire time")
	}
	if m.NodePhaseTime(0, 0, 4) != 0 {
		t.Fatal("empty phase should cost nothing")
	}
}

func TestComputeDiskSerializeLinear(t *testing.T) {
	m := EC2()
	if m.ComputeTime(2e9) <= m.ComputeTime(1e9) {
		t.Error("compute not monotone")
	}
	if m.DiskTime(1e8) <= 0 || m.SerializeTime(5e7) <= 0 {
		t.Error("disk/serialize times must be positive")
	}
	if math.Abs(m.DiskTime(int64(m.DiskBps))-1) > 1e-9 {
		t.Error("DiskTime(m.DiskBps bytes) should be 1s")
	}
}

func TestPacketSweep(t *testing.T) {
	m := EC2()
	sizes := []float64{64 << 10, 1 << 20, 5 << 20}
	pts := m.PacketSweep(sizes)
	if len(pts) != 3 {
		t.Fatal("wrong sweep length")
	}
	for i, p := range pts {
		if p.PacketBytes != sizes[i] || p.Fraction != m.GoodputFraction(sizes[i]) {
			t.Fatal("sweep point inconsistent")
		}
	}
}

// estimate models one snapshot of col.
func estimate(col *trace.Collector, m Model, threads int) Report {
	return Estimate(col.Machines(), col.Layers(), m, threads)
}

func TestEstimateSeparatesPhases(t *testing.T) {
	col := trace.NewCollector(4)
	// Config traffic at layer 1, reduce at layers 1-2, gather at 1.
	for from := 0; from < 4; from++ {
		col.Record(from, (from+1)%4, comm.MakeTag(comm.KindConfig, 1, 0), 1<<20, 1<<20)
		col.Record(from, from, comm.MakeTag(comm.KindConfig, 1, 0), 1<<20, 1<<20) // self: free
		col.Record(from, (from+1)%4, comm.MakeTag(comm.KindReduce, 1, 0), 1<<20, 1<<20)
		col.Record(from, (from+2)%4, comm.MakeTag(comm.KindReduce, 2, 0), 1<<19, 1<<19)
		col.Record(from, (from+1)%4, comm.MakeTag(comm.KindGather, 1, 0), 1<<19, 1<<19)
	}
	rep := estimate(col, EC2(), 16)
	if rep.ConfigSec <= 0 || rep.ReduceSec <= 0 {
		t.Fatalf("phases missing: %+v", rep)
	}
	if len(rep.Layers) != 4 {
		t.Fatalf("want 4 layer rows, got %d", len(rep.Layers))
	}
	if rep.TotalSec() != rep.ConfigSec+rep.ReduceSec {
		t.Fatal("total inconsistent")
	}
	// Self traffic must not be charged: config row should show exactly
	// the non-self bytes.
	for _, lt := range rep.Layers {
		if lt.Kind == comm.KindConfig && lt.WireBytes != 4<<20 {
			t.Fatalf("config wire bytes = %d, want %d", lt.WireBytes, 4<<20)
		}
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestEstimateSmallPacketsCostMore(t *testing.T) {
	// Same byte volume in many small messages must take longer than in
	// few large ones: the effect that kills direct allreduce at scale.
	mkCol := func(msgs int, msgSize int) *trace.Collector {
		col := trace.NewCollector(2)
		for i := 0; i < msgs; i++ {
			col.Record(0, 1, comm.MakeTag(comm.KindReduce, 1, uint32(i)), msgSize, msgSize)
		}
		return col
	}
	m := EC2()
	small := estimate(mkCol(64, 1<<18), m, 1)
	large := estimate(mkCol(4, 1<<22), m, 1)
	if small.ReduceSec <= large.ReduceSec {
		t.Fatalf("small packets %.4fs should cost more than large %.4fs",
			small.ReduceSec, large.ReduceSec)
	}
}

func TestEstimateFusedConfigReduceCountsAsConfig(t *testing.T) {
	col := trace.NewCollector(2)
	col.Record(0, 1, comm.MakeTag(comm.KindConfigReduce, 1, 0), 1<<20, 1<<20)
	rep := estimate(col, EC2(), 4)
	if rep.ConfigSec <= 0 || rep.ReduceSec != 0 {
		t.Fatalf("fused traffic misclassified: %+v", rep)
	}
}

func TestEstimateEmptyCollector(t *testing.T) {
	rep := estimate(trace.NewCollector(0), EC2(), 4)
	if rep.TotalSec() != 0 || len(rep.Layers) != 0 {
		t.Fatal("empty trace should produce empty report")
	}
}

func TestRacingModelProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rm := RacingModel{BaseLatency: 2, Sigma: 0}
	// Deterministic latencies: phase latency is exactly the base.
	if v := rm.PhaseLatency(rng, 8, 1, 100); v != 2 {
		t.Fatalf("deterministic phase latency %f", v)
	}
	if rm.PhaseLatency(rng, 0, 1, 10) != 0 || rm.PhaseLatency(rng, 1, 0, 10) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
	// More peers -> longer expected max; more replicas -> shorter.
	rm.Sigma = 0.8
	d4 := rm.PhaseLatency(rng, 4, 1, 20000)
	d16 := rm.PhaseLatency(rng, 16, 1, 20000)
	if d16 <= d4 {
		t.Fatalf("max over more peers should grow: %f vs %f", d4, d16)
	}
	s1 := rm.PhaseLatency(rng, 8, 1, 20000)
	s2 := rm.PhaseLatency(rng, 8, 2, 20000)
	s3 := rm.PhaseLatency(rng, 8, 3, 20000)
	if !(s3 < s2 && s2 < s1) {
		t.Fatalf("racing should shorten phases: %f %f %f", s1, s2, s3)
	}
}
