package core

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// workload is one machine's allreduce input.
type workload struct {
	in   sparse.Set
	out  sparse.Set
	vals []float32
}

// randWorkloads draws m random workloads over a feature space,
// guaranteeing union(in) ⊆ union(out) by making machine r output its own
// in-set features too when withCover is set.
func randWorkloads(rng *rand.Rand, m, space, avg, width int, withCover bool) []workload {
	ws := make([]workload, m)
	for r := range ws {
		nIn := 1 + rng.Intn(2*avg)
		nOut := 1 + rng.Intn(2*avg)
		inIdx := make([]int32, nIn)
		for i := range inIdx {
			inIdx[i] = int32(rng.Intn(space))
		}
		outIdx := make([]int32, 0, nOut+nIn)
		for i := 0; i < nOut; i++ {
			outIdx = append(outIdx, int32(rng.Intn(space)))
		}
		if withCover {
			outIdx = append(outIdx, inIdx...)
		}
		in := sparse.MustNewSet(inIdx)
		out := sparse.MustNewSet(outIdx)
		vals := make([]float32, len(out)*width)
		for i := range vals {
			vals[i] = float32(rng.Intn(100)) / 4
		}
		ws[r] = workload{in: in, out: out, vals: vals}
	}
	return ws
}

// refReduce computes the expected gathered values for each machine by
// brute force.
func refReduce(ws []workload, red sparse.Reducer, width int) [][]float32 {
	type slot struct {
		vals []float32
		seen bool
	}
	total := map[sparse.Key]*slot{}
	for _, w := range ws {
		for i, k := range w.out {
			s := total[k]
			if s == nil {
				s = &slot{vals: make([]float32, width)}
				sparse.Fill(s.vals, red.Identity())
				total[k] = s
			}
			red.Combine(s.vals, w.vals[i*width:(i+1)*width])
			s.seen = true
		}
	}
	out := make([][]float32, len(ws))
	for r, w := range ws {
		res := make([]float32, len(w.in)*width)
		for i, k := range w.in {
			if s := total[k]; s != nil {
				copy(res[i*width:(i+1)*width], s.vals)
			}
		}
		out[r] = res
	}
	return out
}

func almostEqual(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > tol*(1+math.Abs(float64(b[i]))) {
			return false
		}
	}
	return true
}

// runAllreduce executes configure+reduce on every machine and returns
// the gathered values per rank.
func runAllreduce(t *testing.T, degrees []int, ws []workload, opts Options) [][]float32 {
	t.Helper()
	bf := topo.MustNew(degrees)
	n := memnet.New(bf.M())
	defer n.Close()
	results := make([][]float32, bf.M())
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, opts)
		if err != nil {
			return err
		}
		cfg, err := m.Configure(ws[ep.Rank()].in, ws[ep.Rank()].out)
		if err != nil {
			return err
		}
		res, err := cfg.Reduce(ws[ep.Rank()].vals)
		if err != nil {
			return err
		}
		results[ep.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestAllreduceMatchesReferenceAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, degrees := range [][]int{{1}, {2}, {4}, {2, 2}, {4, 2}, {2, 2, 2}, {3, 2}, {8}, {2, 3}} {
		bf := topo.MustNew(degrees)
		ws := randWorkloads(rng, bf.M(), 500, 60, 1, true)
		want := refReduce(ws, sparse.Sum, 1)
		got := runAllreduce(t, degrees, ws, Options{})
		for r := range ws {
			if !almostEqual(got[r], want[r], 1e-4) {
				t.Fatalf("topology %v rank %d mismatch\n got %v\nwant %v", degrees, r, got[r], want[r])
			}
		}
	}
}

func TestAllreduceWidth3(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := randWorkloads(rng, 8, 200, 30, 3, true)
	want := refReduce(ws, sparse.Sum, 3)
	got := runAllreduce(t, []int{4, 2}, ws, Options{Width: 3})
	for r := range ws {
		if !almostEqual(got[r], want[r], 1e-4) {
			t.Fatalf("rank %d width-3 mismatch", r)
		}
	}
}

func TestAllreduceMaxReducer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := randWorkloads(rng, 8, 300, 40, 1, true)
	want := refReduce(ws, sparse.Max, 1)
	got := runAllreduce(t, []int{2, 2, 2}, ws, Options{Reducer: sparse.Max})
	for r := range ws {
		if !almostEqual(got[r], want[r], 0) {
			t.Fatalf("rank %d max mismatch", r)
		}
	}
}

func TestAllreduceOrReducer(t *testing.T) {
	// Bit masks reduce exactly under OR regardless of message order.
	rng := rand.New(rand.NewSource(17))
	m := 4
	ws := make([]workload, m)
	for r := range ws {
		out := sparse.MustNewSet([]int32{1, 2, 3, 4, 5})
		vals := make([]float32, len(out))
		for i := range vals {
			vals[i] = math.Float32frombits(1 << uint(rng.Intn(20)))
		}
		ws[r] = workload{in: out.Clone(), out: out, vals: vals}
	}
	want := refReduce(ws, sparse.Or, 1)
	got := runAllreduce(t, []int{2, 2}, ws, Options{Reducer: sparse.Or})
	for r := range ws {
		for i := range got[r] {
			if math.Float32bits(got[r][i]) != math.Float32bits(want[r][i]) {
				t.Fatalf("rank %d OR mismatch at %d", r, i)
			}
		}
	}
}

func TestRepeatedReduceReusesConfig(t *testing.T) {
	// Configure once, reduce many times with fresh values: the PageRank
	// pattern.
	rng := rand.New(rand.NewSource(23))
	bf := topo.MustNew([]int{2, 2})
	ws := randWorkloads(rng, bf.M(), 200, 30, 1, true)
	n := memnet.New(bf.M())
	defer n.Close()
	const iters = 4
	results := make([][][]float32, bf.M())
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(ws[ep.Rank()].in, ws[ep.Rank()].out)
		if err != nil {
			return err
		}
		for it := 0; it < iters; it++ {
			vals := make([]float32, len(ws[ep.Rank()].vals))
			for i, v := range ws[ep.Rank()].vals {
				vals[i] = v * float32(it+1)
			}
			res, err := cfg.Reduce(vals)
			if err != nil {
				return err
			}
			// Reduce results are arena-owned (valid until the second-
			// following round); copy to retain across iterations.
			results[ep.Rank()] = append(results[ep.Rank()], append([]float32(nil), res...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	base := refReduce(ws, sparse.Sum, 1)
	for r := range ws {
		for it := 0; it < iters; it++ {
			want := make([]float32, len(base[r]))
			for i, v := range base[r] {
				want[i] = v * float32(it+1)
			}
			if !almostEqual(results[r][it], want, 1e-4) {
				t.Fatalf("rank %d iter %d mismatch", r, it)
			}
		}
	}
}

func TestRoundsCrossOldTagCeiling(t *testing.T) {
	// Tag sequences span the full 32-bit field: a machine started just
	// below 2^24 configures and reduces straight across it.
	rng := rand.New(rand.NewSource(29))
	bf := topo.MustNew([]int{2, 2})
	ws := randWorkloads(rng, bf.M(), 200, 30, 1, true)
	want := refReduce(ws, sparse.Sum, 1)
	n := memnet.New(bf.M())
	defer n.Close()
	const base, iters = 1<<24 - 2, 4
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{RoundBase: base})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(ws[ep.Rank()].in, ws[ep.Rank()].out)
		if err != nil {
			return err
		}
		for it := 0; it < iters; it++ {
			res, err := cfg.Reduce(ws[ep.Rank()].vals)
			if err != nil {
				return err
			}
			if !almostEqual(res, want[ep.Rank()], 1e-4) {
				t.Errorf("rank %d round %d mismatch", ep.Rank(), base+1+it)
			}
		}
		if got := m.RoundsUsed(); got != 1+iters {
			t.Errorf("rank %d used %d rounds, want %d", ep.Rank(), got, 1+iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoundWrapPanics(t *testing.T) {
	// The last sequence number is usable; one past it would wrap onto
	// live tags and must panic instead.
	m := &Machine{opts: Options{RoundBase: math.MaxUint32}}
	if r := m.nextRound(); r != math.MaxUint32 {
		t.Fatalf("nextRound = %d, want %d", r, uint32(math.MaxUint32))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("round past 2^32 did not panic")
		}
	}()
	m.nextRound()
}

func TestConfigureReduceMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, degrees := range [][]int{{4}, {2, 2}, {4, 2}} {
		bf := topo.MustNew(degrees)
		ws := randWorkloads(rng, bf.M(), 300, 40, 1, true)
		want := refReduce(ws, sparse.Sum, 1)
		n := memnet.New(bf.M())
		results := make([][]float32, bf.M())
		err := memnet.Run(n, func(ep comm.Endpoint) error {
			m, err := NewMachine(ep, bf, Options{})
			if err != nil {
				return err
			}
			_, res, err := m.ConfigureReduce(ws[ep.Rank()].in, ws[ep.Rank()].out, ws[ep.Rank()].vals)
			if err != nil {
				return err
			}
			results[ep.Rank()] = res
			return nil
		})
		n.Close()
		if err != nil {
			t.Fatal(err)
		}
		for r := range ws {
			if !almostEqual(results[r], want[r], 1e-4) {
				t.Fatalf("topology %v rank %d combined mismatch", degrees, r)
			}
		}
	}
}

func TestConfigureReduceConfigReusable(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	bf := topo.MustNew([]int{2, 2})
	ws := randWorkloads(rng, bf.M(), 200, 30, 1, true)
	want := refReduce(ws, sparse.Sum, 1)
	n := memnet.New(bf.M())
	defer n.Close()
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		cfg, res1, err := m.ConfigureReduce(ws[ep.Rank()].in, ws[ep.Rank()].out, ws[ep.Rank()].vals)
		if err != nil {
			return err
		}
		res2, err := cfg.Reduce(ws[ep.Rank()].vals)
		if err != nil {
			return err
		}
		if !almostEqual(res1, want[ep.Rank()], 1e-4) || !almostEqual(res2, want[ep.Rank()], 1e-4) {
			t.Errorf("rank %d: combined config not reusable", ep.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTreeAllreduceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range []int{1, 2, 5, 8} {
		ws := randWorkloads(rng, m, 300, 40, 1, true)
		want := refReduce(ws, sparse.Sum, 1)
		n := memnet.New(m)
		results := make([][]float32, m)
		blowup := make([]int, m)
		bf := topo.MustNew([]int{m})
		err := memnet.Run(n, func(ep comm.Endpoint) error {
			mach, err := NewMachine(ep, bf, Options{})
			if err != nil {
				return err
			}
			res, maxUnion, err := mach.TreeAllreduce(ws[ep.Rank()].in, ws[ep.Rank()].out, ws[ep.Rank()].vals)
			if err != nil {
				return err
			}
			results[ep.Rank()] = res
			blowup[ep.Rank()] = maxUnion
			return nil
		})
		n.Close()
		if err != nil {
			t.Fatal(err)
		}
		for r := range ws {
			if !almostEqual(results[r], want[r], 1e-4) {
				t.Fatalf("m=%d rank %d tree mismatch", m, r)
			}
		}
		// The root's union is the global union: the §II-A1 blow-up.
		if m > 1 {
			all := make([]sparse.Set, m)
			for r := range ws {
				all[r] = ws[r].out
			}
			globalUnion := len(sparse.TreeUnion(all))
			if blowup[0] != globalUnion {
				t.Fatalf("root union %d, want global %d", blowup[0], globalUnion)
			}
		}
	}
}

func TestStrictModeReportsMissing(t *testing.T) {
	// Machine 0 asks for an index nobody outputs.
	bf := topo.MustNew([]int{2})
	n := memnet.New(2)
	defer n.Close()
	var mu sync.Mutex
	var sawErr bool
	_ = memnet.Run(n, func(ep comm.Endpoint) error {
		m, _ := NewMachine(ep, bf, Options{Strict: true})
		in := sparse.MustNewSet([]int32{1, 999})
		out := sparse.MustNewSet([]int32{1, 2})
		_, err := m.Configure(in, out)
		if err != nil && strings.Contains(err.Error(), "no contributor") {
			mu.Lock()
			sawErr = true
			mu.Unlock()
		}
		return nil
	})
	if !sawErr {
		t.Fatal("strict mode did not flag the missing index")
	}
}

func TestLenientModeZeroFills(t *testing.T) {
	bf := topo.MustNew([]int{2})
	n := memnet.New(2)
	defer n.Close()
	results := make([][]float32, 2)
	missing := make([]int, 2)
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, _ := NewMachine(ep, bf, Options{})
		in := sparse.MustNewSet([]int32{1, 999})
		out := sparse.MustNewSet([]int32{1})
		cfg, err := m.Configure(in, out)
		if err != nil {
			return err
		}
		missing[ep.Rank()] = cfg.Missing()
		res, err := cfg.Reduce([]float32{3})
		if err != nil {
			return err
		}
		results[ep.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, res := range results {
		in := sparse.MustNewSet([]int32{1, 999})
		p1, _ := in.Position(sparse.MakeKey(1))
		p999, _ := in.Position(sparse.MakeKey(999))
		if res[p1] != 6 { // both machines contributed 3
			t.Fatalf("rank %d: value for index 1 = %f, want 6", r, res[p1])
		}
		if res[p999] != 0 {
			t.Fatalf("rank %d: missing index gathered %f, want 0", r, res[p999])
		}
	}
	if missing[0]+missing[1] != 1 {
		t.Fatalf("total missing = %d, want 1 (one bottom range owns key 999)", missing[0]+missing[1])
	}
}

func TestNewMachineValidation(t *testing.T) {
	n := memnet.New(2)
	defer n.Close()
	bf := topo.MustNew([]int{4})
	if _, err := NewMachine(n.Endpoint(0), bf, Options{}); err == nil {
		t.Fatal("accepted mismatched topology size")
	}
	bf2 := topo.MustNew([]int{2})
	if _, err := NewMachine(n.Endpoint(0), bf2, Options{Width: -1}); err == nil {
		t.Fatal("accepted negative width")
	}
}

func TestReduceValidatesValueLength(t *testing.T) {
	bf := topo.MustNew([]int{2})
	// Rank 1's collective Reduce will starve once rank 0's call fails
	// validation; a short receive timeout turns that into a fast error.
	n := memnet.New(2, memnet.WithRecvTimeout(200*time.Millisecond))
	defer n.Close()
	errs := make([]error, 2)
	_ = memnet.Run(n, func(ep comm.Endpoint) error {
		m, _ := NewMachine(ep, bf, Options{})
		set := sparse.MustNewSet([]int32{1, 2})
		cfg, err := m.Configure(set, set)
		if err != nil {
			return err
		}
		if ep.Rank() == 0 {
			_, errs[0] = cfg.Reduce([]float32{1}) // wrong length
			// Recover the round with a correct call so rank 1 completes.
			return nil
		}
		_, errs[1] = cfg.Reduce([]float32{1, 2})
		return nil
	})
	if errs[0] == nil {
		t.Fatal("short value slice accepted")
	}
}

func TestConfigureRejectsUnsortedInput(t *testing.T) {
	n := memnet.New(1)
	defer n.Close()
	bf := topo.MustNew([]int{1})
	m, _ := NewMachine(n.Endpoint(0), bf, Options{})
	bad := sparse.Set{sparse.MakeKey(5), sparse.MakeKey(5)} // duplicate
	if _, err := m.Configure(bad, bad); err == nil {
		t.Fatal("accepted duplicate keys")
	}
	if _, _, err := m.ConfigureReduce(bad, bad, []float32{1, 1}); err == nil {
		t.Fatal("ConfigureReduce accepted duplicate keys")
	}
}

func TestConfigSetsAccessors(t *testing.T) {
	n := memnet.New(1)
	defer n.Close()
	bf := topo.MustNew([]int{1})
	m, _ := NewMachine(n.Endpoint(0), bf, Options{})
	in := sparse.MustNewSet([]int32{3, 1})
	out := sparse.MustNewSet([]int32{1, 3, 5})
	cfg, err := m.Configure(in, out)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.InSet().Equal(in) || !cfg.OutSet().Equal(out) {
		t.Fatal("accessors broken")
	}
	if cfg.Missing() != 0 {
		t.Fatal("unexpected missing")
	}
	if m.Rank() != 0 || m.Topology() != bf {
		t.Fatal("machine accessors broken")
	}
}

func TestEmptySetsAllowed(t *testing.T) {
	// A machine with nothing to contribute and nothing to ask for must
	// still participate in the collective without deadlock.
	bf := topo.MustNew([]int{2, 2})
	n := memnet.New(4)
	defer n.Close()
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, _ := NewMachine(ep, bf, Options{})
		var in, out sparse.Set
		var vals []float32
		if ep.Rank() != 0 {
			in = sparse.MustNewSet([]int32{7})
			out = sparse.MustNewSet([]int32{7})
			vals = []float32{1}
		}
		cfg, err := m.Configure(in, out)
		if err != nil {
			return err
		}
		res, err := cfg.Reduce(vals)
		if err != nil {
			return err
		}
		if ep.Rank() != 0 && res[0] != 3 {
			t.Errorf("rank %d got %f, want 3", ep.Rank(), res[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
