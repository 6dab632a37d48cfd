package kylix_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"kylix"
)

func TestQuickstartSum(t *testing.T) {
	cluster, err := kylix.NewCluster(4, kylix.WithDegrees(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var mu sync.Mutex
	got := map[int][]float32{}
	err = cluster.Run(func(node *kylix.Node) error {
		in := []int32{10, 20}
		out := []int32{10, 20, 30}
		vals := []float32{1, 2, 3}
		red, err := node.Configure(in, out)
		if err != nil {
			return err
		}
		res, err := red.Reduce(vals)
		if err != nil {
			return err
		}
		mu.Lock()
		got[node.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, res := range got {
		if res[0] != 4 || res[1] != 8 { // 4 machines x (1, 2)
			t.Fatalf("rank %d got %v, want [4 8]", rank, res)
		}
	}
}

func TestUserOrderPreserved(t *testing.T) {
	// Indices deliberately unsorted and in different orders per call.
	cluster, err := kylix.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		out := []int32{50, 7, 99}
		vals := []float32{float32(50), float32(7), float32(99)} // value = index
		in := []int32{99, 50, 7, 99}                            // dups allowed in `in`
		red, err := node.Configure(in, out)
		if err != nil {
			return err
		}
		res, err := red.Reduce(vals)
		if err != nil {
			return err
		}
		want := []float32{198, 100, 14, 198} // 2 machines x index
		for i := range want {
			if res[i] != want[i] {
				t.Errorf("rank %d slot %d: got %v want %v", node.Rank(), i, res, want)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateOutRejected(t *testing.T) {
	cluster, err := kylix.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		_, err := node.Configure([]int32{1}, []int32{2, 2})
		if err == nil {
			t.Error("duplicate out indices accepted")
		} else if !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("unexpected error: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWidthAndReducerOptions(t *testing.T) {
	cluster, err := kylix.NewCluster(2, kylix.WithWidth(2), kylix.WithReducer(kylix.Max))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		out := []int32{5}
		vals := []float32{float32(node.Rank()), float32(10 - node.Rank())}
		red, err := node.Configure(out, out)
		if err != nil {
			return err
		}
		res, err := red.Reduce(vals)
		if err != nil {
			return err
		}
		if res[0] != 1 || res[1] != 10 { // max(0,1), max(10,9)
			t.Errorf("rank %d: %v", node.Rank(), res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigureReduceFacade(t *testing.T) {
	cluster, err := kylix.NewCluster(4, kylix.WithDegrees(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		out := []int32{int32(node.Rank()), 100}
		vals := []float32{1, 1}
		red, res, err := node.ConfigureReduce([]int32{100}, out, vals)
		if err != nil {
			return err
		}
		if res[0] != 4 {
			t.Errorf("rank %d: shared index sum %v, want 4", node.Rank(), res[0])
		}
		// The returned Reduction is reusable.
		res2, err := red.Reduce(vals)
		if err != nil {
			return err
		}
		if res2[0] != 4 {
			t.Errorf("rank %d: reused reduction gave %v", node.Rank(), res2[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPTransportFacade(t *testing.T) {
	cluster, err := kylix.NewCluster(3, kylix.WithTransport(kylix.TransportTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		out := []int32{1}
		red, err := node.Configure(out, out)
		if err != nil {
			return err
		}
		res, err := red.Reduce([]float32{2})
		if err != nil {
			return err
		}
		if res[0] != 6 {
			t.Errorf("rank %d over TCP: %v", node.Rank(), res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplicationWithFailures(t *testing.T) {
	cluster, err := kylix.NewCluster(8, kylix.WithReplication(2), kylix.WithDegrees(2, 2),
		kylix.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.LogicalSize() != 4 || cluster.Size() != 8 {
		t.Fatalf("sizes: %d/%d", cluster.LogicalSize(), cluster.Size())
	}
	if err := cluster.Kill(5); err != nil { // logical 1's replica
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]float32{}
	err = cluster.Run(func(node *kylix.Node) error {
		out := []int32{int32(node.Rank()), 7}
		red, err := node.Configure([]int32{7}, out)
		if err != nil {
			return err
		}
		res, err := red.Reduce([]float32{1, 1})
		if err != nil {
			return err
		}
		mu.Lock()
		seen[node.Rank()] = res[0]
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("results from %d logical ranks", len(seen))
	}
	for rank, v := range seen {
		if v != 4 { // one contribution per logical rank
			t.Fatalf("logical %d: %f, want 4", rank, v)
		}
	}
}

func TestTreeAllreduceFacade(t *testing.T) {
	cluster, err := kylix.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		out := []int32{int32(node.Rank() % 2), 9}
		res, maxUnion, err := node.TreeAllreduce([]int32{9}, out, []float32{1, 1})
		if err != nil {
			return err
		}
		if res[0] != 4 {
			t.Errorf("tree sum %v", res)
		}
		if maxUnion < 2 {
			t.Errorf("union size %d", maxUnion)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStrictOption(t *testing.T) {
	cluster, err := kylix.NewCluster(2, kylix.WithStrict(), kylix.WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var mu sync.Mutex
	failed := 0
	_ = cluster.Run(func(node *kylix.Node) error {
		_, err := node.Configure([]int32{12345}, []int32{1})
		if err != nil {
			mu.Lock()
			failed++
			mu.Unlock()
		}
		return nil
	})
	if failed == 0 {
		t.Fatal("strict mode did not reject uncovered in-index")
	}
}

func TestTrafficReport(t *testing.T) {
	cluster, err := kylix.NewCluster(4, kylix.WithDegrees(2, 2), kylix.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		rng := rand.New(rand.NewSource(int64(node.Rank())))
		out := make([]int32, 0, 50)
		seen := map[int32]bool{}
		for len(out) < 50 {
			v := rng.Int31n(500)
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		red, err := node.Configure(out, out)
		if err != nil {
			return err
		}
		_, err = red.Reduce(make([]float32, 50))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.Traffic(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Layers) == 0 || rep.TotalSec() <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.TotalBytes(kylix.PhaseConfig) <= 0 || rep.TotalBytes("") <= rep.TotalBytes(kylix.PhaseConfig) {
		t.Fatal("byte accounting inconsistent")
	}
	if !strings.Contains(rep.String(), "config") {
		t.Fatal("report rendering broken")
	}
	cluster.ResetTraffic()
	rep2, _ := cluster.Traffic(16)
	if len(rep2.Layers) != 0 {
		t.Fatal("ResetTraffic did not clear")
	}
}

func TestTrafficWithoutTraceErrors(t *testing.T) {
	cluster, err := kylix.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Traffic(4); err == nil {
		t.Fatal("Traffic without WithTrace should error")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := kylix.NewCluster(0); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := kylix.NewCluster(4, kylix.WithDegrees(3)); err == nil {
		t.Error("accepted mismatched degrees")
	}
	if _, err := kylix.NewCluster(4, kylix.WithReplication(3)); err == nil {
		t.Error("accepted non-divisible replication")
	}
	if _, err := kylix.NewCluster(6, kylix.WithBinaryButterfly()); err == nil {
		t.Error("accepted binary butterfly on non-power-of-two")
	}
}

func TestBinaryButterflyOption(t *testing.T) {
	cluster, err := kylix.NewCluster(8, kylix.WithBinaryButterfly())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	d := cluster.Degrees()
	if len(d) != 3 || d[0] != 2 {
		t.Fatalf("degrees = %v", d)
	}
}

func TestDesignDegreesFacade(t *testing.T) {
	degrees, err := kylix.DesignDegrees(kylix.DesignInput{
		N: 60_000_000, Alpha: 0.8, Density0: 0.21,
		Machines: 64, ElemBytes: 4, MinPacket: 5 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(degrees) != 3 || degrees[0] != 8 || degrees[1] != 4 || degrees[2] != 2 {
		t.Fatalf("DesignDegrees = %v, want [8 4 2]", degrees)
	}
}

func TestKillRequiresMemoryTransport(t *testing.T) {
	cluster, err := kylix.NewCluster(2, kylix.WithTransport(kylix.TransportTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Kill(0); err == nil {
		t.Fatal("Kill on TCP transport should error")
	}
}

func TestListenNodeCrossCluster(t *testing.T) {
	// Build a 3-node TCP cluster through the public multi-process API
	// (all in one process here, which exercises the same code path).
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}
	// Phase 1: bind rank 0 to learn a concrete port layout. For a
	// deterministic in-process test we pre-bind fixed ports instead.
	ports, err := reservePorts(3)
	if err != nil {
		t.Skip("cannot reserve ports:", err)
	}
	for i, p := range ports {
		addrs[i] = p
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node, err := kylix.ListenNode(r, addrs, kylix.WithRecvTimeout(10*time.Second))
			if err != nil {
				errs[r] = err
				return
			}
			defer node.Close()
			out := []int32{42}
			red, err := node.Configure(out, out)
			if err != nil {
				errs[r] = err
				return
			}
			res, err := red.Reduce([]float32{1.5})
			if err != nil {
				errs[r] = err
				return
			}
			if math.Abs(float64(res[0]-4.5)) > 1e-5 {
				errs[r] = errResult
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

var errResult = &resultError{}

type resultError struct{}

func (*resultError) Error() string { return "wrong reduced value" }

func TestWidthWithReplicationAndFailure(t *testing.T) {
	// Width-2 features over a replicated cluster with one dead machine:
	// the full option surface composed.
	cluster, err := kylix.NewCluster(8,
		kylix.WithReplication(2), kylix.WithDegrees(2, 2),
		kylix.WithWidth(2), kylix.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Kill(6); err != nil { // logical 2's replica
		t.Fatal(err)
	}
	err = cluster.Run(func(node *kylix.Node) error {
		if node.Width() != 2 {
			t.Errorf("width = %d", node.Width())
		}
		out := []int32{5}
		vals := []float32{1, float32(node.Rank())}
		red, err := node.Configure(out, out)
		if err != nil {
			return err
		}
		got, err := red.Reduce(vals)
		if err != nil {
			return err
		}
		if got[0] != 4 { // 4 logical machines x 1
			t.Errorf("rank %d col0 = %f", node.Rank(), got[0])
		}
		if got[1] != 0+1+2+3 {
			t.Errorf("rank %d col1 = %f", node.Rank(), got[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedRunsShareTagSpace(t *testing.T) {
	// Regression: repeated cluster.Run calls on a replicated cluster
	// must not reuse message tags (stale race cancellations would
	// swallow them). Three runs with failures injected in between.
	cluster, err := kylix.NewCluster(8, kylix.WithReplication(2),
		kylix.WithDegrees(4), kylix.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	round := func() error {
		return cluster.Run(func(node *kylix.Node) error {
			out := []int32{3}
			red, err := node.Configure(out, out)
			if err != nil {
				return err
			}
			got, err := red.Reduce([]float32{1})
			if err != nil {
				return err
			}
			if got[0] != 4 {
				return fmt.Errorf("sum %v", got[0])
			}
			return nil
		})
	}
	if err := round(); err != nil {
		t.Fatal("round 1:", err)
	}
	if err := cluster.Kill(5); err != nil {
		t.Fatal(err)
	}
	if err := round(); err != nil {
		t.Fatal("round 2:", err)
	}
	if err := cluster.Kill(6); err != nil {
		t.Fatal(err)
	}
	if err := round(); err != nil {
		t.Fatal("round 3:", err)
	}
}

func TestReducerOptionOverTCP(t *testing.T) {
	cluster, err := kylix.NewCluster(2, kylix.WithTransport(kylix.TransportTCP), kylix.WithReducer(kylix.Min))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		out := []int32{1}
		red, err := node.Configure(out, out)
		if err != nil {
			return err
		}
		got, err := red.Reduce([]float32{float32(10 - node.Rank())})
		if err != nil {
			return err
		}
		if got[0] != 9 { // min(10, 9)
			t.Errorf("min over TCP = %v", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissingAccessor(t *testing.T) {
	cluster, err := kylix.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var mu sync.Mutex
	total := 0
	err = cluster.Run(func(node *kylix.Node) error {
		red, err := node.Configure([]int32{1, 77777}, []int32{1})
		if err != nil {
			return err
		}
		mu.Lock()
		total += red.Missing()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("missing total = %d, want 1", total)
	}
}

func TestDesignFromSampleFacade(t *testing.T) {
	// Synthetic power-law occurrence sample -> fitted design.
	rng := rand.New(rand.NewSource(1))
	n := int64(1 << 13)
	var occ []int32
	for i := 0; i < 30000; i++ {
		// Zipf-ish: rank r with probability ~ 1/r.
		r := int32(math.Exp(rng.Float64()*math.Log(float64(n)))) - 1
		if r >= int32(n) {
			r = int32(n) - 1
		}
		occ = append(occ, r)
	}
	degrees, alpha, err := kylix.DesignFromSample(7, occ, n, 16, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	prod := 1
	for _, d := range degrees {
		prod *= d
	}
	if prod != 16 {
		t.Fatalf("degrees %v", degrees)
	}
	if alpha < 0.3 || alpha > 2.5 {
		t.Fatalf("alpha %f out of fit range", alpha)
	}
}

func TestStreamDerivedNetworks(t *testing.T) {
	// The diameter/components pattern at the facade level: a MAX network
	// on stream 1 interleaved with the main SUM network, across two
	// cluster runs.
	cluster, err := kylix.NewCluster(4, kylix.WithDegrees(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	round := func() error {
		return cluster.Run(func(node *kylix.Node) error {
			maxNet, err := node.Stream(1, kylix.WithReducer(kylix.Max))
			if err != nil {
				return err
			}
			out := []int32{5}
			sumRed, err := node.Configure(out, out)
			if err != nil {
				return err
			}
			maxRed, err := maxNet.Configure(out, out)
			if err != nil {
				return err
			}
			v := []float32{float32(node.Rank() + 1)}
			sum, err := sumRed.Reduce(v)
			if err != nil {
				return err
			}
			mx, err := maxRed.Reduce(v)
			if err != nil {
				return err
			}
			if sum[0] != 10 {
				t.Errorf("sum = %v, want 10", sum[0])
			}
			if mx[0] != 4 {
				t.Errorf("max = %v, want 4", mx[0])
			}
			return nil
		})
	}
	if err := round(); err != nil {
		t.Fatal("round 1:", err)
	}
	if err := round(); err != nil {
		t.Fatal("round 2:", err)
	}
}

func TestStreamDerivedValidation(t *testing.T) {
	cluster, err := kylix.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	err = cluster.Run(func(node *kylix.Node) error {
		if _, err := node.Stream(0); err == nil {
			t.Error("accepted the node's own stream")
		}
		st, err := node.Stream(3, kylix.WithWidth(2))
		if err != nil {
			return err
		}
		if st.Width() != 2 {
			t.Errorf("derived width %d", st.Width())
		}
		if _, err := st.Stream(3); err == nil {
			t.Error("accepted the derived node's own stream")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
