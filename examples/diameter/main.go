// Graph diameter estimation with Flajolet-Martin sketches (§I-A2's HADI
// workload): vertices carry bitstring sketches of their reachable sets,
// one bitwise-OR allreduce grows them per hop, and a piggybacked
// sum-allreduce (on a second stream of the same cluster) detects
// global convergence. Demonstrates Kylix's pluggable reducers and
// multi-network endpoints.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"kylix/internal/apps/diameter"
	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

const (
	machines = 8
	vertices = 600
	edgeCnt  = 1800
	width    = 4 // sketch words per vertex
)

func main() {
	rng := rand.New(rand.NewSource(11))
	edges := graph.GenPowerLaw(rng, vertices, edgeCnt, 0.8, 0.8)
	parts := graph.PartitionEdges(rng, edges, machines)
	shards := make([]*graph.Shard, machines)
	for i := range parts {
		s, err := graph.BuildShard(parts[i], nil)
		if err != nil {
			log.Fatal(err)
		}
		shards[i] = s
	}

	bf := topo.MustNew([]int{4, 2})
	net := memnet.New(machines)
	defer net.Close()

	var mu sync.Mutex
	results := make([]*diameter.Result, machines)
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		mach, err := core.NewMachine(ep, bf, core.Options{Reducer: sparse.Or, Width: width})
		if err != nil {
			return err
		}
		conv, err := core.NewMachine(ep, bf, core.Options{Stream: 1})
		if err != nil {
			return err
		}
		res, err := diameter.RunNode(mach, conv, shards[ep.Rank()], 40, width, 99)
		if err != nil {
			return err
		}
		mu.Lock()
		results[ep.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	oracle := diameter.SequentialSketchDiameter(vertices, edges, 40, width, 99)
	fmt.Printf("graph: %d vertices, %d edges on %d machines\n", vertices, edgeCnt, machines)
	fmt.Printf("per-hop changed-sketch counts: %v\n", results[0].Changes)
	for r, res := range results {
		if res.Diameter != oracle {
			log.Fatalf("machine %d estimated %d, oracle %d", r, res.Diameter, oracle)
		}
	}
	fmt.Printf("effective diameter estimate: %d hops (all %d machines agree with the sketch oracle)\n",
		oracle, machines)

	// Neighbourhood-size estimates for a few vertices held by machine 0.
	res := results[0]
	for i := 0; i < 3 && i < len(res.Vertices); i++ {
		est := diameter.EstimateNeighbourhood(res.Sketches[i*width : (i+1)*width])
		fmt.Printf("vertex %d: ~%.0f reachable vertices (FM estimate)\n", res.Vertices[i].Index(), est)
	}
	fmt.Println("diameter OK")
}
