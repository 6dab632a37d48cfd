// Distributed topic modelling with a collapsed Gibbs sampler (the
// §I-A1 MCMC workload): 6 machines train LDA on sharded synthetic
// documents with planted topic structure. Each sweep exchanges the
// sparse word-topic count deltas — width K = topics values per word —
// through a fused configure+reduce, and a second allreduce network on
// its own stream carries the global per-topic totals.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"kylix/internal/apps/lda"
	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/topo"
)

const (
	machines = 6
	vocab    = 400
	topics   = 5
	sweeps   = 25
)

func main() {
	corpora := make([]*lda.Corpus, machines)
	for r := range corpora {
		corpora[r] = lda.GenCorpus(rand.New(rand.NewSource(int64(10+r))), vocab, topics, 80, 50)
	}

	bf := topo.MustNew([]int{3, 2})
	net := memnet.New(machines)
	defer net.Close()

	var mu sync.Mutex
	results := make([]*lda.Result, machines)
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := core.NewMachine(ep, bf, core.Options{Width: topics})
		if err != nil {
			return err
		}
		totals, err := core.NewMachine(ep, bf, core.Options{Width: topics, Stream: 1})
		if err != nil {
			return err
		}
		res, err := lda.RunNode(m, totals, corpora[ep.Rank()],
			lda.Params{Topics: topics, Alpha: 0.2, Beta: 0.05, Sweeps: sweeps},
			rand.New(rand.NewSource(int64(ep.Rank())+77)))
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

	fmt.Printf("trained LDA with %d topics on %d machines (%d sweeps)\n", topics, machines, sweeps)
	for r, res := range results {
		first := res.LogLikelihood[0]
		last := res.LogLikelihood[len(res.LogLikelihood)-1]
		fmt.Printf("machine %d: shard log-likelihood %.0f -> %.0f\n", r, first, last)
		if last <= first {
			log.Fatalf("machine %d: sampler did not improve", r)
		}
	}
	fmt.Printf("global topic totals (identical on all machines): %.0f\n", results[0].TopicTotals)
	for r := 1; r < machines; r++ {
		for z := 0; z < topics; z++ {
			if results[r].TopicTotals[z] != results[0].TopicTotals[z] {
				log.Fatal("machines disagree on global topic totals")
			}
		}
	}
	fmt.Println("topicmodel OK")
}
