package main

import (
	"math"
	"sort"
	"sync"
)

// barrier is a reusable rendezvous for the rank goroutines of one
// collective run. The last arriver runs the leader action (timestamps,
// GC, memory reads, the stop decision) while every other rank is
// parked, so the action never overlaps protocol work. A rank that fails
// breaks the barrier, which releases the others instead of leaving
// them parked forever.
type barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	gen    uint64
	broken bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait parks until all n ranks arrive; it reports false when the
// barrier is broken.
func (b *barrier) wait(leader func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		if leader != nil {
			leader()
		}
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	return !b.broken
}

// abort breaks the barrier for good.
func (b *barrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a metric whose base never occurred).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
