package main

import (
	"fmt"
	"sync"
	"time"

	"kylix"
)

// tenantLoad is a workload of concurrent tenant streams on one
// cluster. Each tenant runs closed-loop passes of one ConfigureReduce
// followed by Reduce rounds on its own fixed batch.
type tenantLoad struct {
	ranks      int
	opts       []kylix.Option
	streamOpts []kylix.Option
	// batches holds one batch per tenant.
	batches []*batch
	// roundsPerPass counts the ConfigureReduce plus the Reduces.
	roundsPerPass int
	warmupPasses  int
	relBound      float64
}

// tenant is one tenant's stream and its timing slots. pass is written
// by the tenant's goroutine before each Stream.Run and read by the
// pass's rank goroutines, which the Run starts.
type tenant struct {
	s     *kylix.Stream
	b     *batch
	id    int
	pass  int
	calls [][]float64 // [rank][round]
	body  [][]float64 // [rank][pass]
	run   []float64   // [pass]
	last  []uint64    // per rank, digest of the latest pass's last round
}

// run builds the cluster, opens the tenant streams and warms them up
// (the set-up) and, when m.rounds > 0, runs every tenant closed-loop
// and concurrently for the window.
func (l *tenantLoad) run(m mode) (*outcome, error) {
	return live(l.ranks, len(l.batches), l.opts, m, l.loop)
}

// loop opens the tenant streams, runs the warm-up passes and then the
// window's passes, split evenly over the tenants.
func (l *tenantLoad) loop(lf *life) error {
	o, m := lf.o, lf.m
	w := o.w
	windowPasses := m.rounds / l.roundsPerPass / len(l.batches)
	capPasses := l.warmupPasses + windowPasses
	tenants := make([]*tenant, len(l.batches))
	for i, b := range l.batches {
		s, err := lf.cl.OpenStream(l.streamOpts...)
		if err != nil {
			return fmt.Errorf("OpenStream: %w", err)
		}
		t := &tenant{s: s, b: b, id: i, calls: make([][]float64, l.ranks),
			body: make([][]float64, l.ranks), run: make([]float64, 0, capPasses),
			last: make([]uint64, l.ranks)}
		for r := 0; r < l.ranks; r++ {
			t.calls[r] = make([]float64, capPasses*l.roundsPerPass)
			t.body[r] = make([]float64, capPasses)
		}
		tenants[i] = t
	}

	// passes runs the tenants concurrently until each has run `count`
	// more passes or, when limited, the window runs out of time.
	passes := func(count int, limited bool) {
		var wg sync.WaitGroup
		for _, t := range tenants {
			wg.Add(1)
			go func(t *tenant) {
				defer wg.Done()
				fn := l.passFn(t, w)
				for n := 0; n < count && t.pass < capPasses && !(limited && lf.expired()); n++ {
					failed := w.failed.Load()
					start := time.Now()
					err := t.s.Run(fn)
					t.run = append(t.run, float64(time.Since(start)))
					if err != nil {
						// A pass refused or failed before any rank
						// reported counts as one failed call.
						if w.failed.Load() == failed {
							w.fail(fmt.Errorf("tenant %d pass %d: %w", t.id, t.pass, err))
						}
						return
					}
					t.pass++
				}
			}(t)
		}
		wg.Wait()
	}

	passes(l.warmupPasses, false)
	if err := w.err(); err != nil {
		return err
	}
	for _, t := range tenants {
		for r := 0; r < l.ranks; r++ {
			o.warmDigests[r][t.id] = t.last[r]
		}
	}
	first := tenants[0]
	for r := 0; r < l.ranks; r++ {
		o.configure = max(o.configure, first.calls[r][0]/1e9)
	}
	lf.beginWindow()
	if m.rounds == 0 {
		return nil
	}

	passes(windowPasses, true)
	lf.endWindow()
	if err := w.err(); err != nil {
		return err
	}

	// Concatenate the tenants' window rounds: rank call times first,
	// then the per-pass stream timings.
	for r := 0; r < l.ranks; r++ {
		w.calls[r] = nil
	}
	for _, t := range tenants {
		from, to := l.warmupPasses, t.pass
		for r := 0; r < l.ranks; r++ {
			w.calls[r] = append(w.calls[r], t.calls[r][from*l.roundsPerPass:to*l.roundsPerPass]...)
		}
		for p := from; p < to; p++ {
			body := 0.0
			for r := 0; r < l.ranks; r++ {
				body = max(body, t.body[r][p])
			}
			w.passRun = append(w.passRun, t.run[p])
			w.passBody = append(w.passBody, body)
		}
		o.lastDigests[t.id] = t.last
	}
	w.rounds = len(w.calls[0])
	return nil
}

// passFn is one tenant pass on one rank: a ConfigureReduce, then
// Reduce rounds on the same Reduction, each timed and every
// checkEvery-th (and the last) checked against the reference.
func (l *tenantLoad) passFn(t *tenant, w *window) func(n *kylix.Node) error {
	return func(n *kylix.Node) error {
		r := n.Rank()
		p := t.pass
		calls := t.calls[r][p*l.roundsPerPass : (p+1)*l.roundsPerPass]
		in, vals := t.b.idx[r], t.b.vals[r]
		bodyStart := time.Now()
		var (
			red *kylix.Reduction
			res []float32
			err error
		)
		for k := 0; k < l.roundsPerPass; k++ {
			start := time.Now()
			if k == 0 {
				red, res, err = n.ConfigureReduce(in, in, vals)
			} else {
				res, err = red.Reduce(vals)
			}
			calls[k] = float64(time.Since(start))
			w.attempted.Add(1)
			if err == nil && (k%checkEvery == 0 || k == l.roundsPerPass-1) {
				err = checkResult(res, t.b.want[r], t.b.tol[r], l.relBound)
			}
			if err != nil {
				err = fmt.Errorf("tenant %d pass %d rank %d round %d: %w", t.id, p, r, k, err)
				w.fail(err)
				return err
			}
		}
		t.body[r][p] = float64(time.Since(bodyStart))
		t.last[r] = kylix.ValuesDigest(res)
		return nil
	}
}
