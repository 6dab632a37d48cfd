// Package memnet is the in-process cluster transport: every machine is a
// goroutine with a comm.Mailbox, sends are direct enqueues, and machine
// failure is injectable. It moves the same payloads and records the same
// wire sizes as the TCP transport, so protocol behaviour and traffic
// traces are identical across the two — only wall-clock differs, which
// the netsim model supplies.
package memnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kylix/internal/comm"
)

// Option configures a Network.
type Option func(*Network)

// WithRecorder attaches a traffic recorder (e.g. a trace.Collector). A
// nil recorder — the default — means "not tracing": sends then skip
// payload sizing, which exists purely for accounting on this zero-copy
// transport.
func WithRecorder(r comm.Recorder) Option {
	return func(n *Network) { n.rec = r }
}

// WithRecvTimeout bounds every blocking receive; 0 waits forever. The
// default of 30s turns protocol deadlocks (e.g. an unreplicated network
// with a dead node) into errors instead of hangs.
func WithRecvTimeout(d time.Duration) Option {
	return func(n *Network) { n.timeout = d }
}

// WithRecvObserver installs a per-rank receive observer factory (the
// observability layer's receive hook); the factory may return nil for
// ranks that should not be observed.
func WithRecvObserver(f func(rank int) comm.RecvObserver) Option {
	return func(n *Network) { n.recvObs = f }
}

// Network is an m-machine in-process cluster.
type Network struct {
	size    int
	boxes   []*comm.Mailbox
	dead    []atomic.Bool
	rec     comm.Recorder
	recvObs func(rank int) comm.RecvObserver
	timeout time.Duration
}

// New creates a network of m machines.
func New(m int, opts ...Option) *Network {
	n := &Network{size: m, timeout: 30 * time.Second}
	for _, o := range opts {
		o(n)
	}
	n.boxes = make([]*comm.Mailbox, m)
	n.dead = make([]atomic.Bool, m)
	for i := range n.boxes {
		n.boxes[i] = comm.NewMailbox(n.timeout)
		if n.recvObs != nil {
			if ro := n.recvObs(i); ro != nil {
				n.boxes[i].SetRecvObserver(ro)
			}
		}
	}
	return n
}

// Size returns the machine count.
func (n *Network) Size() int { return n.size }

// Kill marks a machine dead: its inbound messages are dropped and its
// endpoint operations fail. Used by the fault-tolerance experiments.
// Kill is safe at any point, including while the victim is mid-round:
// its blocked receives fail with ErrClosed immediately (crash-stop),
// peers' sends to it become silent drops, and Run treats the victim's
// resulting transport errors as the injected failure rather than a
// program error.
func (n *Network) Kill(rank int) {
	n.dead[rank].Store(true)
	n.boxes[rank].Close()
}

// Dead reports whether a machine has been killed.
func (n *Network) Dead(rank int) bool { return n.dead[rank].Load() }

// Close shuts down every mailbox.
func (n *Network) Close() {
	for _, b := range n.boxes {
		b.Close()
	}
}

// CloseStream tears down one stream's namespace on every machine:
// queued messages dropped, pending-sender index purged, late
// deliveries discarded, blocked receives failed with ErrStreamClosed.
// The network itself stays live for every other stream.
func (n *Network) CloseStream(id comm.StreamID) {
	for _, b := range n.boxes {
		b.CloseStream(id)
	}
}

// StreamPending sums one stream's queued, undelivered messages across
// all machines (tests and leak diagnostics).
func (n *Network) StreamPending(id comm.StreamID) int {
	total := 0
	for _, b := range n.boxes {
		total += b.StreamPending(id)
	}
	return total
}

// IndexedTags sums the live pending-sender index entries across all
// machines (tests and leak diagnostics).
func (n *Network) IndexedTags() int {
	total := 0
	for _, b := range n.boxes {
		total += b.IndexedTags()
	}
	return total
}

// Endpoint returns machine rank's endpoint.
func (n *Network) Endpoint(rank int) comm.Endpoint {
	if rank < 0 || rank >= n.size {
		panic(fmt.Sprintf("memnet: rank %d out of [0,%d)", rank, n.size))
	}
	return &endpoint{net: n, rank: rank}
}

type endpoint struct {
	net  *Network
	rank int
}

func (e *endpoint) Rank() int { return e.rank }
func (e *endpoint) Size() int { return e.net.size }

func (e *endpoint) Send(to int, tag comm.Tag, p comm.Payload) error {
	if to < 0 || to >= e.net.size {
		return fmt.Errorf("memnet: send to rank %d out of [0,%d)", to, e.net.size)
	}
	if e.net.dead[e.rank].Load() {
		return comm.ErrClosed
	}
	// Charge the sender's NIC whether or not the target is alive.
	if e.net.rec != nil {
		e.net.rec.Record(e.rank, to, tag, p.WireSize(), comm.RawWireSize(p))
	}
	if e.net.dead[to].Load() {
		return nil // silently dropped, like a packet into a dead host
	}
	e.net.boxes[to].Deliver(e.rank, tag, p)
	return nil
}

func (e *endpoint) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	return e.net.boxes[e.rank].Recv(from, tag)
}

func (e *endpoint) RecvAny(froms []int, tag comm.Tag) (int, comm.Payload, error) {
	return e.net.boxes[e.rank].RecvAny(froms, tag)
}

func (e *endpoint) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	return e.net.boxes[e.rank].RecvGroup(groups, tag)
}

func (e *endpoint) Close() error {
	e.net.boxes[e.rank].Close()
	return nil
}

// Run executes fn concurrently on every live machine of the network (or
// on the given subset of ranks) and returns the combined errors. Panics
// inside a machine are converted to errors so one broken rank cannot
// take down the test process silently.
//
//kylix:owned
func Run(n *Network, fn func(ep comm.Endpoint) error, ranks ...int) error {
	if len(ranks) == 0 {
		ranks = make([]int, n.size)
		for i := range ranks {
			ranks[i] = i
		}
	}
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, r := range ranks {
		if n.Dead(r) {
			continue
		}
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[i] = fmt.Errorf("memnet: rank %d panicked: %v", rank, rec)
				}
			}()
			errs[i] = fn(n.Endpoint(rank))
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// A machine killed mid-round fails its own in-flight
			// operations with ErrClosed (or times out waiting on traffic
			// that will never come). That is the injected crash-stop, not
			// a program error: survivors' results are what the run is
			// judged on.
			if n.Dead(ranks[i]) && (errors.Is(err, comm.ErrClosed) || errors.Is(err, comm.ErrTimeout)) {
				continue
			}
			return fmt.Errorf("rank %d: %w", ranks[i], err)
		}
	}
	return nil
}
