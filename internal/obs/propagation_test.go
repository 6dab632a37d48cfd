package obs_test

import (
	"errors"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/obs"
	"kylix/internal/tcpnet"
)

// checkTimeoutObserved asserts the contract the transports must uphold:
// a timed-out receive reaches the observer as a comm.TimeoutError and
// closes an error span on the waiting rank covering the wait.
func checkTimeoutObserved(t *testing.T, o *obs.Observatory, tag comm.Tag, wait time.Duration) {
	t.Helper()
	if got := o.Registry().Counter("recv_timeouts").Value(); got != 1 {
		t.Fatalf("recv_timeouts = %d, want 1", got)
	}
	var found *obs.Span
	for _, sp := range o.Spans() {
		if sp.Err != nil {
			s := sp
			found = &s
		}
	}
	if found == nil {
		t.Fatal("no error span recorded for the timed-out receive")
	}
	if !errors.Is(found.Err, comm.ErrTimeout) {
		t.Fatalf("span error = %v, want comm.ErrTimeout", found.Err)
	}
	var terr *comm.TimeoutError
	if !errors.As(found.Err, &terr) {
		t.Fatalf("span error %T is not a *comm.TimeoutError", found.Err)
	}
	if found.Node != 0 {
		t.Fatalf("error span on node %d, want 0 (the waiting rank)", found.Node)
	}
	if found.Kind != tag.Kind() || found.Layer != tag.Layer() {
		t.Fatalf("error span (%v, L%d), want (%v, L%d)", found.Kind, found.Layer, tag.Kind(), tag.Layer())
	}
	if found.Duration() < wait {
		t.Fatalf("error span covers %v, want >= the %v timeout", found.Duration(), wait)
	}
}

func TestTimeoutErrorReachesSpansMemnet(t *testing.T) {
	const wait = 30 * time.Millisecond
	o := obs.New(2, 0)
	net := memnet.New(2,
		memnet.WithRecvTimeout(wait),
		memnet.WithRecvObserver(o.RecvObserver))
	defer net.Close()

	tag := comm.MakeTag(comm.KindReduce, 2, 5)
	if _, err := net.Endpoint(0).Recv(1, tag); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("Recv = %v, want timeout", err)
	}
	checkTimeoutObserved(t, o, tag, wait)
}

func TestTimeoutErrorReachesSpansTCP(t *testing.T) {
	const wait = 30 * time.Millisecond
	o := obs.New(2, 0)
	nodes, err := tcpnet.LocalCluster(2, tcpnet.Options{
		RecvTimeout:  wait,
		RecvObserver: o.RecvObserver,
		Metrics:      o.Transport(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpnet.CloseAll(nodes)

	tag := comm.MakeTag(comm.KindGather, 1, 9)
	if _, err := nodes[0].Recv(1, tag); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("Recv = %v, want timeout", err)
	}
	checkTimeoutObserved(t, o, tag, wait)
}

// TestSuccessfulTCPTrafficFeedsCounters checks the happy-path counters
// on the real wire: a matched receive lands in recv_msgs. (Received
// bytes are counted from pass spans, not by the transport.)
func TestSuccessfulTCPTrafficFeedsCounters(t *testing.T) {
	o := obs.New(2, 0)
	nodes, err := tcpnet.LocalCluster(2, tcpnet.Options{
		RecvTimeout:  5 * time.Second,
		RecvObserver: o.RecvObserver,
		Metrics:      o.Transport(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpnet.CloseAll(nodes)

	tag := comm.MakeTag(comm.KindReduce, 1, 1)
	p := &comm.Floats{Vals: []float32{1, 2, 3}}
	if err := nodes[1].Send(0, tag, p); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Recv(1, tag); err != nil {
		t.Fatal(err)
	}
	reg := o.Registry()
	if got := reg.Counter("recv_msgs").Value(); got != 1 {
		t.Fatalf("recv_msgs = %d, want 1", got)
	}
}
