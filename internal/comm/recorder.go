package comm

import "time"

// RecvObserver observes completed receives for the observability layer.
// Transports call ObserveRecv once per finished matched receive — on
// success with the time the receiver spent blocked, on failure with the
// error (a timed-out receive carries its *TimeoutError, which observers
// turn into an error span). RecvGroup receives additionally report their
// wait through ObserveRecvGroup, the hot path's arrival-order primitive.
// Receives are not sized here: the bytes a pass consumed are its spans'
// BytesIn. Observers are called outside transport locks and must be safe
// for concurrent use; implementations must not allocate on the success
// path (the warm Reduce is gated at 0 allocs/op with observation
// enabled).
type RecvObserver interface {
	ObserveRecv(from int, tag Tag, wait time.Duration, err error)
	ObserveRecvGroup(tag Tag, wait time.Duration)
}

// Recorder observes transport sends for traffic accounting: it is the
// byte source of traffic reports and the netsim cost model, since only
// the transport sees every physical message (replica fan-out, injected
// duplicates, control planes) and its receiver. Transports call Record
// once per message with the payload's wire size and its uncompressed
// size (RawWireSize). Recording happens at send time, so traffic toward
// dead machines is charged to the sender exactly as a physical NIC
// would be. A nil Recorder means "not tracing": the transport then
// sizes no payload for accounting.
type Recorder interface {
	Record(from, to int, tag Tag, wireBytes, rawBytes int)
}
