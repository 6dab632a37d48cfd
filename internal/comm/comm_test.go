package comm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kylix/internal/sparse"
)

func TestTagPacking(t *testing.T) {
	for _, kind := range []Kind{KindConfig, KindReduce, KindGather, KindConfigReduce, KindApp} {
		for _, layer := range []int{0, 1, 7, 255} {
			for _, seq := range []uint32{0, 1, 1 << 30} {
				tag := MakeTag(kind, layer, seq)
				if tag.Kind() != kind || tag.Layer() != layer || tag.Seq() != seq {
					t.Fatalf("tag round trip failed: %v -> kind=%v layer=%d seq=%d",
						tag, tag.Kind(), tag.Layer(), tag.Seq())
				}
			}
		}
	}
}

func TestTagUnique(t *testing.T) {
	seen := map[Tag]bool{}
	for _, kind := range []Kind{KindConfig, KindReduce} {
		for layer := 0; layer < 4; layer++ {
			for seq := uint32(0); seq < 4; seq++ {
				tag := MakeTag(kind, layer, seq)
				if seen[tag] {
					t.Fatalf("duplicate tag %v", tag)
				}
				seen[tag] = true
			}
		}
	}
}

// TestMakeTagClampsBadLayer replaces the old panic contract: an
// out-of-range layer is clamped to the nearest encodable bound and
// counted in TagClamps, because once untrusted stream RPCs reach the
// comm layer a malformed request must not take down the daemon.
func TestMakeTagClampsBadLayer(t *testing.T) {
	before := TagClamps()
	if got := MakeTag(KindConfig, 256, 7); got.Layer() != 255 || got.Seq() != 7 {
		t.Fatalf("layer 256 clamped to %d, want 255", got.Layer())
	}
	if got := MakeTag(KindConfig, -3, 7); got.Layer() != 0 {
		t.Fatalf("layer -3 clamped to %d, want 0", got.Layer())
	}
	if d := TagClamps() - before; d != 2 {
		t.Fatalf("TagClamps advanced by %d, want 2", d)
	}
	// In-range layers are never counted.
	before = TagClamps()
	MakeTag(KindConfig, 255, 0)
	MakeStreamTag(3, KindReduce, 0, 0)
	if TagClamps() != before {
		t.Fatal("in-range layer counted as clamp")
	}
}

// TestCheckLayer pins the structured-error validation path used at
// trust boundaries (daemon RPCs) where clamping would mask bad input.
func TestCheckLayer(t *testing.T) {
	if err := CheckLayer(0); err != nil {
		t.Fatal(err)
	}
	if err := CheckLayer(255); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 256, 1 << 20} {
		err := CheckLayer(bad)
		var tre *TagRangeError
		if !errors.As(err, &tre) {
			t.Fatalf("CheckLayer(%d) = %v, want *TagRangeError", bad, err)
		}
		if tre.Field != "layer" || tre.Value != bad || tre.Max != 255 {
			t.Fatalf("error context = %+v", tre)
		}
		if tre.Error() == "" {
			t.Fatal("empty error string")
		}
	}
}

// TestStreamTagPacking round-trips the widened layout: kind, stream,
// layer and seq all extract to what was packed, across the full
// extremes of each field.
func TestStreamTagPacking(t *testing.T) {
	for _, stream := range []StreamID{0, 1, 255, 256, 65535} {
		for _, kind := range []Kind{KindConfig, KindReduce, KindControl} {
			for _, layer := range []int{0, 7, 255} {
				for _, seq := range []uint32{0, 1 << 24, ^uint32(0)} {
					tag := MakeStreamTag(stream, kind, layer, seq)
					if tag.Kind() != kind || tag.Stream() != stream ||
						tag.Layer() != layer || tag.Seq() != seq {
						t.Fatalf("round trip failed: kind=%v stream=%d layer=%d seq=%d -> %v/%d/%d/%d",
							kind, stream, layer, seq, tag.Kind(), tag.Stream(), tag.Layer(), tag.Seq())
					}
				}
			}
		}
	}
	// MakeTag mints into DefaultStream.
	if s := MakeTag(KindReduce, 1, 2).Stream(); s != DefaultStream {
		t.Fatalf("MakeTag stream = %d, want DefaultStream", s)
	}
}

// TestStreamTagUnique is the headline-bug regression: identical
// (kind, layer, seq) triples on different streams must be distinct
// tags, so concurrent Configs on one fabric cannot cross-deliver.
func TestStreamTagUnique(t *testing.T) {
	seen := map[Tag]bool{}
	for stream := StreamID(0); stream < 8; stream++ {
		for _, kind := range []Kind{KindConfig, KindReduce} {
			for layer := 0; layer < 4; layer++ {
				for seq := uint32(0); seq < 4; seq++ {
					tag := MakeStreamTag(stream, kind, layer, seq)
					if seen[tag] {
						t.Fatalf("duplicate tag %v across streams", tag)
					}
					seen[tag] = true
				}
			}
		}
	}
}

func TestStreamTagString(t *testing.T) {
	if s := MakeStreamTag(9, KindReduce, 2, 7).String(); s != "reduce/S9/L2/#7" {
		t.Fatalf("stream tag string = %q", s)
	}
	if s := MakeTag(KindReduce, 2, 7).String(); s != "reduce/L2/#7" {
		t.Fatalf("default-stream tag string = %q", s)
	}
}

func TestKindString(t *testing.T) {
	if KindConfig.String() != "config" || Kind(99).String() == "" {
		t.Error("Kind.String broken")
	}
	if MakeTag(KindReduce, 2, 7).String() == "" {
		t.Error("Tag.String broken")
	}
}

func roundTrip(t *testing.T, p Payload) Payload {
	t.Helper()
	buf := p.AppendTo(nil)
	if len(buf) != p.WireSize() {
		t.Fatalf("WireSize %d but encoded %d bytes", p.WireSize(), len(buf))
	}
	q, err := DecodePayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestKeysPayloadRoundTrip(t *testing.T) {
	p := &Keys{Keys: sparse.MustNewSet([]int32{1, 5, 9})}
	q := roundTrip(t, p).(*Keys)
	if !q.Keys.Equal(p.Keys) {
		t.Fatal("keys mismatch")
	}
}

func TestFloatsPayloadRoundTrip(t *testing.T) {
	p := &Floats{Vals: []float32{1.5, -2.25, 0}}
	q := roundTrip(t, p).(*Floats)
	for i := range p.Vals {
		if q.Vals[i] != p.Vals[i] {
			t.Fatal("vals mismatch")
		}
	}
}

func TestKeysValsPayloadRoundTrip(t *testing.T) {
	p := &KeysVals{Keys: sparse.MustNewSet([]int32{2, 4}), Vals: []float32{3, 1, 4, 1}}
	q := roundTrip(t, p).(*KeysVals)
	if !q.Keys.Equal(p.Keys) || len(q.Vals) != 4 || q.Vals[2] != 4 {
		t.Fatal("keysvals mismatch")
	}
}

func TestBytesPayloadRoundTrip(t *testing.T) {
	p := &Bytes{Data: []byte("hello")}
	q := roundTrip(t, p).(*Bytes)
	if string(q.Data) != "hello" {
		t.Fatal("bytes mismatch")
	}
}

func TestEmptyPayloads(t *testing.T) {
	for _, p := range []Payload{&Keys{}, &Floats{}, &KeysVals{}, &Bytes{}, &InOut{}, &Combined{}, &Delta{}, &Delta{InSame: true, OutSame: true}, &Control{}, &StreamCtl{}} {
		roundTrip(t, p)
	}
}

func TestControlPayloadRoundTrip(t *testing.T) {
	p := &Control{
		Op:          3,
		Epoch:       42,
		Leader:      1,
		Members:     []int32{0, 1, 2, 5},
		Degrees:     []int32{2, 2},
		PropEpoch:   43,
		PropLeader:  2,
		PropMembers: []int32{0, 1, 2, 5, 7, 9},
		PropDegrees: []int32{3},
		Ack:         0xdeadbeefcafe,
		Clock:       123456789,
		Echo:        987654321,
	}
	q := roundTrip(t, p.Clone()).(*Control)
	if q.Op != p.Op || q.Epoch != p.Epoch || q.Leader != p.Leader ||
		q.PropEpoch != p.PropEpoch || q.PropLeader != p.PropLeader ||
		q.Ack != p.Ack || q.Clock != p.Clock || q.Echo != p.Echo {
		t.Fatalf("control scalar mismatch: %+v vs %+v", q, p)
	}
	for _, pair := range [][2][]int32{
		{q.Members, p.Members}, {q.Degrees, p.Degrees},
		{q.PropMembers, p.PropMembers}, {q.PropDegrees, p.PropDegrees},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("control slice length mismatch: %v vs %v", pair[0], pair[1])
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("control slice mismatch: %v vs %v", pair[0], pair[1])
			}
		}
	}
	if !q.StalerThan(43) || q.StalerThan(42) {
		t.Fatal("StalerThan broken")
	}
	// Clone must not share slice memory with the original.
	c := p.Clone().(*Control)
	c.Members[0] = 99
	if p.Members[0] == 99 {
		t.Fatal("Clone shares Members memory")
	}
}

func TestStreamCtlPayloadRoundTrip(t *testing.T) {
	p := &StreamCtl{
		Op:     OpStreamReduce,
		Seq:    7,
		Stream: 514,
		Seed:   -42,
		N:      1 << 20,
		NNZ:    4096,
		Rounds: 3,
		Width:  4,
		Digest: 0xfeedfacecafebeef,
	}
	q := roundTrip(t, p).(*StreamCtl)
	if *q != *p {
		t.Fatalf("streamctl mismatch: %+v vs %+v", q, p)
	}
	if got := p.AppendTo(nil); len(got) != p.WireSize() {
		t.Fatalf("WireSize %d but encoded %d bytes", p.WireSize(), len(got))
	}
}

func TestDeltaPayloadRoundTrip(t *testing.T) {
	in := sparse.MustNewSet([]int32{1, 2, 3})
	p := &Delta{OutSame: true, In: in}
	q := roundTrip(t, p).(*Delta)
	if q.InSame || !q.OutSame || !q.In.Equal(in) || len(q.Out) != 0 {
		t.Fatalf("delta mismatch: %+v", q)
	}
	// The all-same marker is two bytes regardless of the sets it stands for.
	if n := (&Delta{InSame: true, OutSame: true}).WireSize(); n != 2 {
		t.Fatalf("all-same delta costs %d bytes, want 2", n)
	}
}

// TestCompressedWireSavings pins the headline property of the v2 config
// wire format: on an eighth-density index set (the Zipf workload regime
// of Figure 4), the compressed encoding is at most 1/3 of the raw
// 8-byte-per-key format.
func TestCompressedWireSavings(t *testing.T) {
	idx := make([]int32, 0, 4096)
	for i := int32(0); len(idx) < 4096; i += 8 {
		idx = append(idx, i)
	}
	set := sparse.MustNewSet(idx)
	p := &InOut{In: set, Out: set}
	wire, raw := p.WireSize(), p.RawWireSize()
	if wire*3 > raw {
		t.Fatalf("compressed %d bytes vs raw %d: want <= 1/3", wire, raw)
	}
	// Floats do not compress; RawWireSize falls back to WireSize.
	f := &Floats{Vals: []float32{1, 2}}
	if RawWireSize(f) != f.WireSize() {
		t.Fatal("RawWireSize of a value payload diverged from WireSize")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{99},                              // unknown discriminator
		{1, 5},                            // retired raw keys form
		{1, 10, 0, 0, 0},                  // retired raw keys form
		{2, 3, 0, 0, 0, 1},                // floats truncated
		{3, 1, 0, 0, 0},                   // keysvals missing second count
		{3, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2}, // keysvals truncated body
		{4, 9, 0, 0, 0, 'x'},              // bytes truncated
	}
	for i, c := range cases {
		if _, err := DecodePayload(c); err == nil {
			t.Errorf("case %d: want decode error", i)
		}
	}
}

func TestDecodeRejectsRetiredForms(t *testing.T) {
	// The raw 8-byte-per-key index-set forms are no longer decodable,
	// even when well formed.
	cases := map[string][]byte{
		"keys":     {1, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0},
		"inout":    {6, 0, 0, 0, 0, 0, 0, 0, 0},
		"combined": {7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, c := range cases {
		if p, err := DecodePayload(c); err == nil {
			t.Errorf("%s: decoded retired discriminator %d as %T", name, c[0], p)
		}
	}
}

func TestDecodeBytesCopies(t *testing.T) {
	buf := (&Bytes{Data: []byte("abc")}).AppendTo(nil)
	q, err := DecodePayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] = 'z'
	if string(q.(*Bytes).Data) != "abc" {
		t.Fatal("decoded Bytes aliases input buffer")
	}
}

func TestMailboxBasic(t *testing.T) {
	mb := NewMailbox(time.Second)
	mb.Deliver(3, MakeTag(KindConfig, 1, 0), &Bytes{Data: []byte("x")})
	p, err := mb.Recv(3, MakeTag(KindConfig, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(p.(*Bytes).Data) != "x" {
		t.Fatal("wrong payload")
	}
}

func TestMailboxBlocksUntilDelivery(t *testing.T) {
	mb := NewMailbox(5 * time.Second)
	tag := MakeTag(KindReduce, 0, 0)
	done := make(chan Payload, 1)
	go func() {
		p, err := mb.Recv(7, tag)
		if err != nil {
			done <- nil
			return
		}
		done <- p
	}()
	time.Sleep(10 * time.Millisecond)
	mb.Deliver(7, tag, &Floats{Vals: []float32{1}})
	select {
	case p := <-done:
		if p == nil {
			t.Fatal("recv errored")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv did not wake")
	}
}

func TestMailboxTimeout(t *testing.T) {
	mb := NewMailbox(50 * time.Millisecond)
	start := time.Now()
	tag := MakeTag(KindConfig, 0, 0)
	_, err := mb.Recv(0, tag)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout far too late")
	}
	// The error carries the context a hung soak test needs: which tag,
	// which senders, how long the receiver waited.
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err %T is not a *TimeoutError", err)
	}
	if te.Tag != tag || len(te.From) != 1 || te.From[0] != 0 {
		t.Fatalf("timeout context = %+v, want tag %v from [0]", te, tag)
	}
	if te.Elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed %v below the 50ms deadline", te.Elapsed)
	}
}

func TestMailboxClose(t *testing.T) {
	mb := NewMailbox(0)
	go func() {
		time.Sleep(10 * time.Millisecond)
		mb.Close()
	}()
	if _, err := mb.Recv(0, MakeTag(KindConfig, 0, 0)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Deliveries after close are dropped without panic.
	mb.Deliver(0, MakeTag(KindConfig, 0, 0), &Bytes{})
}

func TestMailboxFIFOPerSender(t *testing.T) {
	mb := NewMailbox(time.Second)
	tag := MakeTag(KindApp, 0, 0)
	for i := 0; i < 10; i++ {
		mb.Deliver(1, tag, &Floats{Vals: []float32{float32(i)}})
	}
	for i := 0; i < 10; i++ {
		p, err := mb.Recv(1, tag)
		if err != nil {
			t.Fatal(err)
		}
		if p.(*Floats).Vals[0] != float32(i) {
			t.Fatalf("out of order: got %v at %d", p.(*Floats).Vals[0], i)
		}
	}
}

func TestMailboxRecvAnyRace(t *testing.T) {
	mb := NewMailbox(time.Second)
	tag := MakeTag(KindReduce, 1, 3)
	mb.Deliver(5, tag, &Bytes{Data: []byte("winner")})
	from, p, err := mb.RecvAny([]int{2, 5, 9}, tag)
	if err != nil {
		t.Fatal(err)
	}
	if from != 5 || string(p.(*Bytes).Data) != "winner" {
		t.Fatalf("won from %d", from)
	}
	// Late duplicates from the losers are discarded.
	mb.Deliver(2, tag, &Bytes{Data: []byte("late")})
	mb.Deliver(9, tag, &Bytes{Data: []byte("late")})
	if n := mb.Pending(); n != 0 {
		t.Fatalf("%d late duplicates retained", n)
	}
}

func TestMailboxRecvAnyDoesNotCancelOtherTags(t *testing.T) {
	mb := NewMailbox(time.Second)
	tagA := MakeTag(KindReduce, 1, 0)
	tagB := MakeTag(KindReduce, 1, 1)
	mb.Deliver(5, tagA, &Bytes{})
	if _, _, err := mb.RecvAny([]int{2, 5}, tagA); err != nil {
		t.Fatal(err)
	}
	// Sender 2 lost the race for tagA, but its tagB messages still flow.
	mb.Deliver(2, tagB, &Bytes{Data: []byte("ok")})
	if p, err := mb.Recv(2, tagB); err != nil || string(p.(*Bytes).Data) != "ok" {
		t.Fatalf("tagB delivery broken: %v %v", p, err)
	}
}

func TestMailboxResetDiscards(t *testing.T) {
	mb := NewMailbox(time.Second)
	tag := MakeTag(KindGather, 0, 0)
	mb.Deliver(1, tag, &Bytes{})
	if _, _, err := mb.RecvAny([]int{1, 2}, tag); err != nil {
		t.Fatal(err)
	}
	mb.ResetDiscards()
	mb.Deliver(2, tag, &Bytes{})
	if _, err := mb.Recv(2, tag); err != nil {
		t.Fatal("delivery after ResetDiscards dropped")
	}
}

// TestMailboxCloseStreamPurgesIndex is the satellite-1 leak
// regression: a stream closed with undelivered (indexed, never
// drained) messages must leave no stale entries in the pending-sender
// index, no queued payloads, and no discard marks.
func TestMailboxCloseStreamPurgesIndex(t *testing.T) {
	mb := NewMailbox(time.Second)
	const s = StreamID(7)
	// Undelivered messages across several tags and senders: all indexed.
	for layer := 0; layer < 4; layer++ {
		for from := 0; from < 3; from++ {
			mb.Deliver(from, MakeStreamTag(s, KindReduce, layer, 0), &Bytes{Data: []byte("leak")})
		}
	}
	// A replica race leaves discard marks for the losers too.
	raceTag := MakeStreamTag(s, KindGather, 0, 1)
	mb.Deliver(1, raceTag, &Bytes{})
	if _, _, err := mb.RecvAny([]int{1, 2}, raceTag); err != nil {
		t.Fatal(err)
	}
	// Traffic on another stream must survive the close untouched.
	otherTag := MakeStreamTag(8, KindReduce, 0, 0)
	mb.Deliver(0, otherTag, &Bytes{Data: []byte("ok")})

	if mb.IndexedTags() == 0 || mb.StreamPending(s) == 0 {
		t.Fatal("precondition: stream has pending indexed messages")
	}
	mb.CloseStream(s)
	if n := mb.StreamPending(s); n != 0 {
		t.Fatalf("%d messages retained after CloseStream", n)
	}
	if n := mb.IndexedTags(); n != 1 { // only otherTag remains
		t.Fatalf("pending-sender index has %d entries after CloseStream, want 1", n)
	}
	// Late deliveries (resend-ring replays, faultnet delays) are dropped
	// rather than re-leaking index entries.
	mb.Deliver(0, MakeStreamTag(s, KindReduce, 0, 2), &Bytes{})
	mb.Deliver(2, raceTag, &Bytes{})
	if mb.StreamPending(s) != 0 || mb.IndexedTags() != 1 {
		t.Fatal("late delivery into a dead stream re-leaked state")
	}
	// The other stream still flows.
	if p, err := mb.Recv(0, otherTag); err != nil || string(p.(*Bytes).Data) != "ok" {
		t.Fatalf("cross-stream traffic broken by CloseStream: %v %v", p, err)
	}
	if mb.IndexedTags() != 0 {
		t.Fatal("index not empty after draining the survivor")
	}
}

// TestMailboxCloseStreamWakesReceivers checks a receive blocked on a
// closed stream fails with ErrStreamClosed while the endpoint itself
// stays live.
func TestMailboxCloseStreamWakesReceivers(t *testing.T) {
	mb := NewMailbox(0)
	const s = StreamID(3)
	errc := make(chan error, 3)
	go func() {
		_, err := mb.Recv(0, MakeStreamTag(s, KindReduce, 0, 0))
		errc <- err
	}()
	go func() {
		_, _, err := mb.RecvAny([]int{0, 1}, MakeStreamTag(s, KindReduce, 1, 0))
		errc <- err
	}()
	go func() {
		_, _, err := mb.RecvGroup([][]int{{0}, {1}}, MakeStreamTag(s, KindGather, 0, 0))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	mb.CloseStream(s)
	for i := 0; i < 3; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("err = %v, want ErrStreamClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blocked receive did not wake on CloseStream")
		}
	}
	if !mb.StreamDead(s) {
		t.Fatal("stream not marked dead")
	}
	// DefaultStream can never be closed.
	mb.CloseStream(DefaultStream)
	if mb.StreamDead(DefaultStream) {
		t.Fatal("DefaultStream was closed")
	}
	mb.Deliver(0, MakeTag(KindReduce, 0, 0), &Bytes{Data: []byte("live")})
	if p, err := mb.Recv(0, MakeTag(KindReduce, 0, 0)); err != nil || string(p.(*Bytes).Data) != "live" {
		t.Fatalf("endpoint dead after CloseStream: %v %v", p, err)
	}
}

// TestMailboxStreamIsolation pins that two streams using identical
// (kind, layer, seq) triples never cross-deliver — the headline bug of
// the narrow tag layout.
func TestMailboxStreamIsolation(t *testing.T) {
	mb := NewMailbox(time.Second)
	a := MakeStreamTag(1, KindReduce, 2, 5)
	b := MakeStreamTag(2, KindReduce, 2, 5)
	mb.Deliver(0, a, &Bytes{Data: []byte("A")})
	mb.Deliver(0, b, &Bytes{Data: []byte("B")})
	if p, err := mb.Recv(0, b); err != nil || string(p.(*Bytes).Data) != "B" {
		t.Fatalf("stream 2 got %v, %v", p, err)
	}
	if p, err := mb.Recv(0, a); err != nil || string(p.(*Bytes).Data) != "A" {
		t.Fatalf("stream 1 got %v, %v", p, err)
	}
}

func TestMailboxConcurrentStress(t *testing.T) {
	mb := NewMailbox(5 * time.Second)
	const senders = 8
	const msgs = 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < msgs; i++ {
				if rng.Intn(4) == 0 {
					time.Sleep(time.Microsecond)
				}
				mb.Deliver(s, MakeTag(KindApp, 0, uint32(i)), &Floats{Vals: []float32{float32(s*1000 + i)}})
			}
		}(s)
	}
	var rg sync.WaitGroup
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		rg.Add(1)
		go func(s int) {
			defer rg.Done()
			for i := 0; i < msgs; i++ {
				p, err := mb.Recv(s, MakeTag(KindApp, 0, uint32(i)))
				if err != nil {
					errs <- err
					return
				}
				if p.(*Floats).Vals[0] != float32(s*1000+i) {
					errs <- ErrTimeout
					return
				}
			}
		}(s)
	}
	wg.Wait()
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
