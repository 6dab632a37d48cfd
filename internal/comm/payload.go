package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"kylix/internal/sparse"
)

// Payload is a typed message body. In-memory transports pass Payloads by
// reference (zero copy); the TCP transport encodes them with the
// self-describing wire format below. WireSize is also what the traffic
// recorder charges, so both transports account identical byte volumes.
type Payload interface {
	// WireSize is the encoded size in bytes, excluding the frame header.
	WireSize() int
	// AppendTo appends the wire encoding to buf and returns it.
	AppendTo(buf []byte) []byte
	// Clone returns a deep copy sharing no memory with the receiver.
	// Layers that fan one payload out to several in-process receivers
	// with independent lifetimes (the replica layer) clone first, so a
	// sender reusing its buffers cannot corrupt a slow receiver's copy.
	Clone() Payload
}

// RawSizer is implemented by payloads whose wire encoding compresses
// its content: index-set payloads (compressed key codec) and quantized
// value blocks (fp16/int8 value codec). RawWireSize reports what the
// same payload would cost in the uncompressed format — 8 bytes per key,
// 4 bytes per float32 value — so traffic accounting can expose
// raw-vs-encoded compression ratios per layer.
type RawSizer interface {
	RawWireSize() int
}

// RawWireSize returns p's size in the uncompressed wire format: the
// RawSizer value for compressed payloads, WireSize for everything else
// (raw value payloads are not compressed, so the two coincide).
func RawWireSize(p Payload) int {
	if rs, ok := p.(RawSizer); ok {
		return rs.RawWireSize()
	}
	return p.WireSize()
}

// Payload type discriminators on the wire. 2–4 are fixed-width
// formats; the compressed index-set forms 8–11 live in
// payload_config.go, 12–13 are control planes, and the quantized value
// block 14 lives in payload_qvals.go. Every rank runs one binary and
// nothing on the wire is persisted, so the retired raw
// 8-byte-per-key index-set forms (1, 6 and 7) are rejected rather than
// kept decodable.
const (
	wireFloats   = 2
	wireKeysVals = 3
	wireBytes    = 4
)

// wireMemo caches a payload's encoded form so that WireSize (charged by
// the traffic recorder on every transport) and AppendTo (run by the TCP
// write loop) encode at most once per payload, even when a payload is
// fanned out to many receivers. Payloads flow through fault-injecting
// transports that re-Send retained pointers from a drain goroutine, so
// the memo must be safe for concurrent first use: sync.Once guards the
// encode.
//
// size is an optional fast path preset by decoders (single-threaded,
// before the payload is shared): it answers WireSize without
// re-encoding a payload that just arrived off the wire.
type wireMemo struct {
	size int
	once sync.Once
	buf  []byte
}

// bytes returns the memoized encoding, running enc on first use.
func (m *wireMemo) bytes(enc func() []byte) []byte {
	m.once.Do(func() { m.buf = enc() })
	return m.buf
}

// wireSize returns the encoded size. Every encoding starts with a
// discriminator byte, so size 0 always means "not yet known".
func (m *wireMemo) wireSize(enc func() []byte) int {
	if n := m.size; n > 0 {
		return n
	}
	return len(m.bytes(enc))
}

// Keys carries a sorted index set (configuration pass). It encodes with
// the compressed index codec (sparse.AppendCompressed); the keys must
// therefore be MakeKey-derived, which every Set built by sparse.NewSet
// is.
type Keys struct {
	Keys sparse.Set

	memo wireMemo
}

// Floats carries a value block (reduce and gather passes).
type Floats struct {
	Vals []float32
}

// KeysVals carries an index set together with its values (the combined
// configure+reduce message of §III, and the bottom turnaround).
type KeysVals struct {
	Keys sparse.Set
	Vals []float32
}

// Bytes carries opaque application data.
type Bytes struct {
	Data []byte
}

// Clone implements Payload.
func (p *Keys) Clone() Payload { return &Keys{Keys: p.Keys.Clone()} }

// Clone implements Payload.
func (p *Floats) Clone() Payload {
	return &Floats{Vals: append([]float32(nil), p.Vals...)}
}

// Clone implements Payload.
func (p *KeysVals) Clone() Payload {
	return &KeysVals{Keys: p.Keys.Clone(), Vals: append([]float32(nil), p.Vals...)}
}

// Clone implements Payload.
func (p *Bytes) Clone() Payload {
	return &Bytes{Data: append([]byte(nil), p.Data...)}
}

func (p *Keys) encode() []byte {
	return sparse.AppendCompressed([]byte{wireKeysC}, p.Keys)
}

// WireSize implements Payload.
func (p *Keys) WireSize() int { return p.memo.wireSize(p.encode) }

// AppendTo implements Payload.
func (p *Keys) AppendTo(buf []byte) []byte {
	return append(buf, p.memo.bytes(p.encode)...)
}

// RawWireSize implements RawSizer.
func (p *Keys) RawWireSize() int { return 1 + 4 + 8*len(p.Keys) }

// WireSize implements Payload.
func (p *Floats) WireSize() int { return 1 + 4 + 4*len(p.Vals) }

// AppendTo implements Payload.
func (p *Floats) AppendTo(buf []byte) []byte {
	buf = append(buf, wireFloats)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Vals)))
	for _, v := range p.Vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// WireSize implements Payload.
func (p *KeysVals) WireSize() int { return 1 + 4 + 4 + 8*len(p.Keys) + 4*len(p.Vals) }

// AppendTo implements Payload.
func (p *KeysVals) AppendTo(buf []byte) []byte {
	buf = append(buf, wireKeysVals)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Keys)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Vals)))
	for _, k := range p.Keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	}
	for _, v := range p.Vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// WireSize implements Payload.
func (p *Bytes) WireSize() int { return 1 + 4 + len(p.Data) }

// AppendTo implements Payload.
func (p *Bytes) AppendTo(buf []byte) []byte {
	buf = append(buf, wireBytes)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Data)))
	return append(buf, p.Data...)
}

// DecodePayload parses a wire-encoded payload produced by AppendTo.
func DecodePayload(buf []byte) (Payload, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("comm: empty payload")
	}
	kind, buf := buf[0], buf[1:]
	readU32 := func() (uint32, error) {
		if len(buf) < 4 {
			return 0, fmt.Errorf("comm: truncated payload")
		}
		v := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		return v, nil
	}
	switch kind {
	case wireFloats:
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if len(buf) < int(n)*4 {
			return nil, fmt.Errorf("comm: truncated floats payload")
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		return &Floats{Vals: vals}, nil
	case wireKeysVals:
		nk, err := readU32()
		if err != nil {
			return nil, err
		}
		nv, err := readU32()
		if err != nil {
			return nil, err
		}
		if len(buf) < int(nk)*8+int(nv)*4 {
			return nil, fmt.Errorf("comm: truncated keysvals payload")
		}
		keys := make(sparse.Set, nk)
		for i := range keys {
			keys[i] = sparse.Key(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		buf = buf[nk*8:]
		vals := make([]float32, nv)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		return &KeysVals{Keys: keys, Vals: vals}, nil
	case wireBytes:
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if len(buf) < int(n) {
			return nil, fmt.Errorf("comm: truncated bytes payload")
		}
		data := make([]byte, n)
		copy(data, buf)
		return &Bytes{Data: data}, nil
	case wireControl:
		return decodeControlPayload(buf)
	case wireStreamCtl:
		return decodeStreamCtlPayload(buf)
	case wireQVals:
		return decodeQValsPayload(buf)
	default:
		return decodeConfigPayload(kind, buf)
	}
}
