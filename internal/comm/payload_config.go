package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"kylix/internal/sparse"
)

// Configuration-pass wire discriminators (continuing payload.go's
// space): index sets encoded with sparse.AppendCompressed (8–10) and
// the incremental-reconfigure marker 11.
const (
	wireKeysC     = 8  // compressed Keys
	wireInOutC    = 9  // compressed InOut
	wireCombinedC = 10 // compressed Combined
	wireDelta     = 11 // incremental reconfigure piece
)

// InOut carries a node's in- and out- index-set pieces in one
// configuration message, as §III-A sends both partitions together.
type InOut struct {
	In  sparse.Set
	Out sparse.Set

	memo wireMemo
}

// Combined carries in-keys, out-keys and out-values in a single message:
// the fused configure+reduce downward pass that §III recommends for
// minibatch workloads whose in/out sets change every allreduce.
type Combined struct {
	In   sparse.Set
	Out  sparse.Set
	Vals []float32

	memo wireMemo
}

// Delta is the incremental counterpart of InOut, sent by
// Config.Reconfigure: each direction is either a same-as-last-time
// marker (one flag bit, zero keys) or the full replacement piece. The
// receiver substitutes its stored copy of the previous piece for each
// marker, so an unchanged layer costs two bytes per neighbour instead
// of a re-shipped set.
type Delta struct {
	// InSame/OutSame mark directions whose piece is identical to the one
	// sent in the previous configuration pass over this Config.
	InSame, OutSame bool
	// In/Out carry the replacement pieces for the directions not marked
	// Same (nil otherwise).
	In  sparse.Set
	Out sparse.Set

	memo wireMemo
}

// Clone implements Payload.
func (p *InOut) Clone() Payload {
	return &InOut{In: p.In.Clone(), Out: p.Out.Clone()}
}

// Clone implements Payload.
func (p *Combined) Clone() Payload {
	return &Combined{
		In:   p.In.Clone(),
		Out:  p.Out.Clone(),
		Vals: append([]float32(nil), p.Vals...),
	}
}

// Clone implements Payload.
func (p *Delta) Clone() Payload {
	return &Delta{
		InSame:  p.InSame,
		OutSame: p.OutSame,
		In:      p.In.Clone(),
		Out:     p.Out.Clone(),
	}
}

func (p *InOut) encode() []byte {
	buf := sparse.AppendCompressed([]byte{wireInOutC}, p.In)
	return sparse.AppendCompressed(buf, p.Out)
}

// WireSize implements Payload.
func (p *InOut) WireSize() int { return p.memo.wireSize(p.encode) }

// AppendTo implements Payload.
func (p *InOut) AppendTo(buf []byte) []byte {
	return append(buf, p.memo.bytes(p.encode)...)
}

// RawWireSize implements RawSizer.
func (p *InOut) RawWireSize() int { return 1 + 4 + 4 + 8*len(p.In) + 8*len(p.Out) }

// encodeSets encodes the immutable prefix of a Combined payload: the
// discriminator and both compressed set blocks. Vals deliberately stays
// out of the memo — the fused pass points Vals at value buffers the
// caller may overwrite after the round, and the traffic recorder can
// touch a retained payload later (fault-injecting transports re-Send
// held pointers), so the memoized bytes must never read Vals. Its wire
// cost is pure arithmetic anyway.
func (p *Combined) encodeSets() []byte {
	buf := sparse.AppendCompressed([]byte{wireCombinedC}, p.In)
	return sparse.AppendCompressed(buf, p.Out)
}

// WireSize implements Payload.
func (p *Combined) WireSize() int {
	return p.memo.wireSize(p.encodeSets) + uvarintLen(uint64(len(p.Vals))) + 4*len(p.Vals)
}

// AppendTo implements Payload. The set prefix comes from the memo; the
// values are appended fresh, reading Vals at encode time exactly as the
// raw format did.
func (p *Combined) AppendTo(buf []byte) []byte {
	buf = append(buf, p.memo.bytes(p.encodeSets)...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Vals)))
	for _, v := range p.Vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// RawWireSize implements RawSizer.
func (p *Combined) RawWireSize() int {
	return 1 + 4 + 4 + 4 + 8*len(p.In) + 8*len(p.Out) + 4*len(p.Vals)
}

func (p *Delta) encode() []byte {
	var flags byte
	if p.InSame {
		flags |= 1
	}
	if p.OutSame {
		flags |= 2
	}
	buf := []byte{wireDelta, flags}
	if !p.InSame {
		buf = sparse.AppendCompressed(buf, p.In)
	}
	if !p.OutSame {
		buf = sparse.AppendCompressed(buf, p.Out)
	}
	return buf
}

// WireSize implements Payload.
func (p *Delta) WireSize() int { return p.memo.wireSize(p.encode) }

// AppendTo implements Payload.
func (p *Delta) AppendTo(buf []byte) []byte {
	return append(buf, p.memo.bytes(p.encode)...)
}

// RawWireSize implements RawSizer.
func (p *Delta) RawWireSize() int {
	n := 2
	if !p.InSame {
		n += 4 + 8*len(p.In)
	}
	if !p.OutSame {
		n += 4 + 8*len(p.Out)
	}
	return n
}

// decodeConfigPayload handles the discriminators defined in this file;
// it is called from DecodePayload's default branch. Decoded compressed
// payloads have their memoized wire size preset (the decoder knows the
// consumed byte count), so traffic accounting on a forwarded payload
// does not re-run the codec.
func decodeConfigPayload(kind byte, buf []byte) (Payload, error) {
	whole := len(buf) + 1 // discriminator byte included
	switch kind {
	case wireKeysC:
		keys, rest, err := sparse.DecodeCompressed(nil, buf)
		if err != nil {
			return nil, err
		}
		p := &Keys{Keys: keys}
		p.memo.size = whole - len(rest)
		return p, nil
	case wireInOutC:
		in, rest, err := sparse.DecodeCompressed(nil, buf)
		if err != nil {
			return nil, err
		}
		out, rest, err := sparse.DecodeCompressed(nil, rest)
		if err != nil {
			return nil, err
		}
		p := &InOut{In: in, Out: out}
		p.memo.size = whole - len(rest)
		return p, nil
	case wireCombinedC:
		in, rest, err := sparse.DecodeCompressed(nil, buf)
		if err != nil {
			return nil, err
		}
		out, rest, err := sparse.DecodeCompressed(nil, rest)
		if err != nil {
			return nil, err
		}
		prefix := whole - len(rest) // discriminator + both set blocks
		nv, sz := binary.Uvarint(rest)
		if sz <= 0 || nv > 1<<32 {
			return nil, fmt.Errorf("comm: bad combined value count")
		}
		rest = rest[sz:]
		if uint64(len(rest)) < nv*4 {
			return nil, fmt.Errorf("comm: truncated combined values")
		}
		vals := make([]float32, nv)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[i*4:]))
		}
		p := &Combined{In: in, Out: out, Vals: vals}
		p.memo.size = prefix
		return p, nil
	case wireDelta:
		if len(buf) < 1 {
			return nil, fmt.Errorf("comm: truncated delta payload")
		}
		flags := buf[0]
		if flags > 3 {
			return nil, fmt.Errorf("comm: bad delta flags %#x", flags)
		}
		rest := buf[1:]
		p := &Delta{InSame: flags&1 != 0, OutSame: flags&2 != 0}
		var err error
		if !p.InSame {
			p.In, rest, err = sparse.DecodeCompressed(nil, rest)
			if err != nil {
				return nil, err
			}
		}
		if !p.OutSame {
			p.Out, rest, err = sparse.DecodeCompressed(nil, rest)
			if err != nil {
				return nil, err
			}
		}
		p.memo.size = whole - len(rest)
		return p, nil
	default:
		return nil, fmt.Errorf("comm: unknown payload discriminator %d", kind)
	}
}
