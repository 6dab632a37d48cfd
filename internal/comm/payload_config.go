package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"kylix/internal/sparse"
)

// wireConfigPiece is the discriminator of the configuration-pass piece
// (continuing payload.go's space).
const wireConfigPiece = 11

// Flag bits of a ConfigPiece encoding; any other bit is a decode error.
const (
	pieceInSame  = 1 << 0
	pieceOutSame = 1 << 1
	pieceVals    = 1 << 2
)

// ConfigPiece is the one message of the downward configuration pass
// (§III-A): a node's in- and out- index-set pieces for one group member,
// plus — in the fused configure+reduce pass §III recommends for
// minibatch workloads — the out-piece's values. Configure,
// ConfigureReduce and Config.Reconfigure all ship it.
//
// Wire form: disc(11) flags(1) [in] [out] [uvarint(n) n×float32], where
// each set block is sparse.AppendCompressed and is present only when its
// direction is not marked Same, and the value block is present only
// when HasVals is set.
type ConfigPiece struct {
	// InSame/OutSame mark directions whose piece is identical to the one
	// sent in the previous configuration pass over the same Config; the
	// receiver rebuilds the marked piece from its own routing state, so
	// an unchanged direction costs one flag bit and zero keys.
	InSame, OutSame bool
	// In/Out carry the pieces of the directions not marked Same.
	In  sparse.Set
	Out sparse.Set
	// HasVals says a value block follows the sets. It is explicit rather
	// than inferred from Vals != nil: a fused piece with an empty
	// out-piece may carry a nil Vals and must still encode as fused.
	HasVals bool
	// Vals holds Width values per key of the out-piece when HasVals is
	// set.
	Vals []float32

	memo wireMemo
}

// Clone implements Payload.
func (p *ConfigPiece) Clone() Payload {
	return &ConfigPiece{
		InSame:  p.InSame,
		OutSame: p.OutSame,
		In:      p.In.Clone(),
		Out:     p.Out.Clone(),
		HasVals: p.HasVals,
		Vals:    append([]float32(nil), p.Vals...),
	}
}

// encodeSets encodes the immutable prefix of the piece: discriminator,
// flags and the set blocks. Vals deliberately stays out of the memo —
// the fused pass points Vals at value buffers the caller may overwrite
// after the round, and the traffic recorder can touch a retained
// payload later (fault-injecting transports re-Send held pointers), so
// the memoized bytes must never read Vals. Its wire cost is pure
// arithmetic anyway.
func (p *ConfigPiece) encodeSets() []byte {
	var flags byte
	if p.InSame {
		flags |= pieceInSame
	}
	if p.OutSame {
		flags |= pieceOutSame
	}
	if p.HasVals {
		flags |= pieceVals
	}
	buf := []byte{wireConfigPiece, flags}
	if !p.InSame {
		buf = sparse.AppendCompressed(buf, p.In)
	}
	if !p.OutSame {
		buf = sparse.AppendCompressed(buf, p.Out)
	}
	return buf
}

// WireSize implements Payload.
func (p *ConfigPiece) WireSize() int {
	n := p.memo.wireSize(p.encodeSets)
	if p.HasVals {
		n += uvarintLen(uint64(len(p.Vals))) + 4*len(p.Vals)
	}
	return n
}

// AppendTo implements Payload. The set prefix comes from the memo; the
// values are appended fresh, reading Vals at encode time.
func (p *ConfigPiece) AppendTo(buf []byte) []byte {
	buf = append(buf, p.memo.bytes(p.encodeSets)...)
	if !p.HasVals {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Vals)))
	for _, v := range p.Vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// RawWireSize implements RawSizer: the same piece with 8-byte keys and
// 4-byte counts.
func (p *ConfigPiece) RawWireSize() int {
	n := 2
	if !p.InSame {
		n += 4 + 8*len(p.In)
	}
	if !p.OutSame {
		n += 4 + 8*len(p.Out)
	}
	if p.HasVals {
		n += 4 + 4*len(p.Vals)
	}
	return n
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

// decodeConfigPayload handles the discriminators defined in this file;
// it is called from DecodePayload's default branch. A decoded piece has
// its memoized prefix size preset (the decoder knows the consumed byte
// count), so traffic accounting on a forwarded payload does not re-run
// the codec.
func decodeConfigPayload(kind byte, buf []byte) (Payload, error) {
	if kind != wireConfigPiece {
		return nil, fmt.Errorf("comm: unknown payload discriminator %d", kind)
	}
	if len(buf) < 1 {
		return nil, fmt.Errorf("comm: truncated config piece")
	}
	flags := buf[0]
	if flags > pieceInSame|pieceOutSame|pieceVals {
		return nil, fmt.Errorf("comm: bad config piece flags %#x", flags)
	}
	rest := buf[1:]
	p := &ConfigPiece{InSame: flags&pieceInSame != 0, OutSame: flags&pieceOutSame != 0, HasVals: flags&pieceVals != 0}
	var err error
	if !p.InSame {
		if p.In, rest, err = sparse.DecodeCompressed(nil, rest); err != nil {
			return nil, err
		}
	}
	if !p.OutSame {
		if p.Out, rest, err = sparse.DecodeCompressed(nil, rest); err != nil {
			return nil, err
		}
	}
	p.memo.size = len(buf) + 1 - len(rest) // discriminator included
	if !p.HasVals {
		return p, nil
	}
	nv, sz := binary.Uvarint(rest)
	if sz <= 0 || nv > 1<<32 {
		return nil, fmt.Errorf("comm: bad config piece value count")
	}
	rest = rest[sz:]
	if uint64(len(rest)) < nv*4 {
		return nil, fmt.Errorf("comm: truncated config piece values")
	}
	p.Vals = make([]float32, nv)
	for i := range p.Vals {
		p.Vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[i*4:]))
	}
	return p, nil
}
