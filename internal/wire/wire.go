// Package wire defines the binary encoding of application packets and
// protocol piggybacks. The DES engine passes piggybacks as Go values;
// the live runtime (internal/live) marshals them through this package so
// the protocols' control information demonstrably survives a real wire —
// and so the piggyback sizes the energy model charges (8 bytes per
// integer, §4) correspond to actual encoded bytes.
//
// Format (big endian):
//
//	packet  := id:u64 from:u32 to:u32 piggyback
//	piggyback := tag:u8 body
//	  tag 0 (none)   := -
//	  tag 1 (index)  := sn:i64                         (BCS, QBC)
//	  tag 2 (vector) := n:u32 ckpt:[n]i64 loc:[n]i64   (TP)
//
// Host and station ids are u32 on the wire: the u16 ids of the original
// format silently capped a deployment at 65,536 hosts, a limit the
// million-host experiments (E21) cross by design.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/vclock"
)

// Piggyback type tags.
const (
	TagNone byte = iota
	TagIndex
	TagVector
)

// AppendPiggyback encodes pb (nil, protocol.IndexPiggyback, or TP's
// vectors as the *protocol.TPView OnSend returns or as a dense
// protocol.TPPiggyback) onto buf and returns the extended slice.
func AppendPiggyback(buf []byte, pb any) ([]byte, error) {
	switch v := pb.(type) {
	case nil:
		return append(buf, TagNone), nil
	case protocol.IndexPiggyback:
		buf = append(buf, TagIndex)
		return binary.BigEndian.AppendUint64(buf, uint64(int64(v))), nil
	case *protocol.TPView:
		return AppendPiggyback(buf, v.Dense())
	case protocol.TPPiggyback:
		if len(v.Ckpt) != len(v.Loc) {
			return nil, fmt.Errorf("wire: vector widths differ: %d vs %d", len(v.Ckpt), len(v.Loc))
		}
		if len(v.Ckpt) > math.MaxUint32 {
			return nil, fmt.Errorf("wire: vector too wide: %d", len(v.Ckpt))
		}
		buf = append(buf, TagVector)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Ckpt)))
		for _, x := range v.Ckpt {
			buf = binary.BigEndian.AppendUint64(buf, uint64(int64(x)))
		}
		for _, x := range v.Loc {
			buf = binary.BigEndian.AppendUint64(buf, uint64(int64(x)))
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("wire: unsupported piggyback type %T", pb)
	}
}

// DecodePiggyback decodes one piggyback from b, returning the value and
// the number of bytes consumed.
func DecodePiggyback(b []byte) (any, int, error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("wire: empty piggyback")
	}
	switch b[0] {
	case TagNone:
		return nil, 1, nil
	case TagIndex:
		if len(b) < 9 {
			return nil, 0, fmt.Errorf("wire: truncated index piggyback")
		}
		return protocol.IndexPiggyback(int64(binary.BigEndian.Uint64(b[1:]))), 9, nil
	case TagVector:
		if len(b) < 5 {
			return nil, 0, fmt.Errorf("wire: truncated vector header")
		}
		n := int(binary.BigEndian.Uint32(b[1:]))
		need := 5 + 16*n
		if len(b) < need {
			return nil, 0, fmt.Errorf("wire: truncated vectors: have %d, need %d", len(b), need)
		}
		// One allocation, and no fill: the loops below write every word.
		words := make(vclock.Vector, 2*n)
		ckpt, loc := words[:n:n], words[n:]
		off := 5
		for i := 0; i < n; i++ {
			ckpt[i] = int(int64(binary.BigEndian.Uint64(b[off:])))
			off += 8
		}
		for i := 0; i < n; i++ {
			loc[i] = int(int64(binary.BigEndian.Uint64(b[off:])))
			off += 8
		}
		return protocol.TPPiggyback{Ckpt: ckpt, Loc: loc}, need, nil
	default:
		return nil, 0, fmt.Errorf("wire: unknown piggyback tag %d", b[0])
	}
}

// Packet is the application-message envelope.
type Packet struct {
	ID        uint64
	From, To  mobile.HostID
	Piggyback any
}

// packetHeader is id + from + to.
const packetHeader = 8 + 4 + 4

// indexPacket is the size of a packet carrying an index piggyback: the
// header, the tag and the index word.
const indexPacket = packetHeader + 1 + 8

// Marshal encodes the packet, in one allocation when the piggyback is
// absent or an index.
func (p *Packet) Marshal() ([]byte, error) {
	if p.From < 0 || p.From > math.MaxUint32 || p.To < 0 || p.To > math.MaxUint32 {
		return nil, fmt.Errorf("wire: host id out of range: %d -> %d", p.From, p.To)
	}
	buf := make([]byte, 0, indexPacket)
	buf = binary.BigEndian.AppendUint64(buf, p.ID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.From))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.To))
	return AppendPiggyback(buf, p.Piggyback)
}

// Unmarshal decodes a packet produced by Marshal. Trailing bytes are an
// error: the transport delivers whole packets.
func Unmarshal(b []byte) (*Packet, error) {
	if len(b) < packetHeader {
		return nil, fmt.Errorf("wire: truncated packet: %d bytes", len(b))
	}
	p := &Packet{
		ID:   binary.BigEndian.Uint64(b),
		From: mobile.HostID(binary.BigEndian.Uint32(b[8:])),
		To:   mobile.HostID(binary.BigEndian.Uint32(b[12:])),
	}
	pb, n, err := DecodePiggyback(b[packetHeader:])
	if err != nil {
		return nil, err
	}
	if packetHeader+n != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(b)-packetHeader-n)
	}
	p.Piggyback = pb
	return p, nil
}
