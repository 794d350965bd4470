package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"mobickpt/internal/mobile"
)

// This file adds the framed station-plane encoding on top of the bare
// application packet: the mlog subsystem moves per-host message logs
// between stations on hand-off (write-through transfer), and the transfer
// frames travel the same wired network as application packets. A frame is
// one tagged unit:
//
//	frame := kind:u8 body
//	  kind 0 (app)          := packet                       (see wire.go)
//	  kind 1 (log-transfer) := host:u32 from:u32 to:u32 n:u32 rec:[n]record
//	    record              := seq:u64 id:u64 from:u32 recvCount:i64 at:f64
//
// Ids are u32 like the packet format's (the u16 of the original layout
// truncated beyond 65,536 hosts). A transfer larger than
// MaxTransferRecords should be split with SplitTransfer so no single
// frame grows unboundedly with the log length.
//
// The log transfer is the one frame whose size follows the data it
// carries (a host's whole retained log, on every hand-off), so its codec
// is the append/into pair AppendLogTransfer/DecodeLogTransfer: a caller
// on a hot path reuses one frame buffer and one decode target, and
// EncodeFrame/DecodeFrame reach the same code through a fresh one.

// Frame kinds.
const (
	FrameApp byte = iota
	FrameLogTransfer
)

// LogRecord is the wire form of one mlog entry.
type LogRecord struct {
	Seq       uint64
	MsgID     uint64
	From      mobile.HostID
	RecvCount int64
	At        float64
}

// logRecordSize is the encoded size of one LogRecord.
const logRecordSize = 8 + 8 + 4 + 8 + 8

// logTransferHeader is kind + host + from + to + record count.
const logTransferHeader = 1 + 4 + 4 + 4 + 4

// MaxTransferRecords bounds how many records one log-transfer frame may
// carry. A host whose retained log outgrows the bound hands off in
// several frames (SplitTransfer); at 36 bytes per record the largest
// frame body stays under 256 KiB regardless of log length.
const MaxTransferRecords = 7280

// LogTransfer ships host's retained message log from station FromMSS to
// station ToMSS during a hand-off.
type LogTransfer struct {
	Host           mobile.HostID
	FromMSS, ToMSS mobile.MSSID
	Records        []LogRecord
}

func checkU32(what string, v int) error {
	if v < 0 || v > math.MaxUint32 {
		return fmt.Errorf("wire: %s out of range: %d", what, v)
	}
	return nil
}

// SplitTransfer splits t into frames of at most MaxTransferRecords
// records each, preserving order. A transfer within the bound is
// returned as-is (no copy); an empty transfer still yields one frame so
// the hand-off is visible to the receiving station. It defines the
// chunking but has no production caller: internal/live cuts the same
// chunks out of the log in place, without materializing t, and its tests
// hold that path to this function frame for frame.
func SplitTransfer(t *LogTransfer) []*LogTransfer {
	if len(t.Records) <= MaxTransferRecords {
		return []*LogTransfer{t}
	}
	out := make([]*LogTransfer, 0, (len(t.Records)+MaxTransferRecords-1)/MaxTransferRecords)
	for off := 0; off < len(t.Records); off += MaxTransferRecords {
		end := off + MaxTransferRecords
		if end > len(t.Records) {
			end = len(t.Records)
		}
		out = append(out, &LogTransfer{
			Host:    t.Host,
			FromMSS: t.FromMSS,
			ToMSS:   t.ToMSS,
			Records: t.Records[off:end],
		})
	}
	return out
}

// AppendLogTransfer appends t's log-transfer frame (kind byte included)
// to dst and returns the extended slice, growing dst at most once. On
// error dst is returned unchanged.
func AppendLogTransfer(dst []byte, t *LogTransfer) ([]byte, error) {
	if err := checkU32("host id", int(t.Host)); err != nil {
		return dst, err
	}
	if err := checkU32("source station", int(t.FromMSS)); err != nil {
		return dst, err
	}
	if err := checkU32("target station", int(t.ToMSS)); err != nil {
		return dst, err
	}
	if len(t.Records) > MaxTransferRecords {
		return dst, fmt.Errorf("wire: log transfer too large: %d records (split with SplitTransfer)", len(t.Records))
	}
	buf := slices.Grow(dst, logTransferHeader+len(t.Records)*logRecordSize)
	buf = append(buf, FrameLogTransfer)
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Host))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.FromMSS))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.ToMSS))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Records)))
	for i := range t.Records {
		r := &t.Records[i]
		if err := checkU32("record sender", int(r.From)); err != nil {
			return dst, err
		}
		buf = binary.BigEndian.AppendUint64(buf, r.Seq)
		buf = binary.BigEndian.AppendUint64(buf, r.MsgID)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.From))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.RecvCount))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.At))
	}
	return buf, nil
}

// DecodeLogTransfer decodes one log-transfer frame (kind byte included)
// into dst, overwriting every field. dst.Records is reused when its
// capacity covers the frame's record count; otherwise it grows once,
// before any record is decoded, the way append grows — a target reused
// for a log that lengthens between hand-offs reallocates a logarithmic
// number of times, not every time. The frame is validated before dst is
// touched, so on error dst is unchanged; garbage input yields an error,
// never a panic.
func DecodeLogTransfer(dst *LogTransfer, b []byte) error {
	if len(b) < logTransferHeader {
		return fmt.Errorf("wire: truncated log-transfer header: %d bytes", len(b))
	}
	if b[0] != FrameLogTransfer {
		return fmt.Errorf("wire: frame kind %d is not a log transfer", b[0])
	}
	n := binary.BigEndian.Uint32(b[13:])
	if n > MaxTransferRecords {
		return fmt.Errorf("wire: log transfer of %d records exceeds frame bound %d", n, MaxTransferRecords)
	}
	need := logTransferHeader + int(n)*logRecordSize
	if len(b) != need {
		return fmt.Errorf("wire: log transfer of %d records needs %d bytes, have %d", n, need, len(b))
	}
	dst.Host = mobile.HostID(binary.BigEndian.Uint32(b[1:]))
	dst.FromMSS = mobile.MSSID(binary.BigEndian.Uint32(b[5:]))
	dst.ToMSS = mobile.MSSID(binary.BigEndian.Uint32(b[9:]))
	dst.Records = slices.Grow(dst.Records[:0], int(n))[:n]
	for i := range dst.Records {
		rec := b[logTransferHeader+i*logRecordSize:][:logRecordSize]
		dst.Records[i] = LogRecord{
			Seq:       binary.BigEndian.Uint64(rec),
			MsgID:     binary.BigEndian.Uint64(rec[8:]),
			From:      mobile.HostID(binary.BigEndian.Uint32(rec[16:])),
			RecvCount: int64(binary.BigEndian.Uint64(rec[20:])),
			At:        math.Float64frombits(binary.BigEndian.Uint64(rec[28:])),
		}
	}
	return nil
}

// EncodeFrame encodes a *Packet or *LogTransfer as one tagged frame.
func EncodeFrame(v any) ([]byte, error) {
	switch f := v.(type) {
	case *Packet:
		body, err := f.Marshal()
		if err != nil {
			return nil, err
		}
		return append([]byte{FrameApp}, body...), nil
	case *LogTransfer:
		return AppendLogTransfer(nil, f)
	default:
		return nil, fmt.Errorf("wire: unsupported frame type %T", v)
	}
}

// DecodeFrame decodes one frame produced by EncodeFrame, returning a
// *Packet or *LogTransfer. Garbage input yields an error, never
// a panic (FuzzFrameRoundTrip enforces it).
func DecodeFrame(b []byte) (any, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	switch b[0] {
	case FrameApp:
		return Unmarshal(b[1:])
	case FrameLogTransfer:
		f := new(LogTransfer)
		if err := DecodeLogTransfer(f, b); err != nil {
			return nil, err
		}
		return f, nil
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", b[0])
	}
}
