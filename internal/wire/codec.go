// Package wire is the real network path of the live substrates: a binary
// codec for every protocol message plus a TCP implementation of
// net.Transport (tcp.go) and a loopback multi-socket fabric (fabric.go).
//
// The codec replaces the old stringly Packet.Kind + `Body any` convention
// with one-byte message-type IDs (net.MsgType) and per-body
// MarshalBinary/UnmarshalBinary implementations. This file owns two things:
//
//   - the ID space: every protocol message type in the repository is
//     enumerated here, partitioned per protocol, so two packages can never
//     collide on a wire tag;
//   - the decoder registry: protocol packages register a decoder for each
//     of their types at init, and DecodePacket dispatches on the tag.
//
// Frames are length-prefixed on the socket (tcp.go); the payload layout is
//
//	[version u8][type u8][from u8][to u8][body bytes...]
//
// Bodies encode with the Enc/Dec helpers below: unsigned varints, zigzag
// varints for signed values, and length-prefixed byte strings. Decoding is
// total — arbitrary or truncated input yields an error, never a panic — a
// wire decoder that can be crashed by a malformed frame turns a fair-lossy
// link into a remote kill switch, which the fail-stop model does not allow.
package wire

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/groups"
	"repro/internal/net"
)

// Message-type IDs. 0 is reserved as invalid; each protocol owns a block.
// These are wire contract: renumbering them breaks cross-version frames.
const (
	// 0x01–0x04 are retired (the ABD register messages): never reuse.
	// TReplogOp (0x20) and TDatum (0x28) are reserved: never a packet. No
	// decoder is registered for them; they name the bodies that ride inside
	// other frames.

	// internal/paxos (synod + Multi-Paxos; NACKs travel as the OK=false arm
	// of the two response types).
	TPaxPrepare     net.MsgType = 0x10
	TPaxPrepareResp net.MsgType = 0x11
	TPaxAccept      net.MsgType = 0x12
	TPaxAcceptResp  net.MsgType = 0x13
	TPaxDecide      net.MsgType = 0x14
	TPaxLearn       net.MsgType = 0x15

	// internal/replog (log operations; they ride inside paxos values as
	// batches, and followers forward pending ops to the leaseholder's batcher
	// as TReplogFwd frames).
	TReplogOp  net.MsgType = 0x20
	TReplogFwd net.MsgType = 0x21

	// internal/logobj (multicast datums — the payload of replog ops; reserved).
	TDatum net.MsgType = 0x28

	// TTestLow..TTestHigh is a scratch block for transport tests and
	// benchmarks; nothing protocol-shaped may claim it.
	TTestLow  net.MsgType = 0xF0
	TTestHigh net.MsgType = 0xFE
)

// frameVersion is byte 0 of every frame payload.
const frameVersion = 1

// headerLen is the fixed frame-payload header: version, type, from, to.
const headerLen = 4

// MaxFrame bounds one frame's payload on the socket (length prefix
// excluded). Protocol bodies are tiny; the bound exists so a corrupt or
// hostile length prefix cannot make a reader allocate gigabytes.
const MaxFrame = 1 << 20

// Decoder turns a body payload back into the protocol's body value. The
// returned value must be the same concrete type the protocol's dispatch
// switch expects (a value, not a pointer, for the substrates here).
type Decoder func([]byte) (any, error)

type entry struct {
	name string
	dec  Decoder
}

// registry maps the one-byte tag to its decoder. Indexed, not a map: decode
// is the hot path of every received frame.
var registry [256]entry

// Register installs the decoder of a message type. Protocol packages call
// it from init; a duplicate tag is a programming error and panics.
func Register(t net.MsgType, name string, dec Decoder) {
	if t == 0 {
		panic("wire: message type 0 is reserved")
	}
	if registry[t].dec != nil {
		panic(fmt.Sprintf("wire: message type %#02x registered twice (%s, %s)", uint8(t), registry[t].name, name))
	}
	registry[t] = entry{name: name, dec: dec}
}

// TypeName returns the registered name of a tag ("" when unregistered).
func TypeName(t net.MsgType) string { return registry[t].name }

// RegisteredTypes returns every tag with a registered decoder, in order.
func RegisteredTypes() []net.MsgType {
	var out []net.MsgType
	for i := 1; i < 256; i++ {
		if registry[i].dec != nil {
			out = append(out, net.MsgType(i))
		}
	}
	return out
}

// EncodePacket renders a packet as one frame payload (no length prefix).
// The body must implement encoding.BinaryMarshaler and its type must be
// registered — an unregistered body is a caller bug surfaced as an error so
// the transport can count it rather than crash.
func EncodePacket(pkt net.Packet) ([]byte, error) {
	return AppendPacket(nil, pkt)
}

// AppendPacket appends pkt's frame payload to dst and returns the extended
// slice — the allocation-conscious form of EncodePacket for callers that
// recycle frame buffers (the TCP send path encodes into pooled buffers and
// the write loops return them after each flush).
func AppendPacket(dst []byte, pkt net.Packet) ([]byte, error) {
	if registry[pkt.Type].dec == nil {
		return dst, fmt.Errorf("wire: encode: unregistered message type %#02x", uint8(pkt.Type))
	}
	m, ok := pkt.Body.(encoding.BinaryMarshaler)
	if !ok {
		return dst, fmt.Errorf("wire: encode: body %T does not implement encoding.BinaryMarshaler", pkt.Body)
	}
	body, err := m.MarshalBinary()
	if err != nil {
		return dst, fmt.Errorf("wire: encode %s: %w", registry[pkt.Type].name, err)
	}
	if pkt.From < 0 || pkt.From > math.MaxUint8 || pkt.To < 0 || pkt.To > math.MaxUint8 {
		return dst, fmt.Errorf("wire: encode: process out of uint8 range (%d→%d)", pkt.From, pkt.To)
	}
	dst = append(dst, frameVersion, uint8(pkt.Type), uint8(pkt.From), uint8(pkt.To))
	return append(dst, body...), nil
}

// framePool recycles frame payload buffers between the send path and the
// write loops: Send encodes into a pooled buffer, the write loop copies it
// into the flush buffer and puts it back. Pointers-to-slices, not slices,
// so Get/Put never allocate the interface box.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// getFrame leases a frame buffer (length 0, capacity warm).
func getFrame() *[]byte { return framePool.Get().(*[]byte) }

// putFrame returns a frame buffer to the pool. Oversized one-off buffers
// are dropped rather than pinned in the pool.
func putFrame(b *[]byte) {
	if cap(*b) > 1<<16 {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

// DecodePacket parses one frame payload. Every failure mode of arbitrary
// input — short header, unknown version, unregistered tag, trailing or
// truncated body — comes back as an error; the function never panics.
func DecodePacket(b []byte) (net.Packet, error) {
	if len(b) < headerLen {
		return net.Packet{}, fmt.Errorf("wire: frame too short (%d bytes)", len(b))
	}
	if b[0] != frameVersion {
		return net.Packet{}, fmt.Errorf("wire: unknown frame version %d", b[0])
	}
	t := net.MsgType(b[1])
	e := registry[t]
	if e.dec == nil {
		return net.Packet{}, fmt.Errorf("wire: decode: unregistered message type %#02x", b[1])
	}
	body, err := e.dec(b[headerLen:])
	if err != nil {
		return net.Packet{}, fmt.Errorf("wire: decode %s: %w", e.name, err)
	}
	return net.Packet{
		From: groups.Process(b[2]),
		To:   groups.Process(b[3]),
		Type: t,
		Body: body,
	}, nil
}

// ---------------------------------------------------------------------------
// Enc/Dec: the primitive layer every protocol body builds its
// MarshalBinary/UnmarshalBinary from.

// Enc appends primitives to a growing buffer. The zero value is ready to
// use; Bytes returns the accumulated encoding.
type Enc struct {
	b []byte
}

// EncOver returns an encoder that appends to buf[:0]: a caller that encodes
// one record after another into the same scratch buffer reuses its capacity
// (keep e.Bytes() as the next buf) and must be done with one encoding before
// it starts the next.
func EncOver(buf []byte) Enc { return Enc{b: buf[:0]} }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// U64 appends an unsigned varint.
func (e *Enc) U64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// I64 appends a zigzag-encoded signed varint.
func (e *Enc) I64(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Bin appends a length-prefixed byte string.
func (e *Enc) Bin(b []byte) {
	e.U64(uint64(len(b)))
	e.b = append(e.b, b...)
}

// Dec is the matching cursor over an encoded buffer. Errors are sticky:
// after the first failure every read returns a zero value, and Err reports
// what went wrong — so body decoders read field by field and check once.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec builds a cursor over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// fail records the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Failf lets a body decoder record a validation error (bad enum value,
// out-of-range field) through the same sticky-error path the primitive
// readers use.
func (d *Dec) Failf(format string, args ...any) { d.fail(format, args...) }

// Close asserts the buffer was consumed exactly and returns the first
// error. Trailing garbage is an error: a frame that decodes but carries
// extra bytes is a framing bug upstream, not a valid message.
func (d *Dec) Close() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("wire: %d trailing bytes after body", len(d.b)-d.off)
	}
	return d.err
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("wire: short buffer reading u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// U64 reads an unsigned varint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("wire: bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// I64 reads a zigzag-encoded signed varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("wire: bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Bool reads a boolean; any byte other than 0 or 1 is an error (a strict
// decoder rejects more malformed inputs, which is what the fuzz target
// wants to lean on).
func (d *Dec) Bool() bool {
	v := d.U8()
	if d.err == nil && v > 1 {
		d.fail("wire: bad bool byte %d", v)
	}
	return v == 1
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("wire: string length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Bin reads a length-prefixed byte string. The returned slice is a copy,
// never an alias of the input: transports reuse their read buffers across
// frames, so a decoded body must not retain the wire bytes. An empty
// string decodes as nil.
func (d *Dec) Bin() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("wire: byte-string length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += int(n)
	return out
}

// Len reads a length-prefixed count and bounds it by the bytes remaining,
// assuming each element costs at least min bytes — the guard that keeps a
// hostile count from pre-allocating unbounded slices.
func (d *Dec) Len(min int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(d.b)-d.off)/min+1) {
		d.fail("wire: collection length %d exceeds remaining buffer", n)
		return 0
	}
	return int(n)
}
