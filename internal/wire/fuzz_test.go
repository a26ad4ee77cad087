package wire_test

import (
	"reflect"
	"testing"

	"repro/internal/wire"
)

// FuzzDecodePacket feeds arbitrary bytes to the frame decoder. The decoder
// must be total — any input yields a packet or an error, never a panic (a
// decoder crash would let one malformed frame kill a node, which turns
// fair-lossy links into a remote kill switch). When a frame does decode,
// re-encoding the packet must reproduce a frame that decodes to the same
// packet: decode ∘ encode is the identity on the decoder's image.
func FuzzDecodePacket(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0x10, 0, 1})
	for typ, pkt := range samples(f) {
		frame, err := wire.EncodePacket(pkt)
		if err != nil {
			f.Fatalf("%s: %v", wire.TypeName(typ), err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	// Frames an old peer may still send under the retired tags 0x01–0x04
	// (register name, op id): rejected as unregistered, like any unknown tag.
	for tag := byte(0x01); tag <= 0x04; tag++ {
		f.Add([]byte{1, tag, 0, 1})
		f.Add([]byte{1, tag, 0, 1, 1, 'r', 84})
	}
	// A forwarded op batch whose append carries a batch head: a KindMsg
	// datum whose I names the last request of its batch.
	head := batchHeadFwd(f)
	f.Add(head)
	f.Add(head[:len(head)-1])
	// Op and datum bodies under their reserved tags, whole and truncated:
	// rejected like a retired tag.
	for _, frame := range reservedFrames() {
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := wire.DecodePacket(data)
		if err != nil {
			return
		}
		frame, err := wire.EncodePacket(pkt)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v (%+v)", err, pkt)
		}
		again, err := wire.DecodePacket(frame)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !reflect.DeepEqual(pkt, again) {
			t.Fatalf("decode/encode/decode mismatch:\nfirst  %+v\nsecond %+v", pkt, again)
		}
	})
}
