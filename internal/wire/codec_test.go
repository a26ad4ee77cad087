package wire_test

import (
	"reflect"
	"testing"

	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/paxos"
	_ "repro/internal/replog" // registers TReplogFwd
	"repro/internal/wire"
)

// samples returns one representative packet per registered message type,
// with every field shape exercised (negative varints, empty and non-empty
// slices, strings, booleans).
func samples(t testing.TB) map[net.MsgType]net.Packet {
	t.Helper()
	inst := paxos.InstanceID{Space: 2, Realm: 1 << 40, Slot: -7}
	out := map[net.MsgType]net.Packet{
		wire.TPaxPrepare: {Type: wire.TPaxPrepare, Body: paxos.PrepareReq{Inst: inst, Ballot: 13, Range: true}},
		wire.TPaxPrepareResp: {Type: wire.TPaxPrepareResp, Body: paxos.PrepareResp{
			Inst: inst, Ballot: 13, OK: true, Promised: -2,
			Accepted: paxos.AcceptedVal{Ballot: 4, Val: paxos.I64Value(-9), Has: true},
			Range: []paxos.SlotVal{
				{Slot: 1, Ballot: 2, Val: paxos.I64Value(3)},
				{Slot: -4, Ballot: 5, Val: paxos.I64Value(-6)}},
			Decided: true, DecVal: paxos.I64Value(77)}},
		wire.TPaxAccept: {Type: wire.TPaxAccept, Body: paxos.AcceptReq{
			Inst: inst, Ballot: 3, Val: paxos.I64Value(-100)}},
		wire.TPaxAcceptResp: {Type: wire.TPaxAcceptResp, Body: paxos.AcceptResp{
			Inst: inst, Ballot: 3, OK: false, Promised: 6, Decided: false}},
		wire.TPaxDecide: {Type: wire.TPaxDecide, Body: paxos.DecideMsg{Inst: inst, Val: paxos.I64Value(123456789)}},
		wire.TPaxLearn:  {Type: wire.TPaxLearn, Body: paxos.LearnReq{Inst: inst}},
		wire.TReplogFwd: {Type: wire.TReplogFwd, Body: sampleFwdBatch(t)},
	}
	for typ, pkt := range out {
		pkt.From, pkt.To = 1, 2
		out[typ] = pkt
	}
	return out
}

// sampleFwdBatch builds a replog.FwdBatch through its own decoder (the op
// kind type is unexported, so the bytes are the public constructor): realm,
// op count, then the ops in the batch codec's field layout.
func sampleFwdBatch(t testing.TB) any {
	t.Helper()
	var e wire.Enc
	e.U64(7<<32 | 3) // realm
	e.U64(2)         // two ops
	e.I64(1)         // opAppend
	logobj.EncodeDatum(&e, logobj.Datum{Kind: logobj.KindMsg, Msg: 9, H: 1, I: 0})
	e.I64(0)
	e.U64(42) // conflict class: keyed
	e.I64(2)  // opBumpAndLock
	logobj.EncodeDatum(&e, logobj.Datum{Kind: logobj.KindPos, Msg: 4, H: 0, I: 6})
	e.I64(12)
	e.U64(0) // conflict class: untagged
	pkt, err := wire.DecodePacket(append([]byte{1, uint8(wire.TReplogFwd), 0, 0}, e.Bytes()...))
	if err != nil {
		t.Fatalf("building sample replog fwd batch: %v", err)
	}
	return pkt.Body
}

// batchHeadFwd is the frame of a replog forward of one append of a batch
// head, in sampleFwdBatch's layout.
func batchHeadFwd(t testing.TB) []byte {
	t.Helper()
	var e wire.Enc
	e.U64(1<<32 | 1) // realm
	e.U64(1)         // one op
	e.I64(1)         // opAppend
	logobj.EncodeDatum(&e, logobj.Datum{Kind: logobj.KindMsg, Msg: 4, I: 9})
	e.I64(0)
	e.U64(0) // reserved
	frame := append([]byte{1, uint8(wire.TReplogFwd), 0, 0}, e.Bytes()...)
	if _, err := wire.DecodePacket(frame); err != nil {
		t.Fatalf("building a batch-head forward: %v", err)
	}
	return frame
}

// TestRoundTripEveryRegisteredType encodes and decodes one sample of every
// registered message type and requires exact equality — and requires that
// the sample table covers the registry, so adding a type without a
// round-trip sample fails here.
func TestRoundTripEveryRegisteredType(t *testing.T) {
	ss := samples(t)
	for _, typ := range wire.RegisteredTypes() {
		pkt, ok := ss[typ]
		if !ok {
			t.Errorf("registered type %#02x (%s) has no round-trip sample", uint8(typ), wire.TypeName(typ))
			continue
		}
		frame, err := wire.EncodePacket(pkt)
		if err != nil {
			t.Errorf("%s: encode: %v", wire.TypeName(typ), err)
			continue
		}
		got, err := wire.DecodePacket(frame)
		if err != nil {
			t.Errorf("%s: decode: %v", wire.TypeName(typ), err)
			continue
		}
		if !reflect.DeepEqual(got, pkt) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", wire.TypeName(typ), got, pkt)
		}
	}
	for typ := range ss {
		if wire.TypeName(typ) == "" {
			t.Errorf("sample type %#02x is not registered", uint8(typ))
		}
	}
}

// reservedFrames builds, for each reserved tag, a frame that carries a
// well-formed body of the kind the tag names: a replog op or a datum. Those
// bodies only ride inside other frames, so the decoder must reject both.
func reservedFrames() map[net.MsgType][]byte {
	var d wire.Enc
	logobj.EncodeDatum(&d, logobj.Datum{Kind: logobj.KindPos, Msg: msg.ID(3), H: groups.GroupID(1), I: 17})
	var op wire.Enc
	op.I64(1) // opAppend
	logobj.EncodeDatum(&op, logobj.MsgDatum(5))
	op.I64(0)
	op.U64(0) // conflict class
	return map[net.MsgType][]byte{
		wire.TReplogOp: append([]byte{1, uint8(wire.TReplogOp), 0, 1}, op.Bytes()...),
		wire.TDatum:    append([]byte{1, uint8(wire.TDatum), 0, 1}, d.Bytes()...),
	}
}

// TestDecodeRejectsMalformedFrames spells out the codec's failure modes on
// crafted input: short header, bad version, unregistered, retired or reserved
// tag, truncated and oversized bodies all come back as errors (never panics — the fuzz target
// widens this to arbitrary input).
func TestDecodeRejectsMalformedFrames(t *testing.T) {
	valid, err := wire.EncodePacket(samples(t)[wire.TPaxPrepareResp])
	if err != nil {
		t.Fatal(err)
	}
	reserved := reservedFrames()
	// An accept in the layout that still carried the previous slot's
	// decision (a bool and a slot/ballot/value triple after the value): the
	// decoder must refuse it on the trailing bytes, like any corrupt frame.
	oldAccept, err := wire.EncodePacket(samples(t)[wire.TPaxAccept])
	if err != nil {
		t.Fatal(err)
	}
	var prev wire.Enc
	prev.Bool(true)
	prev.I64(-8)
	prev.I64(2)
	prev.Bin(paxos.I64Value(1))
	oldAccept = append(oldAccept, prev.Bytes()...)
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      {1, uint8(wire.TPaxPrepare)},
		"bad version":       {9, uint8(wire.TPaxPrepare), 0, 1},
		"unregistered tag":  {1, 0x99, 0, 1},
		"reserved zero tag": {1, 0, 0, 1},
		"retired ABD tag":   {1, 0x01, 0, 1},
		// Op and datum bodies only ride inside other frames: their reserved
		// tags fail like a retired one, even over a well-formed body.
		"reserved op tag":    reserved[wire.TReplogOp],
		"reserved datum tag": reserved[wire.TDatum],
		"empty body":         {1, uint8(wire.TPaxPrepare), 0, 1},
		"truncated body":     valid[:len(valid)-1],
		"trailing bytes":     append(append([]byte{}, valid...), 0),
		"pre-change accept":  oldAccept,
	}
	for name, frame := range cases {
		if _, err := wire.DecodePacket(frame); err == nil {
			t.Errorf("%s: decode accepted malformed frame %v", name, frame)
		}
	}
}

// TestDecodeRejectsHostileCollectionLength crafts a PrepareResp whose Range
// length claims more elements than the buffer could hold: the Len guard
// must fail it rather than allocate.
func TestDecodeRejectsHostileCollectionLength(t *testing.T) {
	var e wire.Enc
	e.U8(2)
	e.U64(1)
	e.I64(0) // InstanceID
	e.I64(1)
	e.Bool(true)
	e.I64(0) // Ballot, OK, Promised
	e.I64(0)
	e.I64(0)
	e.Bool(false)  // AcceptedVal
	e.U64(1 << 30) // hostile Range length
	frame := append([]byte{1, uint8(wire.TPaxPrepareResp), 0, 1}, e.Bytes()...)
	if _, err := wire.DecodePacket(frame); err == nil {
		t.Fatal("decode accepted a 2^30-element collection claim")
	}
}

// TestEncodeRejectsUnencodable covers the encode-side error paths: an
// unregistered type and a body without MarshalBinary.
func TestEncodeRejectsUnencodable(t *testing.T) {
	if _, err := wire.EncodePacket(net.Packet{Type: 0x99, Body: paxos.LearnReq{}}); err == nil {
		t.Error("encode accepted an unregistered message type")
	}
	if _, err := wire.EncodePacket(net.Packet{Type: wire.TPaxLearn, Body: 42}); err == nil {
		t.Error("encode accepted a body without MarshalBinary")
	}
	if _, err := wire.EncodePacket(net.Packet{Type: wire.TPaxLearn, From: 300, Body: paxos.LearnReq{}}); err == nil {
		t.Error("encode accepted an out-of-range process ID")
	}
}
