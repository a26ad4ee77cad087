package logobj

import (
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/wire"
)

// A datum travels on the wire only inside replog operations (EncodeDatum,
// DecodeDatum); it is never a packet of its own. The varint encoding has none
// of the width caps of replog's old bit-packed int64 form — any registered
// message ID, group and position round-trips.

// encode appends the datum to an in-progress encoding (shared with the
// replog operation codec, which embeds a datum in a larger body).
func (d Datum) encode(e *wire.Enc) {
	e.U8(uint8(d.Kind))
	e.I64(int64(d.Msg))
	e.I64(int64(d.H))
	e.I64(int64(d.I))
}

// decode reads the datum fields from the cursor (error stays in dec).
func (d *Datum) decode(dec *wire.Dec) {
	d.Kind = Kind(dec.U8())
	d.Msg = msg.ID(dec.I64())
	d.H = groups.GroupID(dec.I64())
	d.I = int(dec.I64())
	if dec.Err() == nil {
		switch d.Kind {
		case KindMsg, KindPos, KindStable, KindCons:
		default:
			dec.Failf("logobj: bad datum kind %d", d.Kind)
			*d = Datum{}
		}
	}
}

// EncodeDatum appends d to e — the exported hook replog's operation codec
// composes with.
func EncodeDatum(e *wire.Enc, d Datum) { d.encode(e) }

// DecodeDatum reads a datum from dec; failures stay in the cursor.
func DecodeDatum(dec *wire.Dec) Datum {
	var d Datum
	d.decode(dec)
	return d
}
