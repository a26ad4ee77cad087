package replog

import (
	"slices"

	"repro/internal/logobj"
	"repro/internal/paxos"
	"repro/internal/wire"
)

// Varint wire codec for Op and for op batches. A batch is the consensus
// value of one slot: a count followed by the ops, each encoded with the
// varint fields of encOp. An op is never a packet of its own: it travels
// inside a batch or a FwdBatch. Paxos carries the
// batch as an opaque paxos.Value, so the consensus substrate never needs to
// know the operation structure — and any registered datum round-trips with
// no field-width caps (the old bit-packed int64 form limited message ids to
// 2^16 and groups to 2^8).

// encOp writes one op. Its last field is reserved: ops once carried their
// message's conflict class there, and batches written before that, by a peer
// or into a WAL, still hold one, so it is written as 0 and skipped on read.
func encOp(e *wire.Enc, o Op) {
	e.I64(int64(o.Kind))
	logobj.EncodeDatum(e, o.Datum)
	e.I64(int64(o.K))
	e.U64(0) // reserved
}

func decOp(d *wire.Dec) Op {
	o := Op{Kind: opKind(d.I64()), Datum: logobj.DecodeDatum(d), K: int(d.I64())}
	d.U64() // reserved (see encOp)
	switch o.Kind {
	case opAppend, opBumpAndLock:
	default:
		d.Failf("replog: bad op kind %d", o.Kind)
	}
	return o
}

// EncodeBatch packs a batch of operations into one consensus value. An
// empty batch is valid — it is the no-op slot the repair path uses to seal
// a hole without inventing work.
func EncodeBatch(ops []Op) paxos.Value {
	var e wire.Enc
	e.U64(uint64(len(ops)))
	for _, o := range ops {
		encOp(&e, o)
	}
	return paxos.Value(e.Bytes())
}

// DecodeBatch is the inverse of EncodeBatch. Arbitrary input yields an
// error, never a panic.
func DecodeBatch(v paxos.Value) ([]Op, error) { return appendBatch(nil, v) }

// appendBatch decodes a batch onto ops, which the caller may reuse from
// batch to batch.
func appendBatch(ops []Op, v paxos.Value) ([]Op, error) {
	d := wire.NewDec([]byte(v))
	n := d.Len(3)
	ops = slices.Grow(ops, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		ops = append(ops, decOp(d))
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return ops, nil
}

// FwdBatch is a follower's operation hand-off to the realm's leaseholder:
// "batch these into your slot stream". It is a hint, not a decision path —
// the follower keeps its waiters and falls back to proposing itself if the
// ops stay unsatisfied — so losing or duplicating the frame costs latency,
// never safety (both log operations are idempotent).
type FwdBatch struct {
	Realm uint64
	Ops   []Op
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (f FwdBatch) MarshalBinary() ([]byte, error) {
	var e wire.Enc
	e.U64(f.Realm)
	e.U64(uint64(len(f.Ops)))
	for _, o := range f.Ops {
		encOp(&e, o)
	}
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *FwdBatch) UnmarshalBinary(b []byte) error {
	d := wire.NewDec(b)
	f.Realm = d.U64()
	n := d.Len(3)
	f.Ops = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		f.Ops = append(f.Ops, decOp(d))
	}
	return d.Close()
}

func init() {
	wire.Register(wire.TReplogFwd, "replog.FwdBatch", func(b []byte) (any, error) {
		var f FwdBatch
		if err := f.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return f, nil
	})
}
