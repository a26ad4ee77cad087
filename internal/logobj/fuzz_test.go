package logobj

import (
	"testing"

	"repro/internal/groups"
	"repro/internal/msg"
)

// FuzzLogOperations feeds arbitrary operation tapes into the log object and
// checks the sequential-specification invariants of Table 2 after every
// operation (Claims 2-5 plus head discipline and order totality), and holds
// every read of the indexed log against the map-scan reference model
// (model_test.go), which includes that the first proposal to a CONS_{m,f}
// decides it for good. Each input byte pair (op, arg) encodes one
// operation: op's low nibble picks the message, bit 0x10 a pos tuple, 0x20 a
// CONS proposal, 0x40 (without either) a stable tuple, all shaped by arg,
// else the message itself — a batch head whose extent ends at message
// arg>>4 when arg has bit 0x08; bit 0x80 bumps the datum to arg instead of
// appending it.
func FuzzLogOperations(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x05, 0x23, 0x81, 0x40})
	f.Add([]byte{0x00, 0x00, 0x80, 0x01})
	f.Add([]byte{0x11, 0x91, 0x12, 0x92, 0x13, 0x93})
	f.Add([]byte{0x21, 0x05, 0x21, 0x09, 0xa1, 0x30, 0x21, 0x06, 0x22, 0x09})
	// Every kind a record holds, for one message: m1, (m1,g1,5), (m1,g2),
	// cons(m1,f1)=3, (m1,g2,6); then both pos tuples bumped past the rest.
	f.Add([]byte{0x00, 0x00, 0x10, 0x05, 0x40, 0x02, 0x20, 0x0d, 0x10, 0x0e, 0x90, 0x0e, 0x90, 0x05})
	// Batch heads: m1 over m3, then m1 again over m5 (a no-op), m2 alone,
	// m1 bumped past it.
	f.Add([]byte{0x00, 0x38, 0x00, 0x58, 0x01, 0x00, 0x80, 0x09})
	f.Fuzz(func(t *testing.T, tape []byte) {
		mp := newModelPair(16, 3)
		l := mp.l
		type obs struct {
			pos    int
			locked bool
		}
		prev := map[Datum]obs{}
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i], tape[i+1]
			d := MsgDatum(msg.ID(op&0x0f) + 1)
			if op&0xf0 == 0 && arg&0x08 != 0 {
				d.I = int(arg >> 4)
			}
			if op&0x40 != 0 {
				d = StableDatum(msg.ID(op&0x0f)+1, groups.GroupID(arg&0x3))
			}
			if op&0x10 != 0 {
				d = PosDatum(msg.ID(op&0x0f)+1, groups.GroupID(arg&0x3), int(arg&0x7))
			}
			if op&0x20 != 0 {
				d = ConsDatum(msg.ID(op&0x0f)+1, groups.GroupSet(arg&0x3), int(arg>>2&0x3))
			}
			if op&0x80 == 0 {
				mp.append(t, d)
			} else {
				mp.bumpAndLock(t, d, int(arg))
			}
			// Invariants after every operation.
			for dd, o := range prev {
				cur := l.Pos(dd)
				if cur == 0 {
					t.Fatalf("datum %v disappeared (Claim 2)", dd)
				}
				if cur < o.pos {
					t.Fatalf("datum %v moved backwards %d→%d (Claim 3)", dd, o.pos, cur)
				}
				if o.locked {
					if !l.Locked(dd) {
						t.Fatalf("datum %v unlocked (Claim 4)", dd)
					}
					if cur != o.pos {
						t.Fatalf("locked %v moved %d→%d (Claim 5)", dd, o.pos, cur)
					}
				}
			}
			items := l.Items()
			for j := 1; j < len(items); j++ {
				if !l.Less(items[j-1], items[j]) {
					t.Fatalf("order not total/sorted at %d", j)
				}
			}
			prev = map[Datum]obs{}
			for _, dd := range items {
				prev[dd] = obs{pos: l.Pos(dd), locked: l.Locked(dd)}
			}
		}
	})
}
