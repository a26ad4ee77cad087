package logobj

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/groups"
	"repro/internal/msg"
)

// refLog is the reference model of the log object: the implementation Log
// had before it kept an ordered message index — two maps, and every ordered
// read a scan of the position map followed by a sort. It survives here as the
// oracle the indexed Log is held against.
type refLog struct {
	pos    map[Datum]int
	locked map[Datum]bool
	head   int
}

func newRefLog() *refLog {
	return &refLog{pos: make(map[Datum]int), locked: make(map[Datum]bool), head: 1}
}

func (l *refLog) Append(d Datum) int {
	if p, ok := l.pos[d]; ok {
		return p
	}
	// A proposal to a decided CONS_{m,f} is the winner's append over again.
	if d.Kind == KindCons {
		if k, ok := l.Decided(d.Msg, groups.GroupSet(d.H)); ok {
			return l.pos[ConsDatum(d.Msg, groups.GroupSet(d.H), k)]
		}
	}
	p := l.head
	l.pos[d] = p
	l.head = p + 1
	return p
}

func (l *refLog) BumpAndLock(d Datum, k int) {
	cur := l.pos[d]
	if l.locked[d] {
		return
	}
	if k > cur {
		l.pos[d] = k
		if k >= l.head {
			l.head = k + 1
		}
	}
	l.locked[d] = true
}

func (l *refLog) Less(d, o Datum) bool {
	pd, ok1 := l.pos[d]
	po, ok2 := l.pos[o]
	if !ok1 || !ok2 {
		return false
	}
	if pd != po {
		return pd < po
	}
	return d.Less(o)
}

func (l *refLog) Items() []Datum {
	out := make([]Datum, 0, len(l.pos))
	for d := range l.pos {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return l.Less(out[i], out[j]) })
	return out
}

func (l *refLog) MessagesBefore(d Datum) []msg.ID {
	if _, ok := l.pos[d]; !ok {
		return nil
	}
	var out []msg.ID
	for item := range l.pos {
		if item.Kind != KindMsg {
			continue
		}
		if l.Less(item, d) {
			out = append(out, item.Msg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (l *refLog) MaxPosTuple(m msg.ID) (int, bool) {
	max, found := 0, false
	for d := range l.pos {
		if d.Kind == KindPos && d.Msg == m {
			found = true
			if d.I > max {
				max = d.I
			}
		}
	}
	return max, found
}

// Decided scans for the one KindCons datum the log may hold for (m, f).
func (l *refLog) Decided(m msg.ID, f groups.GroupSet) (int, bool) {
	for d := range l.pos {
		if d.Kind == KindCons && d.Msg == m && d.H == groups.GroupID(f) {
			return d.I, true
		}
	}
	return 0, false
}

func (l *refLog) HasPosTuple(m msg.ID, h groups.GroupID) bool {
	for d := range l.pos {
		if d.Kind == KindPos && d.Msg == m && d.H == h {
			return true
		}
	}
	return false
}

// modelPair drives a Log and its reference model with the same operations
// and compares every read after each of them.
type modelPair struct {
	l   *Log
	ref *refLog
	// maxMsg and maxGroup bound the message and group identifiers the
	// operations draw from; the tuple reads are compared over that range.
	maxMsg   msg.ID
	maxGroup groups.GroupID
	// decided remembers the first decision seen per CONS_{m,f}: no later
	// operation may change it.
	decided map[consKey]int
}

func newModelPair(maxMsg msg.ID, maxGroup groups.GroupID) *modelPair {
	return &modelPair{l: New("model"), ref: newRefLog(), maxMsg: maxMsg, maxGroup: maxGroup}
}

func (mp *modelPair) append(t testing.TB, d Datum) {
	t.Helper()
	if got, want := mp.l.Append(d), mp.ref.Append(d); got != want {
		t.Fatalf("Append(%v) = %d, model says %d", d, got, want)
	}
	mp.check(t)
}

// bumpAndLock skips data that are absent: that call panics by contract.
func (mp *modelPair) bumpAndLock(t testing.TB, d Datum, k int) {
	t.Helper()
	if !mp.l.Contains(d) {
		return
	}
	mp.l.BumpAndLock(d, k)
	mp.ref.BumpAndLock(d, k)
	mp.check(t)
}

func (mp *modelPair) check(t testing.TB) {
	t.Helper()
	l, ref := mp.l, mp.ref
	// The index: one rank per message, strictly ascending in (pos, id), each
	// at the position the slot map records.
	msgs := 0
	for d := range ref.pos {
		if d.Kind == KindMsg {
			msgs++
		}
	}
	if len(l.order) != msgs {
		t.Fatalf("index holds %d ranks for %d messages", len(l.order), msgs)
	}
	for i, e := range l.order {
		if i > 0 && !l.order[i-1].before(e.pos, e.id) {
			t.Fatalf("index not sorted at rank %d: %+v then %+v", i, l.order[i-1], e)
		}
		if p := l.Pos(MsgDatum(e.id)); p != e.pos {
			t.Fatalf("rank %d says m%d sits at %d, the slot map says %d", i, e.id, e.pos, p)
		}
	}
	items := ref.Items()
	if got := l.Items(); !reflect.DeepEqual(got, items) {
		t.Fatalf("Items = %v, model says %v", got, items)
	}
	var wantMsgs []msg.ID
	for _, d := range items {
		if d.Kind == KindMsg {
			wantMsgs = append(wantMsgs, d.Msg)
		}
	}
	if got := l.Messages(); len(got) != len(wantMsgs) || (len(got) > 0 && !reflect.DeepEqual(got, wantMsgs)) {
		t.Fatalf("Messages = %v, model says %v", got, wantMsgs)
	}
	probes := append(items, MsgDatum(mp.maxMsg+1)) // and one absent datum
	for _, d := range probes {
		if got, want := l.Pos(d), ref.pos[d]; got != want {
			t.Fatalf("Pos(%v) = %d, model says %d", d, got, want)
		}
		if got, want := l.Locked(d), ref.locked[d]; got != want {
			t.Fatalf("Locked(%v) = %v, model says %v", d, got, want)
		}
		// MessagesBefore answers in <_L order, the model in ID order.
		got := l.MessagesBefore(d)
		for i := 1; i < len(got); i++ {
			if !ref.Less(MsgDatum(got[i-1]), MsgDatum(got[i])) {
				t.Fatalf("MessagesBefore(%v) = %v is not in log order", d, got)
			}
		}
		byID := append([]msg.ID(nil), got...)
		sort.Slice(byID, func(i, j int) bool { return byID[i] < byID[j] })
		if want := ref.MessagesBefore(d); len(byID) != len(want) || (len(want) > 0 && !reflect.DeepEqual(byID, want)) {
			t.Fatalf("MessagesBefore(%v) = %v, model says %v", d, byID, want)
		}
		// ScanBefore from a floor is MessagesBefore minus what lies below it.
		for _, floor := range []int{0, ref.pos[d] / 2, ref.pos[d], ref.pos[d] + 1} {
			var want, scanned []msg.ID
			for _, m := range got {
				if ref.pos[MsgDatum(m)] >= floor {
					want = append(want, m)
				}
			}
			l.ScanBefore(d, floor, func(m msg.ID, pos int) bool {
				if pos != ref.pos[MsgDatum(m)] {
					t.Fatalf("ScanBefore(%v, %d) reports m%d at %d, model says %d", d, floor, m, pos, ref.pos[MsgDatum(m)])
				}
				scanned = append(scanned, m)
				return true
			})
			if !reflect.DeepEqual(scanned, want) {
				t.Fatalf("ScanBefore(%v, %d) visited %v, want %v", d, floor, scanned, want)
			}
		}
	}
	for m := msg.ID(1); m <= mp.maxMsg+1; m++ {
		gi, gok := l.MaxPosTuple(m)
		wi, wok := ref.MaxPosTuple(m)
		if gi != wi || gok != wok {
			t.Fatalf("MaxPosTuple(m%d) = %d,%v, model says %d,%v", m, gi, gok, wi, wok)
		}
		for h := groups.GroupID(0); h <= mp.maxGroup; h++ {
			if got, want := l.HasPosTuple(m, h), ref.HasPosTuple(m, h); got != want {
				t.Fatalf("HasPosTuple(m%d, g%d) = %v, model says %v", m, h, got, want)
			}
			// The group range doubles as the range of consensus families.
			f := groups.GroupSet(h)
			gk, gok := l.Decided(m, f)
			wk, wok := ref.Decided(m, f)
			if gk != wk || gok != wok {
				t.Fatalf("Decided(m%d, f%b) = %d,%v, model says %d,%v", m, f, gk, gok, wk, wok)
			}
			if mp.decided == nil {
				mp.decided = make(map[consKey]int)
			}
			if first, seen := mp.decided[consKey{m, h}]; seen && (!gok || gk != first) {
				t.Fatalf("Decided(m%d, f%b) moved from %d to %d,%v", m, f, first, gk, gok)
			} else if gok {
				mp.decided[consKey{m, h}] = gk
			}
			// A decided CONS_{m,f} settles every proposal to it, and only those.
			if got := l.Appended(ConsDatum(m, f, 1<<20)); got != wok {
				t.Fatalf("Appended(losing proposal to CONS_{m%d,f%b}) = %v with decided = %v", m, f, got, wok)
			}
		}
	}
	for _, d := range items {
		if !l.Appended(d) {
			t.Fatalf("Appended(%v) = false for a datum in the log", d)
		}
	}
}

// TestIndexAgainstModel drives the indexed log and the map-scan model with
// random operation sequences built to hit what the index could get wrong:
// bumps onto occupied positions (ties broken by message ID), bumps past many
// ranks, bumps of data that are already locked, and position and stability
// tuples appended (and bumped) between the messages.
func TestIndexAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	const maxMsg, maxGroup = 14, 3
	for trial := 0; trial < trials; trial++ {
		mp := newModelPair(maxMsg, maxGroup)
		randDatum := func() Datum {
			m := msg.ID(rng.Intn(maxMsg) + 1)
			switch rng.Intn(7) {
			case 0:
				return PosDatum(m, groups.GroupID(rng.Intn(maxGroup+1)), rng.Intn(20))
			case 1:
				return StableDatum(m, groups.GroupID(rng.Intn(maxGroup+1)))
			case 2:
				// Few values over few families: most proposals lose.
				return ConsDatum(m, groups.GroupSet(rng.Intn(maxGroup+1)), rng.Intn(3))
			}
			return MsgDatum(m)
		}
		for step := 0; step < 60; step++ {
			d := randDatum()
			switch rng.Intn(5) {
			case 0, 1:
				mp.append(t, d)
			case 2:
				// Onto a position that is probably occupied: a tie.
				mp.bumpAndLock(t, d, 1+rng.Intn(mp.ref.head))
			case 3:
				// Far past the head: across every rank above.
				mp.bumpAndLock(t, d, mp.ref.head+rng.Intn(10))
			case 4:
				// Below the current position: locks in place.
				mp.bumpAndLock(t, d, 0)
			}
		}
	}
}

// TestBumpAcrossManyRanks moves messages from the bottom of a long log to
// its middle and past its top, in both tie directions, against the model.
func TestBumpAcrossManyRanks(t *testing.T) {
	const n = 120
	mp := newModelPair(n, 0)
	for i := 1; i <= n; i++ {
		mp.append(t, MsgDatum(msg.ID(i)))
	}
	mp.bumpAndLock(t, MsgDatum(1), n+5)   // past the top
	mp.bumpAndLock(t, MsgDatum(90), 95)   // tie with m95, above it: 90 < 95 keeps it below
	mp.bumpAndLock(t, MsgDatum(100), 110) // tie with m110, below it by ID
	mp.bumpAndLock(t, MsgDatum(2), 60)    // tie with m60, before it
	mp.bumpAndLock(t, MsgDatum(119), 60)  // k below its position: locks in place
	mp.bumpAndLock(t, MsgDatum(1), n+50)  // already locked: no-op
	mp.bumpAndLock(t, MsgDatum(120), n+5) // tie with m1 at the top, after it
	mp.bumpAndLock(t, MsgDatum(3), n+5)   // and between the two
	mp.append(t, MsgDatum(msg.ID(n+1)))   // lands above everything
	if got := mp.l.Messages(); got[len(got)-1] != n+1 {
		t.Fatalf("append after bumps did not land on top: %v", got[len(got)-4:])
	}
}

// TestFirstProposalDecides states the consensus object a log is for each
// (m, f): the first proposal appended wins, later ones change nothing and
// take no slot, and distinct families of one message are independent.
func TestFirstProposalDecides(t *testing.T) {
	mp := newModelPair(3, 3)
	l := mp.l
	if _, ok := l.Decided(1, 2); ok {
		t.Fatal("decided before any proposal")
	}
	mp.append(t, MsgDatum(1))
	won := l.Append(ConsDatum(1, 2, 7))
	mp.ref.Append(ConsDatum(1, 2, 7))
	mp.check(t)
	head, items := l.head, l.Items()
	for _, k := range []int{9, 0, 7} {
		if got := l.Append(ConsDatum(1, 2, k)); got != won {
			t.Fatalf("proposal %d to a decided object landed at %d, the winner sits at %d", k, got, won)
		}
		mp.ref.Append(ConsDatum(1, 2, k))
		mp.check(t)
	}
	if got := l.Items(); l.head != head || !reflect.DeepEqual(got, items) {
		t.Fatalf("losing proposals moved the log: head %d→%d, items %v→%v", head, l.head, items, got)
	}
	if k, ok := l.Decided(1, 2); !ok || k != 7 {
		t.Fatalf("Decided(m1, f10) = %d,%v, want 7", k, ok)
	}
	mp.append(t, ConsDatum(1, 3, 9)) // another family of m1
	mp.append(t, ConsDatum(2, 2, 4)) // the same family, another message
	for _, c := range []struct {
		m    msg.ID
		f    groups.GroupSet
		want int
	}{{1, 2, 7}, {1, 3, 9}, {2, 2, 4}} {
		if k, ok := l.Decided(c.m, c.f); !ok || k != c.want {
			t.Errorf("Decided(m%d, f%b) = %d,%v, want %d", c.m, c.f, k, ok, c.want)
		}
	}
}

// TestDatumCodec round-trips every kind of datum and rejects the kinds on
// either side of the range.
func TestDatumCodec(t *testing.T) {
	for _, d := range []Datum{MsgDatum(7), PosDatum(7, 2, 31), StableDatum(7, 3), ConsDatum(7, 0b1011, 44)} {
		b, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Datum
		if err := got.UnmarshalBinary(b); err != nil || got != d {
			t.Errorf("round trip of %v = %v, %v", d, got, err)
		}
	}
	for _, kind := range []Kind{0, KindCons + 1} {
		b, _ := Datum{Kind: kind, Msg: 1}.MarshalBinary()
		var got Datum
		if err := got.UnmarshalBinary(b); err == nil {
			t.Errorf("kind %d decoded to %v", kind, got)
		}
	}
}
