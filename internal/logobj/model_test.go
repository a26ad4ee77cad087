package logobj

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/wire"
)

// refLog is the reference model of the log object: the implementation Log
// had before it kept an ordered message index — two maps, and every ordered
// read a scan of the position map followed by a sort. It survives here as the
// oracle the indexed Log is held against.
//
// A message has at most one KindMsg datum: the maps key it with I = 0 and
// batch keeps the I of its first append, which no later append changes.
type refLog struct {
	pos    map[Datum]int
	locked map[Datum]bool
	batch  map[msg.ID]int
	head   int
}

func newRefLog() *refLog {
	return &refLog{pos: make(map[Datum]int), locked: make(map[Datum]bool), batch: make(map[msg.ID]int), head: 1}
}

// key is the map key of d: a message's datum whatever its I.
func key(d Datum) Datum {
	if d.Kind == KindMsg {
		d.I = 0
	}
	return d
}

// Pos is the position of d, 0 when absent.
func (l *refLog) Pos(d Datum) int { return l.pos[key(d)] }

// Batch is the I of m's first KindMsg append.
func (l *refLog) Batch(m msg.ID) msg.ID { return msg.ID(l.batch[m]) }

func (l *refLog) Append(d Datum) int {
	if d.Kind == KindMsg {
		if _, ok := l.pos[key(d)]; !ok {
			l.batch[d.Msg] = d.I
		}
		d = key(d)
	}
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
	d = key(d)
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
	d, o = key(d), key(o)
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
	for i, d := range out {
		if d.Kind == KindMsg {
			out[i].I = l.batch[d.Msg]
		}
	}
	return out
}

func (l *refLog) MessagesBefore(d Datum) []msg.ID {
	if _, ok := l.pos[key(d)]; !ok {
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

// consKey names CONS_{m,f}; f is held the way Datum.H carries it.
type consKey struct {
	m msg.ID
	f groups.GroupID
}

// modelPair drives a Log and its reference model with the same operations
// and compares every read after each of them.
type modelPair struct {
	l   *Log
	ref *refLog
	// ids are the message identifiers the operations draw from followed by
	// one they never use, maxGroup bounds the group identifiers; the tuple
	// reads are compared over both ranges.
	ids      []msg.ID
	maxGroup groups.GroupID
	// decided remembers the first decision seen per CONS_{m,f}: no later
	// operation may change it.
	decided map[consKey]int
}

// newModelPair draws messages from 1..maxMsg.
func newModelPair(maxMsg msg.ID, maxGroup groups.GroupID) *modelPair {
	ids := make([]msg.ID, 0, maxMsg+1)
	for m := msg.ID(1); m <= maxMsg+1; m++ {
		ids = append(ids, m)
	}
	return newModelPairOver(ids, maxGroup)
}

// newModelPairOver draws messages from ids, all but the last.
func newModelPairOver(ids []msg.ID, maxGroup groups.GroupID) *modelPair {
	return &modelPair{l: New("model"), ref: newRefLog(), ids: ids, maxGroup: maxGroup}
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
	probes := append(items, MsgDatum(mp.ids[len(mp.ids)-1])) // and one absent datum
	for _, d := range probes {
		if got, want := l.Pos(d), ref.Pos(d); got != want {
			t.Fatalf("Pos(%v) = %d, model says %d", d, got, want)
		}
		if got, want := l.Locked(d), ref.locked[key(d)]; got != want {
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
		for _, floor := range []int{0, ref.Pos(d) / 2, ref.Pos(d), ref.Pos(d) + 1} {
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
	for _, m := range mp.ids {
		if got, want := l.Batch(m), ref.Batch(m); got != want {
			t.Fatalf("Batch(m%d) = %d, model says %d", m, got, want)
		}
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

// wireIDs are message identifiers a datum decoded off the wire may carry
// besides the registered ones: the null ID, negative ones, the extremes of
// the range. The last is never appended.
var wireIDs = []msg.ID{0, -1, -7, 1, 2, 1 << 62, 1<<62 + 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}

// TestIndexAgainstModel drives the indexed log and the map-scan model with
// random operation sequences built to hit what the index could get wrong:
// bumps onto occupied positions (ties broken by message ID), bumps past many
// ranks, bumps of data that are already locked, and position and stability
// tuples appended (and bumped) between the messages — over registered
// message IDs, and over the IDs a datum off the wire may carry (wireIDs).
func TestIndexAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	const maxMsg, maxGroup = 14, 3
	for trial := 0; trial < trials+trials/4; trial++ {
		mp := newModelPair(maxMsg, maxGroup)
		if trial >= trials {
			mp = newModelPairOver(wireIDs, maxGroup)
		}
		randDatum := func() Datum {
			m := mp.ids[rng.Intn(len(mp.ids)-1)]
			switch rng.Intn(8) {
			case 7:
				// A batch head: its extent ends at another message.
				return Datum{Kind: KindMsg, Msg: m, I: int(mp.ids[rng.Intn(len(mp.ids))])}
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

// TestFirstMessageAppendWins states the batch rule: a message has at most one
// KindMsg datum per log. A second append of it with another I is a no-op that
// returns the first position and takes no slot, Batch keeps the first I, and
// every read finds the datum whatever I it is asked with.
func TestFirstMessageAppendWins(t *testing.T) {
	mp := newModelPair(6, 1)
	l := mp.l
	head := Datum{Kind: KindMsg, Msg: 2, I: 5}
	mp.append(t, MsgDatum(1))
	mp.append(t, head)
	won := l.Pos(head)
	for _, i := range []int{0, 4, 6} {
		d := Datum{Kind: KindMsg, Msg: 2, I: i}
		before := l.head
		if got := l.Append(d); got != won || l.head != before {
			t.Fatalf("Append(%v) = %d, head %d→%d; the first append sits at %d", d, got, before, l.head, won)
		}
		mp.ref.Append(d)
		mp.check(t)
		if !l.Contains(d) || l.Pos(d) != won || !l.Appended(d) {
			t.Fatalf("%v not found as m2's datum", d)
		}
	}
	if got := l.Batch(2); got != 5 {
		t.Fatalf("Batch(m2) = %d, want the first append's 5", got)
	}
	if got := l.Batch(1); got != 0 {
		t.Fatalf("Batch(m1) = %d, want 0 for a message appended alone", got)
	}
	mp.append(t, MsgDatum(3))
	var seen []msg.ID
	l.ScanBefore(Datum{Kind: KindMsg, Msg: 3, I: 6}, 0, func(m msg.ID, _ int) bool { seen = append(seen, m); return true })
	if !reflect.DeepEqual(seen, []msg.ID{1, 2}) {
		t.Fatalf("ScanBefore(m3 with an extent) visited %v, want [1 2]", seen)
	}
	mp.bumpAndLock(t, Datum{Kind: KindMsg, Msg: 2, I: 9}, 10)
	if !l.Locked(head) || l.Pos(MsgDatum(2)) != 10 || l.Batch(2) != 5 {
		t.Fatalf("bump of m2 by another extent: pos %d locked %v batch %d", l.Pos(MsgDatum(2)), l.Locked(head), l.Batch(2))
	}
}

// TestDatumCodec round-trips every kind of datum through EncodeDatum and
// DecodeDatum and rejects the kinds on either side of the range.
func TestDatumCodec(t *testing.T) {
	roundTrip := func(d Datum) (Datum, error) {
		var e wire.Enc
		EncodeDatum(&e, d)
		dec := wire.NewDec(e.Bytes())
		got := DecodeDatum(dec)
		return got, dec.Close()
	}
	for _, d := range []Datum{MsgDatum(7), {Kind: KindMsg, Msg: 7, I: 12}, PosDatum(7, 2, 31), StableDatum(7, 3), ConsDatum(7, 0b1011, 44)} {
		if got, err := roundTrip(d); err != nil || got != d {
			t.Errorf("round trip of %v = %v, %v", d, got, err)
		}
	}
	for _, kind := range []Kind{0, KindCons + 1} {
		if got, err := roundTrip(Datum{Kind: kind, Msg: 1}); err == nil {
			t.Errorf("kind %d decoded to %v", kind, got)
		}
	}
}
