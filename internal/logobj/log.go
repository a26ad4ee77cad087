// Package logobj implements the shared log object of §4.3: an infinite array
// of slots holding data items, with operations append, pos, bumpAndLock and
// locked. Logs are the coordination backbone of Algorithm 1 — one per
// destination group and one per group intersection.
//
// A Log is a plain sequential data structure and does no locking of its own;
// linearizability is supplied by whoever owns it. The deterministic backend
// steps every process from one goroutine over one shared Log per object (the
// uc package layers the paper's universal construction and its step
// accounting on top); the live backend gives every process its own copy
// inside a replog.Replica, which applies the decided operations in slot order
// and serialises readers and the apply loop under the replica mutex.
//
// Reads on Algorithm 1's guard path never rescan the log's history: the
// log keeps one record per message — every datum it holds about m, chained
// through one arena per log and found by m's ID — the messages are kept in a
// slice ordered by <_L, and ScanBefore walks the order from a
// caller-supplied position (see Log).
package logobj

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/groups"
	"repro/internal/msg"
)

// Kind distinguishes the shapes of data Algorithm 1 stores in logs.
type Kind int

const (
	// KindMsg is a plain message m.
	KindMsg Kind = iota + 1
	// KindPos is a tuple (m, h, i): m occupies slot i of LOG_{g∩h}.
	KindPos
	// KindStable is a tuple (m, h): m is stabilised in group h.
	KindStable
	// KindCons is a proposal (m, f, k) to CONS_{m,f}: the family f (a
	// groups.GroupSet) rides in H, the proposed final position k in I. The
	// first one appended for (m, f) is the decision (see Decided); a log that
	// is linearizable is thereby a consensus object for every (m, f).
	KindCons
)

// Datum is a data item stored in a log. The total order (<) over data used
// to break slot ties is the lexicographic order on (Msg, Kind, H, I); in
// particular two *messages* in the same slot are ordered by message ID,
// which is the paper's a-priori total order.
type Datum struct {
	Kind Kind
	Msg  msg.ID
	H    groups.GroupID
	I    int
}

// MsgDatum returns the log datum for message m.
func MsgDatum(m msg.ID) Datum { return Datum{Kind: KindMsg, Msg: m} }

// PosDatum returns the (m, h, i) datum.
func PosDatum(m msg.ID, h groups.GroupID, i int) Datum {
	return Datum{Kind: KindPos, Msg: m, H: h, I: i}
}

// StableDatum returns the (m, h) datum.
func StableDatum(m msg.ID, h groups.GroupID) Datum {
	return Datum{Kind: KindStable, Msg: m, H: h}
}

// ConsDatum returns the proposal of k to CONS_{m,f}.
func ConsDatum(m msg.ID, f groups.GroupSet, k int) Datum {
	return Datum{Kind: KindCons, Msg: m, H: groups.GroupID(f), I: k}
}

// Less is the a-priori total order over data items.
func (d Datum) Less(o Datum) bool {
	if d.Msg != o.Msg {
		return d.Msg < o.Msg
	}
	if d.Kind != o.Kind {
		return d.Kind < o.Kind
	}
	if d.H != o.H {
		return d.H < o.H
	}
	return d.I < o.I
}

// String renders the datum.
func (d Datum) String() string {
	switch d.Kind {
	case KindMsg:
		return fmt.Sprintf("m%d", d.Msg)
	case KindPos:
		return fmt.Sprintf("(m%d,g%d,%d)", d.Msg, d.H, d.I)
	case KindStable:
		return fmt.Sprintf("(m%d,g%d)", d.Msg, d.H)
	case KindCons:
		return fmt.Sprintf("cons(m%d,f%b)=%d", d.Msg, uint64(d.H), d.I)
	}
	return "?"
}

// Log is the shared log object. Slots are numbered from 1; position 0 means
// "absent". The zero value is not usable; call New.
//
// Every datum concerns one message — m, (m,h,i), (m,h) or (m,f,k) — and
// Algorithm 1 reads the log one message at a time, so the log keeps one
// record per message: recs finds the record by message ID, and the record is
// a chain, through one arena of items per log, of every datum the log holds
// about that message, each with its position and lock bit. The chain starts
// at the first datum appended for the message; later ones are linked in
// right behind it, so only a message's first datum writes to recs. A
// message carries a handful of data (its own datum, its pos and stable
// tuples, a CONS proposal), so a read walks a few items after one
// 8-byte-key lookup, and neither the arena nor recs holds a pointer the
// garbage collector must trace.
type Log struct {
	name string
	head int // first free slot after which there are only free slots

	// recs maps a message to the arena index of the first item of its
	// record; items[0] is a sentinel, so index 0 ends a chain. An int32
	// index reaches 2^31 items, 64 GiB of arena.
	recs  map[msg.ID]int32
	items []item

	// msgSeq records the KindMsg datums in first-append order. Appends are
	// deduplicated, so each message appears exactly once; readers use it as
	// an incremental discovery stream (MessagesSince) instead of re-listing
	// and re-sorting the whole log on every scan.
	msgSeq []msg.ID

	// order holds the KindMsg data sorted by <_L, i.e. by (pos, id). Append
	// lands at head, above every occupied slot, so it is a push; BumpAndLock
	// only moves a datum up, so it rotates the datum over the ranks it
	// passes and leaves the rest of the slice alone.
	order []msgEntry
}

// item is one datum of a record: the datum less its message, where it sits,
// whether it is locked there, and the next item of the same record — 32
// bytes.
type item struct {
	h      groups.GroupID
	i      int
	pos    int
	next   int32
	kind   uint8 // one of the four Kinds (Append takes no other)
	locked bool
}

// datum rebuilds the datum the item holds about message m.
func (it *item) datum(m msg.ID) Datum { return Datum{Kind: Kind(it.kind), Msg: m, H: it.h, I: it.i} }

// msgEntry is one rank of the message order.
type msgEntry struct {
	pos int
	id  msg.ID
}

// before reports (e.pos, e.id) < (pos, id): the <_L order between messages.
func (e msgEntry) before(pos int, id msg.ID) bool {
	return e.pos < pos || (e.pos == pos && e.id < id)
}

// New returns an empty log with a diagnostic name.
func New(name string) *Log {
	return &Log{name: name, recs: make(map[msg.ID]int32), items: make([]item, 1), head: 1}
}

// Name returns the log's diagnostic name.
func (l *Log) Name() string { return l.name }

// find returns the item holding d in the record that starts at first, or
// nil. A record holds at most one KindMsg item, and it holds d whatever d's
// I: the first append of a message wins and keeps its batch extent (see
// Batch).
func (l *Log) find(first int32, d Datum) *item {
	for r := first; r != 0; {
		it := &l.items[r]
		if Kind(it.kind) == d.Kind && it.h == d.H && (it.i == d.I || d.Kind == KindMsg) {
			return it
		}
		r = it.next
	}
	return nil
}

// lookup returns the item holding d, or nil when d is absent.
func (l *Log) lookup(d Datum) *item { return l.find(l.recs[d.Msg], d) }

// decision returns the one KindCons item of the record at first that
// proposes to CONS_{m,f} with f carried as Datum.H carries it, or nil.
func (l *Log) decision(first int32, f groups.GroupID) *item {
	for r := first; r != 0; {
		it := &l.items[r]
		if Kind(it.kind) == KindCons && it.h == f {
			return it
		}
		r = it.next
	}
	return nil
}

// Append inserts d at the head slot and returns its position. If d is
// already in the log the operation does nothing and returns the current
// position; so does a KindMsg datum of a message already in the log with
// another I, and a KindCons proposal to a CONS_{m,f} that is already
// decided, each returning the position of the datum that won. A datum of
// none of the four kinds is a bug in the caller (DecodeDatum rejects one)
// and panics.
func (l *Log) Append(d Datum) int {
	if d.Kind < KindMsg || d.Kind > KindCons {
		panic(fmt.Sprintf("logobj: Append(%v) of a datum of kind %d in %s", d, d.Kind, l.name))
	}
	first := l.recs[d.Msg]
	if it := l.find(first, d); it != nil {
		return it.pos
	}
	if d.Kind == KindCons {
		if it := l.decision(first, d.H); it != nil {
			return it.pos
		}
	}
	p := l.head
	r := int32(len(l.items))
	it := item{kind: uint8(d.Kind), h: d.H, i: d.I, pos: p}
	if first == 0 {
		l.recs[d.Msg] = r
	} else {
		it.next, l.items[first].next = l.items[first].next, r
	}
	l.items = append(l.items, it)
	l.head = p + 1
	if d.Kind == KindMsg {
		l.msgSeq = append(l.msgSeq, d.Msg)
		l.order = append(l.order, msgEntry{pos: p, id: d.Msg})
	}
	return p
}

// Decided returns the decision of CONS_{m,f}: the k of the first (m, f, k)
// proposal appended, and whether there is one yet.
func (l *Log) Decided(m msg.ID, f groups.GroupSet) (int, bool) {
	if it := l.decision(l.recs[m], groups.GroupID(f)); it != nil {
		return it.i, true
	}
	return 0, false
}

// Batch returns the I of m's KindMsg datum: the last request of the batch m
// heads (0 when m is alone, or not in the log). It is the first append's I,
// so every copy of the log that holds m answers the same.
func (l *Log) Batch(m msg.ID) msg.ID {
	if it := l.find(l.recs[m], MsgDatum(m)); it != nil {
		return msg.ID(it.i)
	}
	return msg.None
}

// Appended reports whether append(d) has nothing left to do: d is in the
// log, or d proposes to a CONS_{m,f} that is already decided.
func (l *Log) Appended(d Datum) bool {
	first := l.recs[d.Msg]
	if d.Kind == KindCons {
		return l.decision(first, d.H) != nil
	}
	return l.find(first, d) != nil
}

// Pos returns the position of d, or 0 if d is absent.
func (l *Log) Pos(d Datum) int {
	if it := l.lookup(d); it != nil {
		return it.pos
	}
	return 0
}

// Contains reports whether d is in the log.
func (l *Log) Contains(d Datum) bool { return l.lookup(d) != nil }

// BumpAndLock moves d from its slot s to slot max(k, s) and locks it there.
// Once locked a datum cannot be bumped anymore, so a second call is a no-op.
// Calling BumpAndLock on an absent datum is a bug in the caller and panics.
func (l *Log) BumpAndLock(d Datum, k int) {
	it := l.lookup(d)
	if it == nil {
		panic(fmt.Sprintf("logobj: BumpAndLock(%v) on absent datum in %s", d, l.name))
	}
	if it.locked {
		return
	}
	if k > it.pos {
		if d.Kind == KindMsg {
			l.moveUp(it.pos, k, d.Msg)
		}
		it.pos = k
		if k >= l.head {
			l.head = k + 1
		}
	}
	it.locked = true
}

// moveUp re-ranks message id from position from to the higher position to:
// every rank it passes shifts down by one, nothing else moves.
func (l *Log) moveUp(from, to int, id msg.ID) {
	i := l.search(from, id)
	for ; i+1 < len(l.order) && l.order[i+1].before(to, id); i++ {
		l.order[i] = l.order[i+1]
	}
	l.order[i] = msgEntry{pos: to, id: id}
}

// search returns the first rank whose entry is not before (pos, id). It
// gallops down from the tail before bisecting, so the cost is logarithmic in
// the distance from the tail, not in the length of the log: the ranks
// Algorithm 1 asks for — a message about to be bumped, a delivered frontier —
// belong to messages in flight, which sit at the top of the order.
func (l *Log) search(pos int, id msg.ID) int {
	n := len(l.order)
	lo, hi := 0, n // ranks below lo are before (pos, id), ranks from hi on are not
	for step := 1; step <= n; step <<= 1 {
		if l.order[n-step].before(pos, id) {
			lo = n - step + 1
			break
		}
		hi = n - step
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.order[mid].before(pos, id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Locked reports whether d is locked in the log.
func (l *Log) Locked(d Datum) bool {
	it := l.lookup(d)
	return it != nil && it.locked
}

// Less reports d <_L d': both in the log, and either at a lower position or
// tied on position and smaller in the a-priori order.
func (l *Log) Less(d, o Datum) bool {
	sd, so := l.lookup(d), l.lookup(o)
	if sd == nil || so == nil {
		return false
	}
	if sd.pos != so.pos {
		return sd.pos < so.pos
	}
	return d.Less(o)
}

// Items returns every datum in <_L order.
func (l *Log) Items() []Datum {
	type placed struct {
		d   Datum
		pos int
	}
	all := make([]placed, 0, len(l.items)-1)
	for m, r := range l.recs {
		for ; r != 0; r = l.items[r].next {
			it := &l.items[r]
			all = append(all, placed{it.datum(m), it.pos})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pos != all[j].pos {
			return all[i].pos < all[j].pos
		}
		return all[i].d.Less(all[j].d)
	})
	out := make([]Datum, len(all))
	for i, p := range all {
		out[i] = p.d
	}
	return out
}

// Messages returns the message IDs present as KindMsg data, in <_L order.
func (l *Log) Messages() []msg.ID {
	out := make([]msg.ID, len(l.order))
	for i, e := range l.order {
		out[i] = e.id
	}
	return out
}

// MessagesSince returns the messages appended after the first from message
// appends, in first-append order. Discovery keeps from as a per-log
// high-water mark and only ever reads the new suffix — the log is never
// re-listed wholesale. The returned slice is freshly allocated (safe to
// retain); an out-of-range from yields nil.
func (l *Log) MessagesSince(from int) []msg.ID {
	if from < 0 || from >= len(l.msgSeq) {
		return nil
	}
	return append([]msg.ID(nil), l.msgSeq[from:]...)
}

// ScanBefore calls fn(m, pos) for every message m that is strictly before d
// in <_L order and sits at a position of at least minPos, in ascending <_L
// order, until fn returns false. It visits nothing when d is absent. It does
// not allocate, and it costs the ranks between minPos and d plus the search
// for minPos — never the length of the log. fn must not mutate the log.
func (l *Log) ScanBefore(d Datum, minPos int, fn func(m msg.ID, pos int) bool) {
	it := l.lookup(d)
	if it == nil {
		return
	}
	if d.Kind == KindMsg {
		d.I = 0 // a message's datum, whatever extent it was appended with
	}
	for _, e := range l.order[l.search(minPos, math.MinInt64):] {
		if e.pos > it.pos || (e.pos == it.pos && !MsgDatum(e.id).Less(d)) {
			return
		}
		if !fn(e.id, e.pos) {
			return
		}
	}
}

// MessagesBefore returns the message IDs with a KindMsg datum strictly
// before d in <_L order, in that order (nil when there are none or d is
// absent).
func (l *Log) MessagesBefore(d Datum) []msg.ID {
	var out []msg.ID
	l.ScanBefore(d, 0, func(m msg.ID, _ int) bool {
		out = append(out, m)
		return true
	})
	return out
}

// MaxPosTuple returns max{i : (m,-,i) ∈ L} over KindPos tuples for message
// m, and whether any such tuple exists (line 19 of Algorithm 1).
func (l *Log) MaxPosTuple(m msg.ID) (int, bool) {
	max, found := 0, false
	for r := l.recs[m]; r != 0; r = l.items[r].next {
		if it := &l.items[r]; Kind(it.kind) == KindPos {
			found = true
			if it.i > max {
				max = it.i
			}
		}
	}
	return max, found
}

// HasPosTuple reports whether some (m, h, -) tuple is in the log.
func (l *Log) HasPosTuple(m msg.ID, h groups.GroupID) bool {
	for r := l.recs[m]; r != 0; r = l.items[r].next {
		if it := &l.items[r]; Kind(it.kind) == KindPos && it.h == h {
			return true
		}
	}
	return false
}

// String renders the log contents.
func (l *Log) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[", l.name)
	for i, d := range l.Items() {
		if i > 0 {
			b.WriteByte(' ')
		}
		it := l.lookup(d)
		fmt.Fprintf(&b, "%v@%d", d, it.pos)
		if it.locked {
			b.WriteByte('!')
		}
	}
	b.WriteByte(']')
	return b.String()
}
