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
// messages are kept in a slice ordered by <_L, the position tuples are
// indexed per message, and ScanBefore walks the order from a caller-supplied
// position (see Log).
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
type Log struct {
	name  string
	slots map[Datum]slot
	head  int // first free slot after which there are only free slots

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

	// tuples indexes the KindPos data (m, h, i) by message: line 18-19 of
	// Algorithm 1 read them per message, at most one per intersecting group.
	tuples map[msg.ID][]posTuple

	// decided indexes the KindCons data: the k of the one proposal (m, f, k)
	// the log holds per (m, f). Made on first use — only group logs see any.
	decided map[consKey]int
}

// consKey names CONS_{m,f}; f is held the way Datum.H carries it.
type consKey struct {
	m msg.ID
	f groups.GroupID
}

// slot is where a datum sits and whether it is locked there.
type slot struct {
	pos    int
	locked bool
}

// msgEntry is one rank of the message order.
type msgEntry struct {
	pos int
	id  msg.ID
}

// before reports (e.pos, e.id) < (pos, id): the <_L order between messages.
func (e msgEntry) before(pos int, id msg.ID) bool {
	return e.pos < pos || (e.pos == pos && e.id < id)
}

// posTuple is the (h, i) part of a KindPos datum (m, h, i).
type posTuple struct {
	h groups.GroupID
	i int
}

// New returns an empty log with a diagnostic name.
func New(name string) *Log {
	return &Log{name: name, slots: make(map[Datum]slot), tuples: make(map[msg.ID][]posTuple), head: 1}
}

// Name returns the log's diagnostic name.
func (l *Log) Name() string { return l.name }

// Append inserts d at the head slot and returns its position. If d is
// already in the log the operation does nothing and returns the current
// position; so does a KindCons proposal to a CONS_{m,f} that is already
// decided, which returns the position of the proposal that won.
func (l *Log) Append(d Datum) int {
	if s, ok := l.slots[d]; ok {
		return s.pos
	}
	if d.Kind == KindCons {
		if k, ok := l.decided[consKey{d.Msg, d.H}]; ok {
			d.I = k
			return l.slots[d].pos
		}
	}
	p := l.head
	l.slots[d] = slot{pos: p}
	l.head = p + 1
	switch d.Kind {
	case KindMsg:
		l.msgSeq = append(l.msgSeq, d.Msg)
		l.order = append(l.order, msgEntry{pos: p, id: d.Msg})
	case KindPos:
		l.tuples[d.Msg] = append(l.tuples[d.Msg], posTuple{h: d.H, i: d.I})
	case KindCons:
		if l.decided == nil {
			l.decided = make(map[consKey]int)
		}
		l.decided[consKey{d.Msg, d.H}] = d.I
	}
	return p
}

// Decided returns the decision of CONS_{m,f}: the k of the first (m, f, k)
// proposal appended, and whether there is one yet.
func (l *Log) Decided(m msg.ID, f groups.GroupSet) (int, bool) {
	k, ok := l.decided[consKey{m, groups.GroupID(f)}]
	return k, ok
}

// Appended reports whether append(d) has nothing left to do: d is in the
// log, or d proposes to a CONS_{m,f} that is already decided.
func (l *Log) Appended(d Datum) bool {
	if l.slots[d].pos != 0 {
		return true
	}
	if d.Kind != KindCons {
		return false
	}
	_, ok := l.decided[consKey{d.Msg, d.H}]
	return ok
}

// Pos returns the position of d, or 0 if d is absent.
func (l *Log) Pos(d Datum) int { return l.slots[d].pos }

// Contains reports whether d is in the log.
func (l *Log) Contains(d Datum) bool { return l.slots[d].pos != 0 }

// BumpAndLock moves d from its slot s to slot max(k, s) and locks it there.
// Once locked a datum cannot be bumped anymore, so a second call is a no-op.
// Calling BumpAndLock on an absent datum is a bug in the caller and panics.
func (l *Log) BumpAndLock(d Datum, k int) {
	s, ok := l.slots[d]
	if !ok {
		panic(fmt.Sprintf("logobj: BumpAndLock(%v) on absent datum in %s", d, l.name))
	}
	if s.locked {
		return
	}
	if k > s.pos {
		if d.Kind == KindMsg {
			l.moveUp(s.pos, k, d.Msg)
		}
		s.pos = k
		if k >= l.head {
			l.head = k + 1
		}
	}
	s.locked = true
	l.slots[d] = s
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
func (l *Log) Locked(d Datum) bool { return l.slots[d].locked }

// Less reports d <_L d': both in the log, and either at a lower position or
// tied on position and smaller in the a-priori order.
func (l *Log) Less(d, o Datum) bool {
	sd, ok1 := l.slots[d]
	so, ok2 := l.slots[o]
	if !ok1 || !ok2 {
		return false
	}
	if sd.pos != so.pos {
		return sd.pos < so.pos
	}
	return d.Less(o)
}

// Items returns every datum in <_L order: the message order merged with the
// (sorted) tuples.
func (l *Log) Items() []Datum {
	rest := make([]Datum, 0, len(l.slots)-len(l.order))
	for d := range l.slots {
		if d.Kind != KindMsg {
			rest = append(rest, d)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return l.Less(rest[i], rest[j]) })
	out := make([]Datum, 0, len(l.slots))
	for _, e := range l.order {
		m := MsgDatum(e.id)
		for len(rest) > 0 && l.Less(rest[0], m) {
			out, rest = append(out, rest[0]), rest[1:]
		}
		out = append(out, m)
	}
	return append(out, rest...)
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
	s, ok := l.slots[d]
	if !ok {
		return
	}
	for _, e := range l.order[l.search(minPos, math.MinInt64):] {
		if e.pos > s.pos || (e.pos == s.pos && !MsgDatum(e.id).Less(d)) {
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
	max := 0
	for _, t := range l.tuples[m] {
		if t.i > max {
			max = t.i
		}
	}
	return max, len(l.tuples[m]) > 0
}

// HasPosTuple reports whether some (m, h, -) tuple is in the log.
func (l *Log) HasPosTuple(m msg.ID, h groups.GroupID) bool {
	for _, t := range l.tuples[m] {
		if t.h == h {
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
		s := l.slots[d]
		fmt.Fprintf(&b, "%v@%d", d, s.pos)
		if s.locked {
			b.WriteByte('!')
		}
	}
	b.WriteByte(']')
	return b.String()
}
