package paxos

import "slices"

// pageBits sizes the pages per-slot state lives in: a page holds 1<<pageBits
// consecutive slots of one realm. Slot numbers arrive from the wire and may
// be any int64, so state is kept in the pages a node has touched, never in a
// slice indexed from slot 0.
const pageBits = 6

const pageSize = 1 << pageBits

// entry is all a node holds about one slot: its point promise, the ballot
// and value it accepted, and whether val is the decision (DESIGN.md §11).
// The zero entry is an absent one.
type entry struct {
	promised, ballot  int64
	val               Value
	accepted, decided bool
}

// accept records a vote for (b, v). A decided val stays: a WAL written
// before votes checked for a decision under their lock may log an accept
// after the decide record of its slot.
func (e *entry) accept(b int64, v Value) {
	if e.ballot, e.accepted = b, true; !e.decided {
		e.val = v
	}
}

// decide records the decision v, keeping equal accepted bytes: one copy.
func (e *entry) decide(v Value) {
	if e.decided = true; !e.accepted || !e.val.Equal(v) {
		e.val = v
	}
}

// pageKey names one page of one realm: its slots s have s>>pageBits == page.
type pageKey struct {
	realm realmKey
	page  int64
}

// slotTable is a node's per-slot state: a page is found by its pageKey and
// then indexed by the slot's low bits. The node's mu guards it.
type slotTable map[pageKey]*[pageSize]entry

func pageOf(id InstanceID) pageKey { return pageKey{id.realm(), id.Slot >> pageBits} }

// get returns id's entry, or nil when its page was never touched.
func (t slotTable) get(id InstanceID) *entry {
	pg := t[pageOf(id)]
	if pg == nil {
		return nil
	}
	return &pg[id.Slot&(pageSize-1)]
}

// at returns id's entry, touching its page first if need be.
func (t slotTable) at(id InstanceID) *entry {
	k := pageOf(id)
	pg := t[k]
	if pg == nil {
		pg = new([pageSize]entry)
		t[k] = pg
	}
	return &pg[id.Slot&(pageSize-1)]
}

// each calls fn, in slot order, on every entry of rk's pages at a slot ≥
// from: present and zero entries alike, the caller tells them apart. It
// walks every page of the table, so it is for lease acquisitions and realm
// watches, not for the per-slot path.
func (t slotTable) each(rk realmKey, from int64, fn func(slot int64, e *entry)) {
	var keys []int64
	for k := range t {
		if k.realm == rk && k.page >= from>>pageBits {
			keys = append(keys, k.page)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		pg := t[pageKey{rk, k}]
		for i := range pg {
			if s := k<<pageBits | int64(i); s >= from {
				fn(s, &pg[i])
			}
		}
	}
}
