package paxos

import "slices"

// pageBits sizes the pages per-slot state lives in: a page holds 1<<pageBits
// consecutive slots of one realm. Slot numbers arrive from the wire and may
// be any int64, so state is kept in the pages a node has touched, never in a
// slice indexed from slot 0.
const pageBits = 6

const pageSize = 1 << pageBits

// pageKey names one page of one realm: its slots s have s>>pageBits == page.
type pageKey struct {
	realm realmKey
	page  int64
}

// slotTable is a node's per-slot state of type E: a page is found by its
// pageKey and then indexed by the slot's low bits. A zero entry is an absent
// one. The caller's lock guards the table.
type slotTable[E any] map[pageKey]*[pageSize]E

func pageOf(id InstanceID) pageKey { return pageKey{id.realm(), id.Slot >> pageBits} }

// get returns id's entry, or nil when its page was never touched.
func (t slotTable[E]) get(id InstanceID) *E {
	pg := t[pageOf(id)]
	if pg == nil {
		return nil
	}
	return &pg[id.Slot&(pageSize-1)]
}

// at returns id's entry, touching its page first if need be.
func (t slotTable[E]) at(id InstanceID) *E {
	k := pageOf(id)
	pg := t[k]
	if pg == nil {
		pg = new([pageSize]E)
		t[k] = pg
	}
	return &pg[id.Slot&(pageSize-1)]
}

// each calls fn, in slot order, on every entry of rk's pages at a slot ≥
// from: present and zero entries alike, the caller tells them apart. It
// walks every page of the table, so it is for lease acquisitions and realm
// watches, not for the per-slot path.
func (t slotTable[E]) each(rk realmKey, from int64, fn func(slot int64, e *E)) {
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
