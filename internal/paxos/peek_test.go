package paxos

import (
	"repro/internal/groups"
)

// nodeState is what tests read of a node's internals, each part taken under
// the lock that guards it.
type nodeState struct {
	promised int // point promises on record
	// accepted is every slot holding an accepted value, every realm.
	accepted map[InstanceID]AcceptedVal
	// acceptorPages and learnerPages are the pages the two slot tables hold.
	acceptorPages, learnerPages map[pageKey]bool
	// waiting counts the waiter table's entries per instance.
	waiting map[InstanceID]int
	// round reports whether a round holds the asked instance, and voters the
	// acceptors it has counted so far.
	round  bool
	voters groups.ProcSet
}

// tablePages is the set of pages a slot table holds.
func tablePages[E any](t slotTable[E]) map[pageKey]bool {
	out := make(map[pageKey]bool)
	for k := range t {
		out[k] = true
	}
	return out
}

// peek is the one reader of a node's internals for tests: the acceptor's
// tables, the learner's pages and waiters and the phase table entry at id.
func peek(n *Node, id InstanceID) nodeState {
	st := nodeState{accepted: make(map[InstanceID]AcceptedVal), waiting: make(map[InstanceID]int)}
	n.acc.mu.Lock()
	st.promised = len(n.acc.promised)
	for k, pg := range n.acc.accepted {
		for i, av := range pg {
			if av.Has {
				st.accepted[InstanceID{Space: k.realm.Space, Realm: k.realm.Realm, Slot: k.page<<pageBits | int64(i)}] = av
			}
		}
	}
	st.acceptorPages = tablePages(n.acc.accepted)
	n.acc.mu.Unlock()
	n.mu.Lock()
	st.learnerPages = tablePages(n.decided)
	for _, w := range n.waiters {
		st.waiting[w.inst]++
	}
	n.mu.Unlock()
	n.phMu.Lock()
	if ph := n.phases[id]; ph != nil {
		st.round, st.voters = true, ph.voters
	}
	n.phMu.Unlock()
	return st
}
