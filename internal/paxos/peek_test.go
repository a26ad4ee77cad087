package paxos

import (
	"repro/internal/groups"
)

// nodeState is what tests read of a node's internals, each part taken under
// the lock that guards it.
type nodeState struct {
	promised int // point promises on record
	// accepted is every slot holding an accepted value, every realm, as a
	// prepare reports it: a decided slot's value is its decision.
	accepted map[InstanceID]AcceptedVal
	// held is every slot with a point promise, an accepted value or a
	// decision, and pages the pages the slot table holds.
	held  map[InstanceID]bool
	pages map[pageKey]bool
	// waiting counts the waiter table's entries per instance.
	waiting map[InstanceID]int
	// round reports whether a round holds the asked instance, and voters the
	// acceptors it has counted so far.
	round  bool
	voters groups.ProcSet
	// quorum is the asked instance's realm voters (Node.voters): the peers
	// a leased accept goes to first; known reports that there are any.
	quorum groups.ProcSet
	known  bool
}

// peek is the one reader of a node's internals for tests: the slot table,
// the waiters, the phase table entry at id and the voters of id's realm.
func peek(n *Node, id InstanceID) nodeState {
	st := nodeState{accepted: make(map[InstanceID]AcceptedVal), held: make(map[InstanceID]bool),
		pages: make(map[pageKey]bool), waiting: make(map[InstanceID]int)}
	n.mu.Lock()
	for k, pg := range n.slots {
		st.pages[k] = true
		for i, e := range pg {
			slot := InstanceID{Space: k.realm.Space, Realm: k.realm.Realm, Slot: k.page<<pageBits | int64(i)}
			if e.promised > 0 {
				st.promised++
			}
			if e.accepted {
				st.accepted[slot] = AcceptedVal{Ballot: e.ballot, Val: e.val, Has: true}
			}
			if e.promised > 0 || e.accepted || e.decided {
				st.held[slot] = true
			}
		}
	}
	for _, w := range n.waiters {
		st.waiting[w.inst]++
	}
	n.mu.Unlock()
	n.phMu.Lock()
	if ph := n.phases[id]; ph != nil {
		st.round, st.voters = true, ph.voters
	}
	st.quorum, st.known = n.voters[id.realm()]
	n.phMu.Unlock()
	return st
}
