// Package check validates runs of an atomic multicast protocol against the
// problem's specification: integrity, termination, ordering (acyclicity of
// the delivery relation ↦), the strict variation's real-time order
// (↦ ∪ ⇝), pairwise ordering, and the minimality (genuineness) property.
// The checkers work on the global delivery trace plus per-process local
// orders and the engine's step accounting.
package check

import (
	"fmt"
	"sort"

	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
)

// Trace is the run evidence the checkers consume.
type Trace struct {
	Topo *groups.Topology
	Pat  *failure.Pattern
	Reg  *msg.Registry
	// LocalOrder maps each process to its local delivery sequence.
	LocalOrder map[groups.Process][]msg.ID
	// Multicast is the set of messages that were handed to multicast()
	// (they entered L_g), with the request time.
	Multicast map[msg.ID]failure.Time
	// FirstDelivered maps delivered messages to their first delivery time.
	FirstDelivered map[msg.ID]failure.Time
	// TookSteps reports whether a process took observable steps in the run.
	TookSteps func(groups.Process) bool
	// Conflicts is the run's commutativity relation for the conflict-aware
	// checkers: whether two messages must share a relative delivery order.
	// nil means every pair conflicts, under which ConflictOrdering and
	// ConflictPairwise coincide with Ordering and PairwiseOrdering.
	Conflicts func(a, b msg.ID) bool
}

// conflicts evaluates the trace's relation (nil ⇒ every pair conflicts).
func (tr *Trace) conflicts(a, b msg.ID) bool {
	if tr.Conflicts == nil {
		return true
	}
	return tr.Conflicts(a, b)
}

// Violation describes a broken property.
type Violation struct {
	Property string
	Detail   string
}

func (v Violation) Error() string { return v.Property + ": " + v.Detail }

func violationf(prop, format string, args ...any) *Violation {
	return &Violation{Property: prop, Detail: fmt.Sprintf(format, args...)}
}

// BatchExtents checks what a group log says about batches (the batches of
// the core package's DESIGN.md §13) against L_g, the group's requests in
// registration order: each head in the log is a request of seq, a head's
// extent — the requests of seq after it up to and including its batch's
// last request, batch(head), none when that is msg.None — is a run of seq,
// and no request is in two batches, a head's own or another's. It returns,
// for every request that entered, the head of the batch that carried it.
func BatchExtents(seq, heads []msg.ID, batch func(head msg.ID) msg.ID) (map[msg.ID]msg.ID, *Violation) {
	idx := make(map[msg.ID]int, len(seq))
	for i, m := range seq {
		idx[m] = i
	}
	headOf := make(map[msg.ID]msg.ID)
	for _, h := range heads {
		i, ok := idx[h]
		if !ok {
			return nil, violationf("BatchExtents", "head m%d is not a request of L_g", h)
		}
		j := i
		if tail := batch(h); tail != msg.None {
			if j, ok = idx[tail]; !ok || j <= i {
				return nil, violationf("BatchExtents", "batch of m%d ends at m%d, which is not after it in L_g", h, tail)
			}
		}
		for _, m := range seq[i : j+1] {
			if other, dup := headOf[m]; dup {
				return nil, violationf("BatchExtents", "m%d is in the batches of m%d and m%d", m, other, h)
			}
			headOf[m] = h
		}
	}
	return headOf, nil
}

// Integrity checks that every process delivers each message at most once,
// only if addressed to it, and only if it was multicast.
func Integrity(tr *Trace) *Violation {
	for p, seq := range tr.LocalOrder {
		seen := make(map[msg.ID]bool, len(seq))
		for _, id := range seq {
			if seen[id] {
				return violationf("integrity", "p%d delivered m%d twice", p, id)
			}
			seen[id] = true
			m := tr.Reg.Get(id)
			if !tr.Topo.Group(m.Dst).Has(p) {
				return violationf("integrity", "p%d ∉ dst(m%d)=g%d", p, id, m.Dst)
			}
			if _, ok := tr.Multicast[id]; !ok {
				return violationf("integrity", "m%d delivered but never multicast", id)
			}
		}
	}
	return nil
}

// Termination checks that every message multicast by a correct process, or
// delivered by any process, is delivered by every correct process of its
// destination group. It assumes the run quiesced.
func Termination(tr *Trace) *Violation {
	delivered := deliveredSets(tr)
	for id := range tr.Multicast {
		m := tr.Reg.Get(id)
		_, wasDelivered := tr.FirstDelivered[id]
		if !wasDelivered && !tr.Pat.IsCorrect(m.Src) {
			continue // no obligation: faulty sender, nobody delivered
		}
		for _, p := range tr.Topo.Group(m.Dst).Intersect(tr.Pat.Correct()).Members() {
			if !delivered[p][id] {
				return violationf("termination",
					"correct p%d ∈ dst(m%d)=g%d never delivered it", p, id, m.Dst)
			}
		}
	}
	return nil
}

// deliveredSets indexes the local orders.
func deliveredSets(tr *Trace) map[groups.Process]map[msg.ID]bool {
	out := make(map[groups.Process]map[msg.ID]bool, len(tr.LocalOrder))
	for p, seq := range tr.LocalOrder {
		s := make(map[msg.ID]bool, len(seq))
		for _, id := range seq {
			s[id] = true
		}
		out[p] = s
	}
	return out
}

// edge is a ↦ edge.
type edge struct{ from, to msg.ID }

// deliveryEdges computes ↦ = ∪_p ↦p: m ↦p m' when p ∈ dst(m)∩dst(m'), p
// delivers m, and at that point p has not delivered m' (either m' comes
// later in p's order, or never at p). It holds every such pair — O(P·n²) —
// which ConflictOrdering needs: restricted to conflicting pairs the
// relation is not transitive, so no smaller one has the same restriction.
func deliveryEdges(tr *Trace) map[edge]groups.Process {
	edges := make(map[edge]groups.Process)
	for p, seq := range tr.LocalOrder {
		pos := make(map[msg.ID]int, len(seq))
		for i, id := range seq {
			pos[id] = i
		}
		// Only messages delivered somewhere can close a cycle, so we range
		// over those addressed to p.
		for id := range tr.FirstDelivered {
			m := tr.Reg.Get(id)
			if !tr.Topo.Group(m.Dst).Has(p) {
				continue
			}
			for i, did := range seq {
				if did == id {
					continue
				}
				dm := tr.Reg.Get(did)
				if !tr.Topo.Intersection(dm.Dst, m.Dst).Has(p) {
					continue
				}
				if j, deliveredHere := pos[id]; !deliveredHere || i < j {
					edges[edge{did, id}] = p
				}
			}
		}
	}
	return edges
}

// orderEdges computes a subrelation of ↦ with the same transitive closure,
// in O(P·n): per process p, the chain of p's consecutive deliveries
// addressed to p, and an edge from p's last such delivery to each message
// addressed to p that is delivered elsewhere but not at p. Every edge is
// one of ↦. Every edge m ↦p m' is a path: m' is delivered after some
// delivery of m at p, or never at p, so the chain runs from that m to m' or
// to p's last delivery and on to m'. A cycle exists in one iff in the
// other. Like deliveryEdges it reads every message a local order holds as
// delivered, so a trace must list each of them in FirstDelivered.
func orderEdges(tr *Trace) map[edge]groups.Process {
	edges := make(map[edge]groups.Process)
	for p, seq := range tr.LocalOrder {
		here := make(map[msg.ID]bool, len(seq))
		last := msg.None
		for _, id := range seq {
			if !tr.Topo.Group(tr.Reg.Get(id).Dst).Has(p) {
				continue
			}
			here[id] = true
			if last != msg.None && last != id {
				edges[edge{last, id}] = p
			}
			last = id
		}
		if last == msg.None {
			continue
		}
		for id := range tr.FirstDelivered {
			if !here[id] && tr.Topo.Group(tr.Reg.Get(id).Dst).Has(p) {
				edges[edge{last, id}] = p
			}
		}
	}
	return edges
}

// Ordering checks that the delivery relation ↦ is acyclic over the
// delivered messages.
func Ordering(tr *Trace) *Violation {
	edges := orderEdges(tr)
	if cyc := findCycle(edges, nil); cyc != nil {
		return violationf("ordering", "↦ has a cycle: %v", cyc)
	}
	return nil
}

// StrictOrdering checks the strict variation (§6.1): the transitive closure
// of ↦ ∪ ⇝ is a strict partial order, where m ⇝ m' when m was delivered
// (first) in real time before m' was multicast.
func StrictOrdering(tr *Trace) *Violation {
	if cyc := findCycle(orderEdges(tr), realTimeEdges(tr)); cyc != nil {
		real := cyc[:0]
		for _, m := range cyc {
			if m > 0 {
				real = append(real, m)
			}
		}
		return violationf("strict-ordering", "↦ ∪ ⇝ has a cycle: %v", real)
	}
	return nil
}

// realTimeEdges returns edges whose transitive closure over the messages is
// that of ⇝ — m ⇝ m' when m ≠ m' are delivered and m was first delivered
// before m' was multicast — in O(n log n) instead of one edge per pair. The
// delivered requests, sorted by request time, hang off a chain of virtual
// nodes (IDs below zero): virtual node k points at the k-th request and at
// node k+1, and m points at the first node whose request comes after its
// first delivery, so m reaches exactly the requests ⇝ relates it to. A
// message first delivered before its own request would reach itself that
// way, which ⇝ does not say; no run delivers one, and it gets its edges
// one by one.
func realTimeEdges(tr *Trace) []edge {
	var reqs []msg.ID
	for m := range tr.Multicast {
		if _, delivered := tr.FirstDelivered[m]; delivered {
			reqs = append(reqs, m)
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return tr.Multicast[reqs[i]] < tr.Multicast[reqs[j]] })
	virtual := func(k int) msg.ID { return msg.ID(-1 - k) }
	var rt []edge
	for k, m := range reqs {
		rt = append(rt, edge{virtual(k), m})
		if k+1 < len(reqs) {
			rt = append(rt, edge{virtual(k), virtual(k + 1)})
		}
	}
	for m, dt := range tr.FirstDelivered {
		k := sort.Search(len(reqs), func(i int) bool { return tr.Multicast[reqs[i]] > dt })
		if k == len(reqs) {
			continue
		}
		if reqt, ok := tr.Multicast[m]; ok && dt < reqt {
			for _, mp := range reqs[k:] {
				if mp != m {
					rt = append(rt, edge{m, mp})
				}
			}
			continue
		}
		rt = append(rt, edge{m, virtual(k)})
	}
	return rt
}

// PairwiseOrdering checks the §7 variation: if p delivers m then m', every
// process q that delivers m' has delivered m before. Per pair of processes,
// q's positions of the messages both deliver must rise along p's order —
// O(P²·n); a table of every ordered pair of messages is O(P·n²), which a
// 30 s replicated-log soak (25k appends) does not fit in memory.
func PairwiseOrdering(tr *Trace) *Violation {
	at := make(map[groups.Process]map[msg.ID]int, len(tr.LocalOrder))
	for p, seq := range tr.LocalOrder {
		at[p] = make(map[msg.ID]int, len(seq))
		for i, m := range seq {
			at[p][m] = i
		}
	}
	for p, seq := range tr.LocalOrder {
		for q, pos := range at {
			if q <= p {
				continue
			}
			prev, last := msg.ID(0), -1
			for _, m := range seq {
				i, ok := pos[m]
				if !ok {
					continue
				}
				if i < last {
					return violationf("pairwise-ordering",
						"p%d delivers m%d before m%d; p%d the converse", p, prev, m, q)
				}
				prev, last = m, i
			}
		}
	}
	return nil
}

// ConflictOrdering checks the generic-multicast ordering property: the
// delivery relation ↦ restricted to conflicting pairs is acyclic. Commuting
// pairs may be delivered in different orders at different processes, so
// only edges between messages the relation says conflict can invalidate the
// run. With a nil relation this is exactly Ordering.
func ConflictOrdering(tr *Trace) *Violation {
	edges := deliveryEdges(tr)
	for e := range edges {
		if !tr.conflicts(e.from, e.to) {
			delete(edges, e)
		}
	}
	if cyc := findCycle(edges, nil); cyc != nil {
		return violationf("conflict-ordering", "↦ restricted to conflicting pairs has a cycle: %v", cyc)
	}
	return nil
}

// ConflictPairwise checks pairwise agreement restricted to conflicting
// pairs: if p delivers conflicting messages m then m', no process delivers
// m' before m. With a nil relation this is exactly PairwiseOrdering.
func ConflictPairwise(tr *Trace) *Violation {
	type pair struct{ a, b msg.ID }
	order := make(map[pair]groups.Process)
	for p, seq := range tr.LocalOrder {
		for i, a := range seq {
			for _, b := range seq[i+1:] {
				if !tr.conflicts(a, b) {
					continue
				}
				if q, ok := order[pair{b, a}]; ok {
					return violationf("conflict-pairwise",
						"conflicting pair: p%d delivers m%d before m%d; p%d the converse", p, a, b, q)
				}
				order[pair{a, b}] = p
			}
		}
	}
	return nil
}

// Minimality checks genuineness: a process that took steps must be a
// destination of some multicast message.
func Minimality(tr *Trace) *Violation {
	if tr.TookSteps == nil {
		return nil
	}
	var dests groups.ProcSet
	for id := range tr.Multicast {
		dests = dests.Union(tr.Topo.Group(tr.Reg.Get(id).Dst))
	}
	for p := 0; p < tr.Topo.NumProcesses(); p++ {
		proc := groups.Process(p)
		if tr.TookSteps(proc) && !dests.Has(proc) {
			return violationf("minimality",
				"p%d took steps but no message is addressed to it", p)
		}
	}
	return nil
}

// GroupParallelism checks the §6.2 property on a participation-restricted
// run: the run was fair only for participants (= Correct ∩ dst(m) in the
// property's statement), and every message addressed to a group inside the
// participant set must be delivered by all the group's correct members.
func GroupParallelism(tr *Trace, participants groups.ProcSet) *Violation {
	delivered := deliveredSets(tr)
	for id := range tr.Multicast {
		m := tr.Reg.Get(id)
		dst := tr.Topo.Group(m.Dst)
		if !dst.SubsetOf(participants) {
			continue // the destination group was not the isolated one
		}
		for _, p := range dst.Intersect(tr.Pat.Correct()).Members() {
			if !delivered[p][id] {
				return violationf("group-parallelism",
					"isolated group g%d: correct p%d never delivered m%d", m.Dst, p, id)
			}
		}
	}
	return nil
}

// All runs every checker appropriate for the variant ("strict" adds
// real-time order, "pairwise" swaps ordering for pairwise ordering,
// "generic" swaps both ordering checkers for their conflict-restricted
// forms — total order is owed only within conflicting pairs).
func All(tr *Trace, strict, pairwiseOnly, generic bool) []*Violation {
	var out []*Violation
	add := func(v *Violation) {
		if v != nil {
			out = append(out, v)
		}
	}
	add(Integrity(tr))
	add(Termination(tr))
	switch {
	case generic:
		add(ConflictOrdering(tr))
		add(ConflictPairwise(tr))
	case pairwiseOnly:
		add(PairwiseOrdering(tr))
	default:
		add(Ordering(tr))
		add(PairwiseOrdering(tr))
	}
	if strict {
		add(StrictOrdering(tr))
	}
	add(Minimality(tr))
	return out
}

// findCycle detects a cycle in ↦ ∪ extra and returns it, or nil.
func findCycle(edges map[edge]groups.Process, extra []edge) []msg.ID {
	adj := make(map[msg.ID][]msg.ID)
	nodes := make(map[msg.ID]bool)
	addEdge := func(e edge) {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	for e := range edges {
		addEdge(e)
	}
	for _, e := range extra {
		addEdge(e)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[msg.ID]int, len(nodes))
	var stack []msg.ID
	var cycle []msg.ID
	var dfs func(u msg.ID) bool
	dfs = func(u msg.ID) bool {
		color[u] = gray
		stack = append(stack, u)
		for _, v := range adj[u] {
			switch color[v] {
			case gray:
				// Extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == v {
						break
					}
				}
				return true
			case white:
				if dfs(v) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return false
	}
	for u := range nodes {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}
