package paxos

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/storage"
	"repro/internal/wire"
)

// slotModel is the plain-map reference the slot table is held against: the
// acceptor and learner rules written over maps keyed by InstanceID.
type slotModel struct {
	promised map[InstanceID]int64
	accepted map[InstanceID]AcceptedVal
	leases   map[realmKey]leaseGrant
	decided  map[InstanceID]Value
}

// reported is the accepted value a prepare reports for id: a decided slot's
// decision at the ballot it accepted.
func (m *slotModel) reported(id InstanceID) AcceptedVal {
	av := m.accepted[id]
	if v, ok := m.decided[id]; ok && av.Has {
		av.Val = v
	}
	return av
}

// acceptedView is reported over every accepted slot: what a recovered node
// holds as accepted.
func (m *slotModel) acceptedView() map[InstanceID]AcceptedVal {
	out := make(map[InstanceID]AcceptedVal, len(m.accepted))
	for id := range m.accepted {
		out[id] = m.reported(id)
	}
	return out
}

func (m *slotModel) floor(id InstanceID) int64 {
	f := max(m.promised[id], m.accepted[id].Ballot)
	if lg, ok := m.leases[id.realm()]; ok && id.Slot >= lg.FromSlot && lg.Ballot > f {
		f = lg.Ballot
	}
	return f
}

func (m *slotModel) accept(req AcceptReq) AcceptResp {
	if v, ok := m.decided[req.Inst]; ok {
		return AcceptResp{Inst: req.Inst, Ballot: req.Ballot, Decided: true, DecVal: v}
	}
	f := m.floor(req.Inst)
	ok := req.Ballot >= f
	if ok {
		m.accepted[req.Inst] = AcceptedVal{Ballot: req.Ballot, Val: req.Val, Has: true}
	}
	return AcceptResp{Inst: req.Inst, Ballot: req.Ballot, OK: ok, Promised: f}
}

func (m *slotModel) prepare(req PrepareReq) PrepareResp {
	if v, ok := m.decided[req.Inst]; ok {
		return PrepareResp{Inst: req.Inst, Ballot: req.Ballot, Decided: true, DecVal: v}
	}
	f := m.floor(req.Inst)
	if req.Ballot <= f {
		return PrepareResp{Inst: req.Inst, Ballot: req.Ballot, Promised: f}
	}
	resp := PrepareResp{Inst: req.Inst, Ballot: req.Ballot, OK: true, Accepted: m.reported(req.Inst)}
	if !req.Range {
		m.promised[req.Inst] = req.Ballot
		return resp
	}
	rk := req.Inst.realm()
	m.leases[rk] = leaseGrant{Ballot: req.Ballot, FromSlot: req.Inst.Slot}
	for id := range m.accepted {
		if id.realm() == rk && id.Slot > req.Inst.Slot {
			av := m.reported(id)
			resp.Range = append(resp.Range, SlotVal{Slot: id.Slot, Ballot: av.Ballot, Val: av.Val})
		}
	}
	slices.SortFunc(resp.Range, func(a, b SlotVal) int { return cmp.Compare(a.Slot, b.Slot) })
	return resp
}

// top is what WatchRealm reports: the highest non-negative slot of the realm
// holding an accepted value or a decision, -1 when there is none.
func (m *slotModel) top(rk realmKey) int64 {
	top := int64(-1)
	for id := range m.accepted {
		if id.realm() == rk && id.Slot > top {
			top = id.Slot
		}
	}
	for id := range m.decided {
		if id.realm() == rk && id.Slot > top {
			top = id.Slot
		}
	}
	return top
}

// held is every slot the model has a point promise, an accepted value or a
// decision at.
func (m *slotModel) held() map[InstanceID]bool {
	out := make(map[InstanceID]bool)
	for id := range m.promised {
		out[id] = true
	}
	for id := range m.accepted {
		out[id] = true
	}
	for id := range m.decided {
		out[id] = true
	}
	return out
}

// pagesOf is the set of pages the given instances touch.
func pagesOf[V any](ids map[InstanceID]V) map[pageKey]bool {
	out := make(map[pageKey]bool)
	for id := range ids {
		out[pageKey{id.realm(), id.Slot >> pageBits}] = true
	}
	return out
}

// fuzzRealms are the realms ops land in: two of the log space, one of the
// test space with the same realm number as the first.
var fuzzRealms = []realmKey{{Space: SpaceLog, Realm: 1}, {Space: SpaceLog, Realm: 2}, {Space: SpaceTest, Realm: 1}}

// fuzzSlots are the slot numbers a selector byte picks first: page
// boundaries of both signs, and the extremes a wire peer can send.
var fuzzSlots = []int64{
	0, 1, -1, pageSize - 1, pageSize, pageSize + 1, 255, 256, 257, 511, 512, -256, -257,
	1 << 62, 1<<62 + 1, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

func fuzzSlot(sel byte) int64 {
	if int(sel) < len(fuzzSlots) {
		return fuzzSlots[sel]
	}
	return int64(sel) - int64(len(fuzzSlots)) - 32 // a dense run around 0
}

// FuzzSlotTable holds the node's slot table against slotModel. Each 4-byte
// op is (kind, realm, slot selector, ballot); it runs through handleAccept,
// handlePrepare (point or Range), recordDecision, Decided, await, WatchRealm
// or SnapshotDecisions and compares the result with the model's. After every
// op the table holds exactly the pages of the slots with a point promise, an
// accepted value or a decision — an extreme slot costs one page, and a wait
// none — the waiter table exactly the awaited slots not yet decided, and at
// the end a node recovered from the WAL holds the same decisions and accepted
// values (a decided slot's value being its decision).
func FuzzSlotTable(f *testing.F) {
	f.Add([]byte{0, 0, 15, 9, 0, 0, 16, 9, 1, 0, 6, 20, 4, 0, 0, 0})
	f.Add([]byte{0, 1, 3, 5, 0, 1, 4, 5, 0, 1, 5, 5, 0, 1, 6, 5, 1, 1, 1, 7, 5, 1, 0, 0})
	f.Add([]byte{0, 2, 13, 3, 0, 2, 15, 3, 0, 0, 17, 3, 2, 2, 13, 0, 3, 2, 14, 0, 2, 2, 14, 0, 6, 0, 0, 0})
	f.Add([]byte{3, 0, 7, 0, 3, 1, 7, 0, 2, 0, 7, 0, 5, 0, 8, 2, 1, 0, 3, 9, 4, 0, 0, 0, 6, 2, 0, 0})
	f.Add([]byte{0, 0, 60, 1, 0, 0, 61, 1, 0, 0, 62, 1, 5, 0, 60, 2, 1, 0, 59, 3, 0, 0, 40, 1, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		nw := net.New(2)
		defer nw.Close()
		wal := storage.NewMem()
		n := StartNodeWithConfig(nw, 0, Config{WAL: wal})
		m := &slotModel{
			promised: map[InstanceID]int64{}, accepted: map[InstanceID]AcceptedVal{},
			leases: map[realmKey]leaseGrant{}, decided: map[InstanceID]Value{},
		}
		type wait struct {
			id InstanceID
			ch <-chan Value
		}
		var waits []wait
		for i := 0; i+4 <= len(ops); i += 4 {
			rk := fuzzRealms[int(ops[i+1])%len(fuzzRealms)]
			id := InstanceID{Space: rk.Space, Realm: rk.Realm, Slot: fuzzSlot(ops[i+2])}
			ballot := int64(ops[i+3])
			val := I64Value(int64(i))
			switch ops[i] % 7 {
			case 0:
				req := AcceptReq{Inst: id, Ballot: ballot, Val: val}
				if got, want := n.handleAccept(req), m.accept(req); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: handleAccept(%+v) = %+v; model %+v", i/4, req, got, want)
				}
			case 1, 5:
				req := PrepareReq{Inst: id, Ballot: ballot, Range: ops[i]%7 == 5}
				if got, want := n.handlePrepare(req), m.prepare(req); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: handlePrepare(%+v) = %+v; model %+v", i/4, req, got, want)
				}
			case 2:
				n.recordDecision(id, val)
				if _, ok := m.decided[id]; !ok {
					m.decided[id] = val
				}
			case 3:
				waits = append(waits, wait{id, n.await(id)})
			case 4:
				if got := n.SnapshotDecisions(); !reflect.DeepEqual(got, m.decided) {
					t.Fatalf("op %d: SnapshotDecisions = %v; model %v", i/4, got, m.decided)
				}
			case 6:
				reported := int64(-1)
				n.WatchRealm(rk.Space, rk.Realm, func(slot int64, _ bool) { reported = slot })
				if want := m.top(rk); reported != want {
					t.Fatalf("op %d: WatchRealm(%v) reported %d; model top %d", i/4, rk, reported, want)
				}
			}
			if v, ok := n.Decided(id); ok != (m.decided[id] != nil) || !v.Equal(m.decided[id]) {
				t.Fatalf("op %d: Decided(%+v) = %v,%v; model %v", i/4, id, v, ok, m.decided[id])
			}
			for _, w := range waits {
				select {
				case v := <-w.ch:
					if want, ok := m.decided[w.id]; !ok || !v.Equal(want) {
						t.Fatalf("op %d: await(%+v) delivered %v; model %v,%v", i/4, w.id, v, want, ok)
					}
				default:
					if _, ok := m.decided[w.id]; ok {
						t.Fatalf("op %d: await(%+v) silent after the decision", i/4, w.id)
					}
				}
			}
			waits = slices.DeleteFunc(waits, func(w wait) bool { _, ok := m.decided[w.id]; return ok })
			st := peek(n, id)
			if want := pagesOf(m.held()); !reflect.DeepEqual(st.pages, want) {
				t.Fatalf("op %d: table holds pages %v; its promised, accepted and decided slots touch %v", i/4, st.pages, want)
			}
			// The waiter table holds the awaited slots still undecided, once
			// per wait, and nothing else.
			waiting := make(map[InstanceID]int)
			for _, w := range waits {
				waiting[w.id]++
			}
			if !reflect.DeepEqual(st.waiting, waiting) {
				t.Fatalf("op %d: waiter table holds %v; the undecided awaits are %v", i/4, st.waiting, waiting)
			}
		}
		// Recovery rebuilds the same tables from the records they appended.
		n.walSync()
		r := StartNodeWithConfig(nw, 1, Config{WAL: wal})
		if got := r.SnapshotDecisions(); !reflect.DeepEqual(got, m.decided) {
			t.Fatalf("recovered decisions %v; model %v", got, m.decided)
		}
		if got, want := peek(r, InstanceID{}).accepted, m.acceptedView(); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered accepted values %v; model %v", got, want)
		}
	})
}

// TestProposeWaitsInWaiterTable follows a waiting Propose through the
// learner's side table: it completes with the decision whether that arrives
// in a decide frame, in the answer to its own prepare (taught instead of
// duelled), or was learnt before the wait began; and whichever way Propose
// returns, shutdown included, it leaves no waiter behind, and no page but
// those of slots it promised, accepted or learnt at.
func TestProposeWaitsInWaiterTable(t *testing.T) {
	scope := groups.NewProcSet(0, 1, 2)
	mkInst := func(slot int64, leader groups.Process) *Instance {
		return &Instance{ID: InstanceID{Space: SpaceTest, Realm: 3, Slot: slot}, Scope: scope,
			Leader: func(groups.Process) groups.Process { return leader }}
	}
	propose := func(n *Node, inst *Instance, v Value) <-chan Value {
		out := make(chan Value, 1)
		go func() {
			got, _ := n.Propose(inst, v)
			out <- got
		}()
		return out
	}
	waitFor := func(t *testing.T, n *Node, id InstanceID) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); peek(n, id).waiting[id] == 0; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("Propose(%+v) never entered the waiter table", id)
			}
		}
	}
	settled := func(t *testing.T, n *Node, id InstanceID, out <-chan Value, want Value) {
		t.Helper()
		var got Value
		select {
		case got = <-out:
		case <-time.After(10 * time.Second):
			t.Fatalf("Propose(%+v) still waiting 10 s after its decision", id)
		}
		if !got.Equal(want) {
			t.Fatalf("Propose(%+v) = %v, want the decision %v", id, got, want)
		}
		if st := peek(n, id); len(st.waiting) != 0 {
			t.Fatalf("waiter table holds %v after the decision", st.waiting)
		}
	}

	t.Run("decide frame", func(t *testing.T) {
		// p1 and p2 never run: p0 waits on p1's lead, then duels alone, and
		// only the decide frame ends it.
		nw := net.New(3)
		defer nw.Close()
		n := StartNode(nw, 0)
		inst, want := mkInst(1, 1), I64Value(41)
		out := propose(n, inst, I64Value(7))
		waitFor(t, n, inst.ID)
		nw.Send(1, 0, wire.TPaxDecide, DecideMsg{Inst: inst.ID, Val: want})
		settled(t, n, inst.ID, out, want)
	})

	t.Run("taught prepare", func(t *testing.T) {
		// p1 learnt the slot before p0 leads it: p0's prepare is answered
		// with the decision.
		nw := net.New(3)
		defer nw.Close()
		n, peer := StartNode(nw, 0), StartNode(nw, 1)
		inst, want := mkInst(2, 0), I64Value(42)
		peer.recordDecision(inst.ID, want)
		settled(t, n, inst.ID, propose(n, inst, I64Value(7)), want)
	})

	t.Run("decided before the wait", func(t *testing.T) {
		nw := net.New(3)
		defer nw.Close()
		n := StartNode(nw, 0)
		inst, want := mkInst(3, 1), I64Value(43)
		n.recordDecision(inst.ID, want)
		if got := <-n.await(inst.ID); !got.Equal(want) {
			t.Fatalf("await of a decided slot delivered %v, want %v", got, want)
		}
		settled(t, n, inst.ID, propose(n, inst, I64Value(7)), want)
	})

	t.Run("shutdown", func(t *testing.T) {
		nw := net.New(3)
		n := StartNode(nw, 0)
		inst := mkInst(4, 1)
		out := propose(n, inst, I64Value(7))
		waitFor(t, n, inst.ID)
		nw.Close()
		if got := <-out; got != nil {
			t.Fatalf("Propose returned %v after shutdown", got)
		}
		// The abandoned Propose may have run a round of its own, whose point
		// promise is state; the wait itself is not.
		if st := peek(n, inst.ID); len(st.waiting) != 0 || !reflect.DeepEqual(st.pages, pagesOf(st.held)) {
			t.Fatalf("an abandoned wait left waiters %v and pages %v; its held slots %v", st.waiting, st.pages, st.held)
		}
	})
}
