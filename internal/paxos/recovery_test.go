package paxos

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/storage"
	"repro/internal/wire"
)

// walCluster is cluster() with a Mem WAL per node, so individual nodes can
// be power-cycled and rebuilt from their logs.
func walCluster(n int, leader groups.Process) (*net.Network, []*Node, *Instance) {
	nw := net.New(n)
	nodes := make([]*Node, n)
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		nodes[p] = StartNodeWithConfig(nw, groups.Process(p), Config{WAL: storage.NewMem()})
		scope = scope.Add(groups.Process(p))
	}
	inst := &Instance{
		ID:     InstanceID{Space: SpaceTest, Realm: 1},
		Scope:  scope,
		Net:    nw,
		Leader: func(groups.Process) groups.Process { return leader },
	}
	return nw, nodes, inst
}

// powerCycle kills node p (transport crash), loses its unsynced WAL tail,
// and rebuilds it from the durable log — the in-process kill -9.
func powerCycle(nw *net.Network, wal *storage.Mem, p groups.Process, cfg Config) *Node {
	nw.Crash(p)
	wal.PowerCycle()
	nw.Restart(p)
	cfg.WAL = wal
	return StartNodeWithConfig(nw, p, cfg)
}

// TestRecoverDecisions: a power-cycled node comes back knowing every
// decision covered by a durability barrier, without re-running any round —
// a single-shot instance's, and those of a leased realm whose slots span
// four pages of the learner's table, carrying values of different lengths
// (the empty one included) encoded one after another into one record
// buffer. (The decide record itself rides the barrier *after* the decision
// — losing the very last one only costs an anti-entropy re-learn — so the
// test runs one more Sync before pulling the plug, as any later traffic
// would.)
func TestRecoverDecisions(t *testing.T) {
	nw, nodes, inst := walCluster(3, 0)
	defer nw.Close()
	v, ok := nodes[0].Propose(inst, I64Value(42))
	if !ok || v.I64() != 42 {
		t.Fatalf("decide = %v,%v; want 42", v, ok)
	}
	want := make(map[InstanceID]Value)
	for slot := int64(0); slot < 3*pageSize+2; slot += 5 {
		leased := &Instance{
			ID:         InstanceID{Space: SpaceLog, Realm: 7, Slot: slot},
			Scope:      inst.Scope,
			Net:        nw,
			Leader:     inst.Leader,
			MultiPaxos: true,
		}
		val := Value(bytes.Repeat([]byte{byte(slot)}, int(slot%23)))
		if got, ok := nodes[0].Propose(leased, val); !ok || !got.Equal(val) {
			t.Fatalf("slot %d: decide = %v,%v; want %v", slot, got, ok, val)
		}
		want[leased.ID] = val
	}
	nodes[0].walSync()
	n0 := powerCycle(nw, mustMem(t, nodes[0]), 0, Config{})
	if got, ok := n0.Decided(inst.ID); !ok || got.I64() != 42 {
		t.Fatalf("recovered node lost the decision: %v,%v", got, ok)
	}
	for id, val := range want {
		if got, ok := n0.Decided(id); !ok || !got.Equal(val) {
			t.Fatalf("recovered slot %d = %v,%v; want %v", id.Slot, got, ok, val)
		}
	}
	if snap := n0.SnapshotDecisions(); len(snap) != len(want)+1 {
		t.Fatalf("recovered %d decisions; want %d", len(snap), len(want)+1)
	}
}

// mustMem digs the Mem WAL back out of a node (test-only).
func mustMem(t *testing.T, n *Node) *storage.Mem {
	t.Helper()
	m, ok := n.wal.(*storage.Mem)
	if !ok {
		t.Fatalf("node has no Mem WAL")
	}
	return m
}

// TestRecoveredPromiseStillBlocks: the acceptor's phase-1 promise survives
// the power cycle — the core of the recovery safety argument. A promise at
// a high ballot is made, the acceptor dies and recovers, and a proposal at
// a lower ballot must still be refused.
func TestRecoveredPromiseStillBlocks(t *testing.T) {
	nw, nodes, inst := walCluster(3, 0)
	defer nw.Close()

	// Plant a high promise directly at node 2's acceptor, through the same
	// handler the wire path uses, and force it durable the way the loop
	// would before replying.
	high := PrepareReq{Inst: inst.ID, Ballot: 1_000_001}
	if r := nodes[2].handlePrepare(high); !r.OK {
		t.Fatalf("high prepare refused: %+v", r)
	}
	nodes[2].walSync()

	n2 := powerCycle(nw, mustMem(t, nodes[2]), 2, Config{})
	if r := n2.handlePrepare(PrepareReq{Inst: inst.ID, Ballot: 500}); r.OK {
		t.Fatalf("recovered acceptor broke its promise: accepted ballot 500 under a promise at 1000001")
	} else if r.Promised != 1_000_001 {
		t.Fatalf("recovered floor = %d, want 1000001", r.Promised)
	}
	if r := n2.handleAccept(AcceptReq{Inst: inst.ID, Ballot: 500, Val: I64Value(7)}); r.OK {
		t.Fatalf("recovered acceptor accepted below its promise floor")
	}
}

// TestAcceptedBallotIsAFloor: the floor rule reads the accepted ballot. An
// acceptor that accepted (inst, b) with no point promise on record refuses a
// prepare and an accept at any b′ < b, reporting b as the floor that beat
// them — and still does after a WAL replay, which restores the accepted
// value and nothing else.
func TestAcceptedBallotIsAFloor(t *testing.T) {
	nw, nodes, inst := walCluster(3, 0)
	defer nw.Close()
	const b = 1_000_001
	fenced := func(n *Node, when string) {
		t.Helper()
		if promised := peek(n, inst.ID).promised; promised != 0 {
			t.Fatalf("%s: %d point promises on record; want none", when, promised)
		}
		if r := n.handlePrepare(PrepareReq{Inst: inst.ID, Ballot: b - 1}); r.OK || r.Promised != b {
			t.Fatalf("%s: prepare below the accepted ballot = %+v; want refused at floor %d", when, r, b)
		}
		if r := n.handleAccept(AcceptReq{Inst: inst.ID, Ballot: b - 1, Val: I64Value(8)}); r.OK || r.Promised != b {
			t.Fatalf("%s: accept below the accepted ballot = %+v; want refused at floor %d", when, r, b)
		}
	}
	if r := nodes[1].handleAccept(AcceptReq{Inst: inst.ID, Ballot: b, Val: I64Value(7)}); !r.OK {
		t.Fatalf("accept refused: %+v", r)
	}
	fenced(nodes[1], "live")
	nodes[1].walSync()
	fenced(powerCycle(nw, mustMem(t, nodes[1]), 1, Config{}), "replayed")
}

// TestRecoveredAcceptSurfacesInPhase1: an accepted value survives recovery
// and is reported to later prepares, so a new proposer adopts it — the
// invariant that keeps a chosen value chosen across crashes. A slot that
// accepted v′ and then learnt the decision v is reported to a Range prepare
// below it as (its ballot, v), live and replayed, and not skipped: the
// grantee must adopt the decision. A WAL holding an accept logged after the
// decision of its slot — which a vote that checked "decided?" before taking
// the acceptor's lock could append — replays to the decision at the later
// ballot.
func TestRecoveredAcceptSurfacesInPhase1(t *testing.T) {
	nw, nodes, inst := walCluster(3, 0)
	defer nw.Close()

	acc := AcceptReq{Inst: inst.ID, Ballot: 65, Val: I64Value(77)}
	if r := nodes[1].handleAccept(acc); !r.OK {
		t.Fatalf("accept refused: %+v", r)
	}
	nodes[1].walSync()

	n1 := powerCycle(nw, mustMem(t, nodes[1]), 1, Config{})
	r := n1.handlePrepare(PrepareReq{Inst: inst.ID, Ballot: 130})
	if !r.OK {
		t.Fatalf("prepare refused: %+v", r)
	}
	if !r.Accepted.Has || r.Accepted.Ballot != 65 || r.Accepted.Val.I64() != 77 {
		t.Fatalf("recovered acceptor lost its accepted value: %+v", r.Accepted)
	}

	// grant asks n for a Range promise from slot 2 at ballot b and wants
	// exactly slot s reported, as (ballot, val).
	s := InstanceID{Space: SpaceLog, Realm: 4, Slot: 5}
	grant := func(n *Node, b, ballot int64, val Value, when string) {
		t.Helper()
		r := n.handlePrepare(PrepareReq{Inst: InstanceID{Space: s.Space, Realm: s.Realm, Slot: 2}, Ballot: b, Range: true})
		want := []SlotVal{{Slot: s.Slot, Ballot: ballot, Val: val}}
		if !r.OK || len(r.Range) != 1 || r.Range[0].Slot != want[0].Slot || r.Range[0].Ballot != ballot || !r.Range[0].Val.Equal(val) {
			t.Fatalf("%s: range grant = %+v; want OK reporting %v", when, r, want)
		}
	}
	decided, other := I64Value(41), I64Value(42)
	if r := nodes[2].handleAccept(AcceptReq{Inst: s, Ballot: 70, Val: other}); !r.OK {
		t.Fatalf("accept refused: %+v", r)
	}
	nodes[2].recordDecision(s, decided)
	grant(nodes[2], 200, 70, decided, "decided after accepting another value")
	nodes[2].walSync()
	grant(powerCycle(nw, mustMem(t, nodes[2]), 2, Config{}), 300, 70, decided, "replayed")

	// The older order: decide, then an accept at a later ballot.
	one := net.New(1)
	defer one.Close()
	wal := storage.NewMem()
	older := StartNodeWithConfig(one, 0, Config{WAL: wal})
	older.recordDecision(s, decided)
	older.mu.Lock()
	older.walVote(walAccept, s, 90, other)
	older.mu.Unlock()
	older.walSync()
	n := StartNodeWithConfig(one, 0, Config{WAL: wal})
	if v, ok := n.Decided(s); !ok || !v.Equal(decided) {
		t.Fatalf("decide-then-accept WAL replays Decided = %v,%v; want %v", v, ok, decided)
	}
	grant(n, 100, 90, decided, "decide-then-accept replayed")
}

// TestRecoveredLeaseGrantStillBlocks: a range promise (Multi-Paxos lease
// grant) is a promise for every covered slot and must be recovered like
// one: after the power cycle, lower-ballot proposals at covered slots are
// still refused.
func TestRecoveredLeaseGrantStillBlocks(t *testing.T) {
	nw, nodes, _ := walCluster(3, 0)
	defer nw.Close()

	base := InstanceID{Space: SpaceLog, Realm: 9, Slot: 5}
	if r := nodes[1].handlePrepare(PrepareReq{Inst: base, Ballot: 10_001, Range: true}); !r.OK {
		t.Fatalf("range prepare refused: %+v", r)
	}
	nodes[1].walSync()

	n1 := powerCycle(nw, mustMem(t, nodes[1]), 1, Config{})
	covered := InstanceID{Space: SpaceLog, Realm: 9, Slot: 42}
	if r := n1.handleAccept(AcceptReq{Inst: covered, Ballot: 9_000, Val: I64Value(1)}); r.OK {
		t.Fatalf("recovered acceptor forgot its range promise: accepted ballot 9000 at a slot leased at 10001")
	}
	// Slots below the grant's fromSlot were never covered and stay open.
	below := InstanceID{Space: SpaceLog, Realm: 9, Slot: 2}
	if r := n1.handleAccept(AcceptReq{Inst: below, Ballot: 9_000, Val: I64Value(1)}); !r.OK {
		t.Fatalf("recovery over-promised: slot below the grant refused: %+v", r)
	}
}

// TestRecoveredProposerNeverReusesABallot: ballots claimed before the crash
// are skipped by the recovered proposer (claimBallot's durable high-water
// mark), so a (slot, ballot) pair can never carry two values across
// incarnations.
func TestRecoveredProposerNeverReusesABallot(t *testing.T) {
	nw, nodes, inst := walCluster(3, 1)
	defer nw.Close()
	v, ok := nodes[1].Propose(inst, I64Value(5))
	if !ok || v.I64() != 5 {
		t.Fatalf("decide = %v,%v", v, ok)
	}
	pre := nodes[1].propMax
	if pre == 0 {
		t.Fatalf("Propose claimed no ballot")
	}
	n1 := powerCycle(nw, mustMem(t, nodes[1]), 1, Config{})
	if n1.propMax != pre {
		t.Fatalf("recovered propMax = %d, want %d", n1.propMax, pre)
	}
	if fl := n1.propRoundFloor(); (fl+1)*64+int64(n1.p)+1 <= pre {
		t.Fatalf("next ballot %d would not clear the pre-crash mark %d", (fl+1)*64+int64(n1.p)+1, pre)
	}
}

// TestRecoveryLivesThroughFullRound: end to end — decide a value, crash a
// quorum member, recover it, and decide a second instance through the
// recovered node. Both decisions agree everywhere.
func TestRecoveryLivesThroughFullRound(t *testing.T) {
	nw, nodes, inst := walCluster(3, 0)
	defer nw.Close()
	if _, ok := nodes[0].Propose(inst, I64Value(1)); !ok {
		t.Fatal("first decide failed")
	}
	nodes[1] = powerCycle(nw, mustMem(t, nodes[1]), 1, Config{})

	inst2 := &Instance{
		ID:     InstanceID{Space: SpaceTest, Realm: 2},
		Scope:  inst.Scope,
		Net:    nw,
		Leader: inst.Leader,
	}
	done := make(chan Value, 1)
	go func() {
		v, _ := nodes[0].Propose(inst2, I64Value(2))
		done <- v
	}()
	select {
	case v := <-done:
		if v.I64() != 2 {
			t.Fatalf("second decide = %v, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second decide hung after recovery")
	}
}

// tapWAL is a Mem WAL double for durability tests: it counts the barriers
// that reach storage and can hold every Sync at a test-held gate, so a test
// decides when a barrier returns (durableRecords reads what it has kept).
type tapWAL struct {
	*storage.Mem
	syncs atomic.Int64

	mu      sync.Mutex
	gate    chan struct{} // non-nil: Sync blocks until it is closed
	entered chan struct{} // one token per Sync that arrives at a held gate
}

func newTapWAL() *tapWAL {
	// Deep enough that no Sync ever blocks on the token instead of the gate.
	return &tapWAL{Mem: storage.NewMem(), entered: make(chan struct{}, 64)}
}

func (w *tapWAL) Sync() error {
	w.syncs.Add(1)
	w.mu.Lock()
	g := w.gate
	w.mu.Unlock()
	if g != nil {
		w.entered <- struct{}{}
		<-g
	}
	return w.Mem.Sync()
}

// hold makes every later Sync block; the returned func releases them.
func (w *tapWAL) hold() (release func()) {
	g := make(chan struct{})
	w.mu.Lock()
	w.gate = g
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		w.gate = nil
		w.mu.Unlock()
		close(g)
	}
}

// durableRecords returns the records a power cycle of m's owner would keep.
func durableRecords(m *storage.Mem) []storage.Record {
	var out []storage.Record
	_ = m.Replay(func(r storage.Record) error { // the callback never fails
		out = append(out, r)
		return nil
	})
	return out
}

// scopeOf is the scope {0, …, n-1}.
func scopeOf(n int) groups.ProcSet {
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		scope = scope.Add(groups.Process(p))
	}
	return scope
}

// tapNet is a transport tap: onSend sees every packet before the fabric
// does and reports whether it may pass.
type tapNet struct {
	net.Transport
	onSend func(from, to groups.Process, t net.MsgType, body any) (pass bool)
}

func (tn *tapNet) Send(from, to groups.Process, t net.MsgType, body any) {
	if tn.onSend == nil || tn.onSend(from, to, t, body) {
		tn.Transport.Send(from, to, t, body)
	}
}

// TestOwnPromiseDurableBeforeAccept: a proposer is its own acceptor, and its
// phase-1 promise counts toward the quorum phase 2 rests on — so it must be
// durable before the first accept leaves. It used not to be: the local
// promise was counted the moment it was appended and the first barrier came
// at decide time, so a power cycle between the two made the recovered
// acceptor forget promise b while Accept(b, v) was in flight; it could then
// promise and accept a lower b', and at n = 3 (phase-1 quorum = self + one
// peer) two values could be chosen. Checked for the point promise of a
// single-shot instance and for the range promise of a lease acquisition.
func TestOwnPromiseDurableBeforeAccept(t *testing.T) {
	for _, multi := range []bool{false, true} {
		nw := net.New(3)
		wal := newTapWAL()
		var (
			mu      sync.Mutex
			seen    bool
			ballot  int64
			durable []storage.Record
		)
		tap := &tapNet{Transport: nw, onSend: func(from, _ groups.Process, mt net.MsgType, body any) bool {
			if from == 0 && mt == wire.TPaxAccept {
				mu.Lock()
				if !seen {
					seen, ballot, durable = true, body.(AcceptReq).Ballot, durableRecords(wal.Mem)
				}
				mu.Unlock()
			}
			return true
		}}
		n0 := StartNodeWithConfig(tap, 0, Config{WAL: wal})
		StartNodeWithConfig(nw, 1, Config{WAL: storage.NewMem()})
		StartNodeWithConfig(nw, 2, Config{WAL: storage.NewMem()})
		inst := &Instance{
			ID:         InstanceID{Space: SpaceTest, Realm: 1},
			Scope:      scopeOf(3),
			Net:        nw,
			Leader:     func(groups.Process) groups.Process { return 0 },
			MultiPaxos: multi,
		}
		if v, ok := n0.Propose(inst, I64Value(9)); !ok || v.I64() != 9 {
			t.Fatalf("multi=%v: decide = %v,%v; want 9", multi, v, ok)
		}
		nw.Close()
		mu.Lock()
		if !seen {
			t.Fatalf("multi=%v: no accept left the proposer", multi)
		}
		found := false
		for _, rec := range durable {
			d := wire.NewDec(rec.Data)
			switch rec.Kind {
			case walPromise:
				found = found || (decInst(d) == inst.ID && d.I64() == ballot)
			case walLease:
				rk := realmKey{Space: d.U8(), Realm: d.U64()}
				from, b := d.I64(), d.I64()
				found = found || (rk == inst.ID.realm() && from <= inst.ID.Slot && b == ballot)
			}
		}
		mu.Unlock()
		if !found {
			t.Fatalf("multi=%v: accept at ballot %d left the proposer before its own promise at that ballot was durable (%d durable records)", multi, ballot, len(durable))
		}
	}
}
