package paxos

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Thrifty accept rounds (DESIGN.md §8): a leased accept goes first to the
// realm's voters — the peers whose votes, with the leader's own, closed the
// realm's last accept quorum — and to the whole scope only when retried.

// thriftCluster is n nodes of one leased realm led by node 0, each on a Mem
// WAL, all behind one tap that counts the packets sent by wire type and
// withholds every accept addressed to a peer in cut. The lease is installed
// at slot 0 by the leader and nodes 1…n/2 alone — the others are cut until
// it is — so the realm's voters are {1, …, n/2}, fixed by event order rather
// than by which ack came first.
type thriftCluster struct {
	nw       *net.Network
	tap      *tapNet
	nodes    []*Node
	wals     []*storage.Mem
	mkIns    func(slot int64) *Instance
	counters *obs.PaxosCounters // the leader's
	sent     [256]atomic.Int64
	cut      atomic.Uint64 // a groups.ProcSet
	voters   groups.ProcSet
}

func newThriftCluster(t *testing.T, n int) *thriftCluster {
	t.Helper()
	c := &thriftCluster{nw: net.New(n), nodes: make([]*Node, n), wals: make([]*storage.Mem, n),
		counters: new(obs.PaxosCounters)}
	for p := 1; p <= n/2; p++ {
		c.voters = c.voters.Add(groups.Process(p))
	}
	c.cut.Store(uint64(scopeOf(n).Remove(0) &^ c.voters))
	c.tap = &tapNet{Transport: c.nw, onSend: func(_, to groups.Process, mt net.MsgType, body any) bool {
		c.sent[mt].Add(1)
		return mt != wire.TPaxAccept || !groups.ProcSet(c.cut.Load()).Has(to)
	}}
	for p := range c.nodes {
		c.wals[p] = storage.NewMem()
		cfg := Config{WAL: c.wals[p]}
		if p == 0 {
			cfg.Counters = c.counters
		}
		c.nodes[p] = StartNodeWithConfig(c.tap, groups.Process(p), cfg)
	}
	c.mkIns = func(slot int64) *Instance {
		return &Instance{
			ID:         InstanceID{Space: SpaceTest, Realm: 9, Slot: slot},
			Scope:      scopeOf(n),
			Net:        c.nw,
			Leader:     func(groups.Process) groups.Process { return 0 },
			MultiPaxos: true,
		}
	}
	if _, ok := c.nodes[0].Propose(c.mkIns(0), I64Value(0)); !ok {
		t.Fatalf("lease-installing propose failed")
	}
	c.cut.Store(0)
	if st := peek(c.nodes[0], c.mkIns(0).ID); !st.known || st.quorum != c.voters {
		t.Fatalf("voters after the lease = %v (known %v); want %v", st.quorum, st.known, c.voters)
	}
	return c
}

// count reads the packets of one wire type sent so far.
func (c *thriftCluster) count(mt net.MsgType) int64 { return c.sent[mt].Load() }

// awaitDecisions waits until node p has learnt every slot 0…last.
func (c *thriftCluster) awaitDecisions(t *testing.T, p int, last int64) map[InstanceID]Value {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := c.nodes[p].SnapshotDecisions()
		if int64(len(got)) >= last+1 {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("p%d learnt %d of %d slots", p, len(got), last+1)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeasedSlotPacketCounts: a fault-free leased slot sends one accept and
// gets one response back per voter — 1/1 at n = 3, 2/2 at n = 5 — and
// decides with a broadcast to every peer: 2 at n = 3, 4 at n = 5. A slot
// whose round missed its deadline on a loaded host is retried to the whole
// scope and counted in scope_retries; the count allows for exactly those.
func TestLeasedSlotPacketCounts(t *testing.T) {
	for _, tc := range []struct{ n, accepts, decides int64 }{{3, 1, 2}, {5, 2, 4}} {
		c := newThriftCluster(t, int(tc.n))
		acc, resp, dec := c.count(wire.TPaxAccept), c.count(wire.TPaxAcceptResp), c.count(wire.TPaxDecide)
		const slots = 100
		windowSlots(t, c.nodes[0], c.mkIns, slots)
		c.awaitDecisions(t, int(tc.n)-1, slots)
		retries := atomic.LoadInt64(&c.counters.ScopeRetries)
		wantAcc := slots*tc.accepts + retries*(tc.n-1)
		// Every accept is answered on a fault-free fabric; the last answers
		// may still be on their way.
		deadline := time.Now().Add(5 * time.Second)
		for c.count(wire.TPaxAcceptResp)-resp < wantAcc && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		gotAcc, gotResp, gotDec := c.count(wire.TPaxAccept)-acc, c.count(wire.TPaxAcceptResp)-resp, c.count(wire.TPaxDecide)-dec
		t.Logf("n=%d: %d slots sent %d accepts, %d responses, %d decides (%d scope retries)", tc.n, slots, gotAcc, gotResp, gotDec, retries)
		if gotAcc != wantAcc || gotResp != wantAcc || gotDec != slots*tc.decides {
			t.Errorf("n=%d: accepts/responses/decides = %d/%d/%d for %d slots with %d retries; want %d/%d/%d",
				tc.n, gotAcc, gotResp, gotDec, slots, retries, wantAcc, wantAcc, slots*tc.decides)
		}
		c.nw.Close()
	}
}

// TestVoterCrashMidWindow: the realm's one voter at n = 3 crashes with a
// window of slots in flight. Every slot still decides, each slot that was
// sent to the dead voter pays one phase deadline and is retried to the whole
// scope, where the other peer answers and becomes the voter — so no more
// than a window's worth of slots is ever retried — the lease survives
// (windowSlotsThen) and no two nodes hold different decisions for a slot.
func TestVoterCrashMidWindow(t *testing.T) {
	c := newThriftCluster(t, 3)
	defer c.nw.Close()
	const slots, crashAt = 120, 40
	leader := c.nodes[0]
	var crashed time.Time
	windowSlotsThen(t, leader, c.mkIns, slots, func(slot int64) {
		if slot == crashAt {
			c.nw.Crash(1)
			crashed = time.Now()
		}
	})
	t.Logf("all %d slots decided %v after the crash", slots, time.Since(crashed))
	if st := peek(leader, c.mkIns(0).ID); st.quorum != groups.ProcSet(0).Add(2) {
		t.Errorf("voters after the crash = %v; want {p2}", st.quorum)
	}
	retries := atomic.LoadInt64(&c.counters.ScopeRetries)
	failures := atomic.LoadInt64(&c.counters.WindowFailures)
	if retries < 1 || retries > window || failures > window {
		t.Errorf("scope retries %d, window failures %d; want 1…%d and at most %d: one deadline per slot sent to the dead voter", retries, failures, window, window)
	}
	at0 := c.awaitDecisions(t, 0, slots)
	at2 := c.awaitDecisions(t, 2, slots)
	for id, v := range at0 {
		if id.Slot > 0 && v.I64() != id.Slot {
			t.Errorf("slot %d decided %d at the leader; want its own value", id.Slot, v.I64())
		}
		if w, ok := at2[id]; !ok || !w.Equal(v) {
			t.Errorf("slot %d: leader decided %d, p2 holds %d (%v)", id.Slot, v.I64(), w.I64(), ok)
		}
	}
	for id, v := range c.nodes[1].SnapshotDecisions() {
		if !at0[id].Equal(v) {
			t.Errorf("slot %d: the crashed voter holds %d, the leader %d", id.Slot, v.I64(), at0[id].I64())
		}
	}
}

// TestPowerCycledNonVoterRecoversDecisions: a non-voter is sent no accept,
// so all it writes for a leased slot is the decision (walDecide). Its loop
// runs no barrier for a phase response; its decisions ride one every
// maxCommitBatch records instead. Power-cycled after 200 slots, it recovers
// from its WAL every decision but the unsynced tail, each equal to the
// leader's, and re-learns the tail on request.
func TestPowerCycledNonVoterRecoversDecisions(t *testing.T) {
	c := newThriftCluster(t, 3)
	defer c.nw.Close()
	const slots = 200
	windowSlots(t, c.nodes[0], c.mkIns, slots)
	want := c.awaitDecisions(t, 0, slots)
	c.awaitDecisions(t, 2, slots)
	retries := atomic.LoadInt64(&c.counters.ScopeRetries)

	c.nw.Crash(2)
	c.wals[2].PowerCycle()
	accepts := 0
	for _, r := range durableRecords(c.wals[2]) {
		if r.Kind == walAccept || r.Kind == walPromise {
			accepts++
		}
	}
	// A leased slot the leader retried went to the whole scope, the
	// non-voter included.
	if int64(accepts) > retries {
		t.Errorf("the non-voter holds %d durable votes with %d scope retries; want at most %d", accepts, retries, retries)
	}
	c.nw.Restart(2)
	n2 := StartNodeWithConfig(c.tap, 2, Config{WAL: c.wals[2]})
	got := n2.SnapshotDecisions()
	t.Logf("recovered %d of %d decisions from the WAL", len(got), slots+1)
	if len(got) < slots+1-(maxCommitBatch-1) {
		t.Errorf("recovered %d decisions; want all but at most %d of %d", len(got), maxCommitBatch-1, slots+1)
	}
	for id, v := range got {
		if !want[id].Equal(v) {
			t.Errorf("slot %d recovered as %d; the leader decided %d", id.Slot, v.I64(), want[id].I64())
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			n2.RequestDecision(scopeOf(3), id)
		}
	}
	c.nodes[2] = n2
	for id, v := range c.awaitDecisions(t, 2, slots) {
		if !want[id].Equal(v) {
			t.Errorf("slot %d re-learnt as %d; the leader decided %d", id.Slot, v.I64(), want[id].I64())
		}
	}
}

// TestScopeRetriesCountRelaunches: a leased slot whose accept reaches no
// voter ends at its deadline, and the slot's retry — the same value at the
// same ballot — goes to the whole scope, decides there and is counted as a
// scope retry, which the report's paxos line names. A fault-free slot counts
// none.
func TestScopeRetriesCountRelaunches(t *testing.T) {
	c := newThriftCluster(t, 3)
	defer c.nw.Close()
	leader := c.nodes[0]
	if v, ok := leader.Propose(c.mkIns(1), I64Value(1)); !ok || v.I64() != 1 {
		t.Fatalf("slot 1 = %v,%v", v, ok)
	}
	if got := atomic.LoadInt64(&c.counters.ScopeRetries); got != 0 {
		t.Fatalf("a fault-free slot counted %d scope retries; want 0", got)
	}

	c.cut.Store(uint64(c.voters))
	res := make(chan WindowResult, leader.WindowLimit()+1)
	if !leader.ProposeWindowed(c.mkIns(2), I64Value(2), res) {
		t.Fatalf("windowed round refused under a held lease")
	}
	if r := recvWithin(t, res, "the round sent to a cut voter"); r.OK {
		t.Fatalf("slot 2 = %+v with its accept withheld from the only voter; want the deadline", r)
	}
	rounds := atomic.LoadInt64(&c.counters.Rounds)
	if v, ok := leader.Propose(c.mkIns(2), I64Value(22)); !ok || v.I64() != 2 {
		t.Fatalf("slot 2 retried = %v,%v; want the pinned value 2", v, ok)
	}
	if got := atomic.LoadInt64(&c.counters.Rounds) - rounds; got != 0 || atomic.LoadInt64(&c.counters.FastRoundFailures) != 0 {
		t.Errorf("the retry took %d full rounds and %d failed leased ones; want it decided by the leased retry itself", got, atomic.LoadInt64(&c.counters.FastRoundFailures))
	}
	c.cut.Store(0)
	if got := atomic.LoadInt64(&c.counters.ScopeRetries); got != 1 {
		t.Errorf("scope retries = %d; want 1", got)
	}
	if st := peek(leader, c.mkIns(2).ID); st.quorum != groups.ProcSet(0).Add(2) {
		t.Errorf("voters after the retry = %v; want {p2}, the peer that answered", st.quorum)
	}
	rep := obs.RunReport{Paxos: obs.Snapshot(c.counters)}
	if line := rep.String(); !strings.Contains(line, "scope_retries=1") {
		t.Errorf("report does not name the retry:\n%s", line)
	}
}
