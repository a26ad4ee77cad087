package paxos

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
)

// winCluster builds n nodes plus a MultiPaxos instance factory over one
// realm, with a fixed leader sample.
func winCluster(n int, leader groups.Process) (*net.Network, []*Node, func(slot int64) *Instance) {
	return winClusterCounted(n, leader, nil)
}

// winClusterCounted is winCluster with every node counting into c.
func winClusterCounted(n int, leader groups.Process, c *obs.PaxosCounters) (*net.Network, []*Node, func(slot int64) *Instance) {
	nw := net.New(n)
	nodes := make([]*Node, n)
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		nodes[p] = StartNodeWithConfig(nw, groups.Process(p), Config{Counters: c})
		scope = scope.Add(groups.Process(p))
	}
	mkIns := func(slot int64) *Instance {
		return &Instance{
			ID:         InstanceID{Space: SpaceTest, Realm: 9, Slot: slot},
			Scope:      scope,
			Net:        nw,
			Leader:     func(groups.Process) groups.Process { return leader },
			MultiPaxos: true,
		}
	}
	return nw, nodes, mkIns
}

// windowSlots fires slots 1…slots through the leader's window, each slot
// proposing its own number, and waits for every one to decide. On a
// fault-free fabric only the phase deadline ends a round undecided — a host
// too loaded to count the votes within it — and a deadline keeps the lease,
// so such a slot is repaired through the leader's Propose, as replog
// repairs a hole; a lease lost on the way fails the test.
func windowSlots(t *testing.T, leader *Node, mkIns func(slot int64) *Instance, slots int64) {
	t.Helper()
	windowSlotsThen(t, leader, mkIns, slots, nil)
}

// windowSlotsThen is windowSlots calling fired, when it is not nil, right
// after each slot's round is fired.
func windowSlotsThen(t *testing.T, leader *Node, mkIns func(slot int64) *Instance, slots int64, fired func(slot int64)) {
	t.Helper()
	res := make(chan WindowResult, leader.WindowLimit()+1)
	// Never more rounds unread than res has room for: a result occupies the
	// channel until it is read, whether or not its round still holds a slot
	// of the window.
	for next, done := int64(1), int64(0); done < slots; {
		if next <= slots && next-done <= int64(leader.WindowLimit()) && leader.ProposeWindowed(mkIns(next), I64Value(next), res) {
			if fired != nil {
				fired(next)
			}
			next++
			continue
		}
		if r := recvWithin(t, res, "a windowed result"); !r.OK {
			if v, ok := leader.Propose(mkIns(r.Inst.Slot), I64Value(r.Inst.Slot)); !ok || v.I64() != r.Inst.Slot {
				t.Fatalf("slot %d not repaired: %v,%v", r.Inst.Slot, v, ok)
			}
		}
		done++
	}
	if lost := atomic.LoadInt64(&leader.counters.LeasesLost); lost != 0 {
		t.Fatalf("the leader lost its lease %d times on a fault-free fabric", lost)
	}
}

// TestWindowedPipelineDecides: after a lease is installed by one synchronous
// round, a full window of slots fired without waiting decides every slot
// with the proposed value, at the proposer and at a passive learner.
func TestWindowedPipelineDecides(t *testing.T) {
	nw, nodes, mkIns := winCluster(3, 0)
	defer nw.Close()
	if _, ok := nodes[0].Propose(mkIns(0), I64Value(1000)); !ok {
		t.Fatalf("lease-installing propose failed")
	}
	res := make(chan WindowResult, nodes[0].WindowLimit()+1)
	fired := 0
	for s := int64(1); s <= int64(nodes[0].WindowLimit()); s++ {
		if !nodes[0].ProposeWindowed(mkIns(s), I64Value(1000+s), res) {
			break // depth cap under a fast fabric: rounds may resolve as we fire
		}
		fired++
	}
	if fired == 0 {
		t.Fatalf("no windowed round accepted despite a fresh lease")
	}
	for i := 0; i < fired; i++ {
		r := <-res
		if !r.OK {
			t.Fatalf("windowed slot %d failed", r.Inst.Slot)
		}
		if want := 1000 + r.Inst.Slot; r.Val.I64() != want {
			t.Fatalf("slot %d decided %d, want %d", r.Inst.Slot, r.Val.I64(), want)
		}
	}
	// A passive node learns the same prefix (decide broadcasts).
	deadline := time.Now().Add(2 * time.Second)
	for s := int64(0); s <= int64(fired); s++ {
		for {
			if v, ok := nodes[2].Decided(InstanceID{Space: SpaceTest, Realm: 9, Slot: s}); ok {
				if want := 1000 + s; v.I64() != want {
					t.Fatalf("learner: slot %d = %d, want %d", s, v.I64(), want)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("learner never saw slot %d", s)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWindowedRefusesWithoutLeaseOrLeadership: the windowed path is the
// lease fast path only — a non-leader, or a leader with no installed lease,
// must be refused so the caller takes the synchronous (lease-acquiring)
// route instead.
func TestWindowedRefusesWithoutLeaseOrLeadership(t *testing.T) {
	nw, nodes, mkIns := winCluster(3, 0)
	defer nw.Close()
	res := make(chan WindowResult, 1)
	if nodes[1].ProposeWindowed(mkIns(0), I64Value(7), res) {
		t.Fatalf("non-leader fired a windowed round")
	}
	if nodes[0].ProposeWindowed(mkIns(0), I64Value(7), res) {
		t.Fatalf("leaseless leader fired a windowed round")
	}
}

// TestWindowDepthCap: with the quorum unreachable, outstanding rounds pile
// up; the per-realm depth cap must refuse the round after the window fills,
// and every parked round must still deliver exactly one (failed) result —
// the submit loops block on that accounting.
func TestWindowDepthCap(t *testing.T) {
	nw, nodes, mkIns := winCluster(3, 0)
	defer nw.Close()
	if _, ok := nodes[0].Propose(mkIns(0), I64Value(1)); !ok {
		t.Fatalf("lease-installing propose failed")
	}
	nw.Crash(1)
	nw.Crash(2)
	limit := nodes[0].WindowLimit()
	res := make(chan WindowResult, limit+1)
	for s := int64(1); s <= int64(limit); s++ {
		if !nodes[0].ProposeWindowed(mkIns(s), I64Value(s), res) {
			t.Fatalf("slot %d refused below the depth cap", s)
		}
	}
	if nodes[0].ProposeWindowed(mkIns(int64(limit)+1), I64Value(99), res) {
		t.Fatalf("round accepted beyond the depth cap")
	}
	for i := 0; i < limit; i++ {
		select {
		case r := <-res:
			if r.OK {
				t.Fatalf("slot %d decided without a quorum", r.Inst.Slot)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parked round %d never delivered its result", i)
		}
	}
}

// TestWindowedRoundRefusedAtHomeIsCounted: a windowed round refused by the
// leader's own acceptor — a higher promise got there first, the lease is
// stolen — ends where every phase ends: it counts as a failed window round
// and a lost lease, and delivers its one !OK result.
func TestWindowedRoundRefusedAtHomeIsCounted(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	nw, nodes, mkIns := winClusterCounted(3, 0, rec.Paxos())
	defer nw.Close()
	if _, ok := nodes[0].Propose(mkIns(0), I64Value(1)); !ok {
		t.Fatalf("lease-installing propose failed")
	}
	if r := nodes[0].handlePrepare(PrepareReq{Inst: mkIns(1).ID, Ballot: 1 << 40}); !r.OK {
		t.Fatalf("planting the higher promise: %+v", r)
	}
	res := make(chan WindowResult, nodes[0].WindowLimit()+1)
	if !nodes[0].ProposeWindowed(mkIns(1), I64Value(2), res) {
		t.Fatalf("windowed round not fired under a held lease")
	}
	c := rec.Report().Paxos
	if c.WindowFailures != 1 || c.WindowRounds != 1 {
		t.Errorf("window rounds/failures = %d/%d; want 1/1", c.WindowRounds, c.WindowFailures)
	}
	if c.LeasesLost != 1 {
		t.Errorf("leases lost = %d; want 1", c.LeasesLost)
	}
	if r := recvWithin(t, res, "the refused round's result"); r.OK {
		t.Errorf("result = %+v; want !OK", r)
	}
}

// TestLeasedSlotsLeaveNoPointPromise: an accepted ballot is its own promise,
// so the steady state writes one fact per slot. After a lease acquisition and
// 200 windowed slots at n=3, the leader and the realm's voter hold all 201
// accepted values, the non-voter — sent no accept, not even slot 0's —
// holds the 201 decisions, and nobody holds a point promise: the lease is a
// range promise and each accept raises its slot's floor by itself.
func TestLeasedSlotsLeaveNoPointPromise(t *testing.T) {
	c := newThriftCluster(t, 3)
	defer c.nw.Close()
	const slots = 200
	windowSlots(t, c.nodes[0], c.mkIns, slots)
	c.awaitDecisions(t, 2, slots)
	// A slot retried after a deadline on a loaded host went to the whole
	// scope, the non-voter included.
	retried := int(atomic.LoadInt64(&c.counters.ScopeRetries))
	// The voter's vote for the last slots may still be on its way in: wait
	// for it to hold every slot before reading what else it holds.
	deadline := time.Now().Add(5 * time.Second)
	for p, n := range c.nodes {
		for {
			st := peek(n, InstanceID{})
			accepted, promised, held := len(st.accepted), st.promised, len(st.held)
			if promised != 0 {
				t.Fatalf("p%d holds %d point promises beside %d accepted slots; want none", p, promised, accepted)
			}
			if !c.voters.Has(groups.Process(p)) && p != 0 {
				if held != slots+1 || accepted > retried {
					t.Fatalf("non-voter p%d holds %d slots, %d accepted (%d retries); want %d decisions and no vote", p, held, accepted, retried, slots+1)
				}
				break
			}
			if accepted == slots+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("p%d accepted %d slots, want %d", p, accepted, slots+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestLateVotesAreNeitherDropsNorStale: at n=3 a slot asked of the whole
// scope — the lease's full round, a leased slot launched before the voters
// are known — has a third ack that arrives after the quorum. It belongs to a
// decided instance and is nobody's business: a fault-free run of windowed slots followed by a
// waited round counts no stale response, and the report has no column for dropped ones.
func TestLateVotesAreNeitherDropsNorStale(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	nw, nodes, mkIns := winClusterCounted(3, 0, rec.Paxos())
	defer nw.Close()
	if _, ok := nodes[0].Propose(mkIns(0), I64Value(0)); !ok {
		t.Fatalf("lease-installing propose failed")
	}
	const slots = 200
	windowSlots(t, nodes[0], mkIns, slots)
	if v, ok := nodes[0].Propose(mkIns(slots+1), I64Value(slots+1)); !ok || v.I64() != slots+1 {
		t.Fatalf("waited round after the window = %v,%v", v, ok)
	}
	rep := rec.Report()
	if c := rep.Paxos; c.RespStale != 0 || c.WindowRounds != slots || c.FastRounds != 1 {
		t.Errorf("resp_stale/window_rounds/fast_rounds = %d/%d/%d; want 0/%d/1", c.RespStale, c.WindowRounds, c.FastRounds, slots)
	}
	// The one response counter a report has is the stale one.
	var keys map[string]int64
	if js, err := json.Marshal(rep.Paxos); err != nil || json.Unmarshal(js, &keys) != nil {
		t.Fatalf("paxos section does not round-trip through JSON (err %v)", err)
	}
	for k := range keys {
		if strings.HasPrefix(k, "resp_") && k != "resp_stale" {
			t.Errorf("report still has a %s key", k)
		}
	}
}
