package paxos

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
)

// loneNode starts process 0 of a three-process scope whose peers never
// answer: its phases gather only its own vote and what a test counts into
// them by hand.
func loneNode(t *testing.T) (*Node, *obs.PaxosCounters, func(slot int64) Instance) {
	t.Helper()
	nw := net.New(3)
	t.Cleanup(nw.Close)
	c := new(obs.PaxosCounters)
	n := StartNodeWithConfig(nw, 0, Config{Counters: c})
	inst := func(slot int64) Instance {
		return Instance{
			ID:     InstanceID{Space: SpaceTest, Realm: 7, Slot: slot},
			Scope:  scopeOf(3),
			Leader: func(groups.Process) groups.Process { return 0 },
		}
	}
	return n, c, inst
}

// queued is the number of entries in n's deadline queue, stale ones too.
func queued(n *Node) int {
	n.phMu.Lock()
	defer n.phMu.Unlock()
	return len(n.deadlines) - n.dlHead
}

// TestRelaunchedAcceptEndsOnItsOwnDeadline: a full round's prepare ends on a
// quorum while another phase keeps the node's timer armed, so the prepare's
// deadline entry is still queued when the round relaunches its entry as the
// accept. That stale entry falls due first and must not end the accept: only
// the accept's own deadline does, once, and a vote after it reads as late.
func TestRelaunchedAcceptEndsOnItsOwnDeadline(t *testing.T) {
	n, c, mk := loneNode(t)
	// The prepare must still be open when the promise completes it, a few
	// milliseconds after its launch; a host that oversleeps past its
	// deadline gets another try at fresh slots.
	for slot := int64(0); ; slot += 2 {
		if slot == 10 {
			t.Fatal("every try overslept the prepare's deadline")
		}
		if relaunchedAccept(t, n, c, mk(slot), mk(slot+1)) {
			return
		}
	}
}

// relaunchedAccept runs the scenario of TestRelaunchedAcceptEndsOnItsOwnDeadline
// at inst, with other as the phase that stays open, and reports false when
// the prepare expired before the test could complete it.
func relaunchedAccept(t *testing.T, n *Node, c *obs.PaxosCounters, inst, other Instance) bool {
	res := make(chan WindowResult, 1)
	ph := &phase{inst: inst, res: res}
	prepared := time.Now()
	if !n.launch(ph, PrepareReq{Inst: inst.ID, Ballot: 65}) {
		t.Fatal("prepare refused")
	}
	time.Sleep(phaseDeadline / 4)
	// The other phase opens before the prepare ends and stays open past it.
	otherRes := make(chan WindowResult, 1)
	if !n.launch(&phase{inst: other, res: otherRes}, PrepareReq{Inst: other.ID, Ballot: 65}) {
		t.Fatal("other phase refused")
	}
	n.phaseResp(1, true, PrepareResp{Inst: inst.ID, Ballot: 65, OK: true})
	if r := recvWithin(t, res, "prepare result"); !r.OK {
		recvWithin(t, otherRes, "other result")
		return false
	}
	if q := queued(n); q != 2 {
		t.Fatalf("deadline queue holds %d entries before the relaunch, want 2: the prepare's and the other phase's", q)
	}
	accepted := time.Now()
	n.launch(ph, AcceptReq{Inst: inst.ID, Ballot: 65, Val: I64Value(9)})
	r := recvWithin(t, res, "accept result")
	ended := time.Now()
	if r.OK {
		t.Fatalf("accept ended %+v with only its own vote", r)
	}
	if d := ended.Sub(accepted); d < phaseDeadline {
		t.Fatalf("accept ended %v after its launch (%v after the prepare's): the prepare's stale deadline ended it", d, ended.Sub(prepared))
	}
	if r := recvWithin(t, otherRes, "other result"); r.OK {
		t.Fatalf("other phase ended %+v, want its deadline", r)
	}

	// Ended once: no second result comes, and a vote after expiry is late.
	before := atomic.LoadInt64(&c.RespStale)
	n.phaseResp(1, false, AcceptResp{Inst: inst.ID, Ballot: 65, OK: true}.vote())
	if after := atomic.LoadInt64(&c.RespStale); after != before+1 {
		t.Fatalf("a vote after expiry: resp_stale %d → %d, want one more", before, after)
	}
	if _, ok := n.Decided(inst.ID); ok {
		t.Fatal("a late vote decided the slot")
	}
	select {
	case r := <-res:
		t.Fatalf("a second result for the round: %+v", r)
	case <-time.After(2 * phaseDeadline):
	}
	return true
}

// TestIdleNodeHoldsNoDeadlineTimer: once a node's last open phase has ended
// its deadline queue is empty and its timer is disarmed, so a node with no
// round outstanding stays quiet, and no armed timer keeps a stopped node
// reachable.
func TestIdleNodeHoldsNoDeadlineTimer(t *testing.T) {
	nw, nodes, inst := cluster(3, 0)
	defer nw.Close()
	for slot := int64(0); slot < 20; slot++ {
		inst.ID.Slot = slot
		if _, ok := nodes[0].Propose(inst, I64Value(slot)); !ok {
			t.Fatalf("slot %d: no decision", slot)
		}
	}
	n := nodes[0]
	n.phMu.Lock()
	gathering, q := n.gathering, len(n.deadlines)-n.dlHead
	n.phMu.Unlock()
	if gathering != 0 || q != 0 {
		t.Fatalf("after the last round: %d phases open, %d deadlines queued; want none", gathering, q)
	}
	if n.dlTimer.Stop() {
		t.Fatal("the deadline timer is armed with no phase open")
	}
}
