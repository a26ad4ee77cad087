package paxos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The durability invariant (wal.go) checked by event order, never by timing:
// the leader's WAL barrier is held at a test gate, and the tests observe
// what has and has not happened while it is held.

// barrierCluster is a three-node leased realm whose leader (node 0) runs on
// a tapWAL and behind a transport tap; slot 0 is decided to install the
// lease, by a quorum of the leader and voter, so that a leased accept goes
// to voter alone and nonVoter learns only decisions. held names the peers
// whose accepts the tap currently withholds.
type barrierCluster struct {
	nw              *net.Network
	wal             *tapWAL
	nodes           []*Node
	mkIns           func(slot int64) *Instance
	voter, nonVoter groups.Process

	mu      sync.Mutex
	held    map[groups.Process]bool
	accepts map[int64][]groups.Process // slot → peers an accept left for, in order
	reqs    map[int64]AcceptReq
	replies chan AcceptResp // every accept response node 0 sends
}

func newBarrierCluster(t *testing.T) *barrierCluster {
	t.Helper()
	c := &barrierCluster{
		nw:      net.New(3),
		wal:     newTapWAL(),
		nodes:   make([]*Node, 3),
		held:    make(map[groups.Process]bool),
		accepts: make(map[int64][]groups.Process),
		reqs:    make(map[int64]AcceptReq),
		replies: make(chan AcceptResp, 16), // deeper than any test's probes
	}
	tap := &tapNet{Transport: c.nw, onSend: func(_, to groups.Process, mt net.MsgType, body any) bool {
		if mt == wire.TPaxAcceptResp {
			select {
			case c.replies <- body.(AcceptResp):
			default:
			}
		}
		if mt != wire.TPaxAccept {
			return true
		}
		req := body.(AcceptReq)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.accepts[req.Inst.Slot] = append(c.accepts[req.Inst.Slot], to)
		c.reqs[req.Inst.Slot] = req
		return !c.held[to]
	}}
	c.nodes[0] = StartNodeWithConfig(tap, 0, Config{WAL: c.wal})
	c.nodes[1] = StartNodeWithConfig(c.nw, 1, Config{WAL: storage.NewMem()})
	c.nodes[2] = StartNodeWithConfig(c.nw, 2, Config{WAL: storage.NewMem()})
	c.mkIns = func(slot int64) *Instance {
		return &Instance{
			ID:         InstanceID{Space: SpaceTest, Realm: 9, Slot: slot},
			Scope:      scopeOf(3),
			Net:        c.nw,
			Leader:     func(groups.Process) groups.Process { return 0 },
			MultiPaxos: true,
		}
	}
	// Withholding slot 0's accept from node 2 makes the lease's quorum the
	// leader's own vote and node 1's: the realm's voters, fixed by event
	// order rather than by which ack happens to arrive first.
	c.hold(2, true)
	if _, ok := c.nodes[0].Propose(c.mkIns(0), I64Value(1000)); !ok {
		t.Fatalf("lease-installing propose failed")
	}
	c.hold(2, false)
	st := peek(c.nodes[0], c.mkIns(0).ID)
	if !st.known || st.quorum.Count() != 1 {
		t.Fatalf("voters after the lease = %v (known %v); want one peer", st.quorum, st.known)
	}
	c.voter = st.quorum.Members()[0]
	c.nonVoter = scopeOf(3).Remove(0).Remove(c.voter).Members()[0]
	return c
}

func (c *barrierCluster) hold(p groups.Process, on bool) {
	c.mu.Lock()
	c.held[p] = on
	c.mu.Unlock()
}

func (c *barrierCluster) sentTo(slot int64) []groups.Process {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]groups.Process(nil), c.accepts[slot]...)
}

// fire runs ProposeWindowed for slot on its own goroutine (it returns only
// once the leader's barrier has) and reports its return value on fired.
func (c *barrierCluster) fire(slot int64, res chan WindowResult) (fired chan bool) {
	fired = make(chan bool, 1)
	go func() { fired <- c.nodes[0].ProposeWindowed(c.mkIns(slot), I64Value(1000+slot), res) }()
	return fired
}

// awaitAcks waits until the leader's windowed round for slot has counted
// exactly the given voters — an event (the response was processed), polled.
func (c *barrierCluster) awaitAcks(t *testing.T, slot int64, voters ...groups.Process) {
	t.Helper()
	id := c.mkIns(slot).ID
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := peek(c.nodes[0], id)
		ok := st.round && st.voters.Count() == len(voters)
		for _, p := range voters {
			ok = ok && st.voters.Has(p)
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot %d: round never counted exactly the votes of %v", slot, voters)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestAcceptLeavesBeforeOwnBarrierReturns: persist while the request is on
// the wire — with the leader's barrier held, the accept for the slot has
// already left for the voter, and for nobody else, when the barrier is
// entered, and the voter's ack is counted while the barrier is still held.
// Its vote and the leader's own are the quorum: the slot decides once the
// barrier returns.
func TestAcceptLeavesBeforeOwnBarrierReturns(t *testing.T) {
	c := newBarrierCluster(t)
	defer c.nw.Close()
	release := c.wal.hold()
	res := make(chan WindowResult, c.nodes[0].WindowLimit()+1)
	fired := c.fire(1, res)
	recvWithin(t, c.wal.entered, "the leader's barrier")
	if got := c.sentTo(1); len(got) != 1 || got[0] != c.voter {
		t.Fatalf("barrier entered with accepts sent to %v; want the voter p%d alone, first", got, c.voter)
	}
	c.awaitAcks(t, 1, c.voter)
	select {
	case <-fired:
		t.Fatalf("ProposeWindowed returned while its barrier was held")
	case r := <-res:
		t.Fatalf("slot 1 revealed %+v with the leader's barrier held", r)
	default:
	}
	release()
	if !recvWithin(t, fired, "ProposeWindowed") {
		t.Fatalf("ProposeWindowed refused under a fresh lease")
	}
	if r := recvWithin(t, res, "a decision by the voter and the own vote"); !r.OK || r.Val.I64() != 1001 {
		t.Fatalf("slot 1 = %+v; want 1001", r)
	}
	if got := c.sentTo(1); len(got) != 1 {
		t.Fatalf("slot 1's accepts went to %v; want the voter alone", got)
	}
	select {
	case r := <-res:
		t.Fatalf("second result for one round: %+v", r)
	default:
	}
}

// TestOwnVoteCountsOnlyOnceDurable: with the barrier held and one remote
// ack in, nothing is decided — the local vote is appended, not counted. With
// the voter held, the accept is handed to the non-voter: its ack alone does
// not decide, and the voter's, once its accept is let through, decides with
// the barrier still held (slot 1). Releasing the barrier after the voter's
// ack decides (slot 2).
func TestOwnVoteCountsOnlyOnceDurable(t *testing.T) {
	c := newBarrierCluster(t)
	defer c.nw.Close()
	n0 := c.nodes[0]
	res := make(chan WindowResult, n0.WindowLimit()+1)
	undecided := func(slot int64) {
		t.Helper()
		select {
		case r := <-res:
			t.Fatalf("slot %d revealed %+v on one remote vote plus a non-durable own vote", slot, r)
		default:
		}
		if v, ok := n0.Decided(c.mkIns(slot).ID); ok {
			t.Fatalf("slot %d decided %v on one remote vote plus a non-durable own vote", slot, v)
		}
	}

	c.hold(c.voter, true)
	release := c.wal.hold()
	fired := c.fire(1, res)
	recvWithin(t, c.wal.entered, "the leader's barrier")
	if got := c.sentTo(1); len(got) != 1 || got[0] != c.voter {
		t.Fatalf("slot 1's accepts went to %v; want the voter p%d alone", got, c.voter)
	}
	c.mu.Lock()
	req := c.reqs[1]
	c.mu.Unlock()
	c.nw.Send(0, c.nonVoter, wire.TPaxAccept, req)
	c.awaitAcks(t, 1, c.nonVoter)
	undecided(1)
	// The withheld accept reaches the voter after all: its ack is the second
	// durable vote.
	c.hold(c.voter, false)
	c.nw.Send(0, c.voter, wire.TPaxAccept, req)
	if r := recvWithin(t, res, "a decision by the second remote ack"); !r.OK || r.Val.I64() != 1001 {
		t.Fatalf("slot 1 = %+v; want 1001", r)
	}
	release()
	recvWithin(t, fired, "ProposeWindowed")

	release = c.wal.hold()
	fired = c.fire(2, res)
	recvWithin(t, c.wal.entered, "the leader's barrier")
	c.awaitAcks(t, 2, c.voter)
	undecided(2)
	release()
	if r := recvWithin(t, res, "a decision by the own vote once durable"); !r.OK || r.Val.I64() != 1002 {
		t.Fatalf("slot 2 = %+v; want 1002", r)
	}
	recvWithin(t, fired, "ProposeWindowed")
}

// TestDecisionPaysOneBarrierAtTheLeader: across a decided slot the leader
// runs exactly one barrier — its own vote's — on the windowed path and on
// the waited one; the decide broadcast and the message loop run none.
func TestDecisionPaysOneBarrierAtTheLeader(t *testing.T) {
	c := newBarrierCluster(t)
	defer c.nw.Close()
	n0 := c.nodes[0]
	res := make(chan WindowResult, n0.WindowLimit()+1)

	before := c.wal.syncs.Load()
	if !n0.ProposeWindowed(c.mkIns(1), I64Value(1001), res) {
		t.Fatalf("windowed round refused under a fresh lease")
	}
	if r := recvWithin(t, res, "slot 1"); !r.OK {
		t.Fatalf("slot 1 failed")
	}
	if got := c.wal.syncs.Load() - before; got != 1 {
		t.Fatalf("windowed slot cost %d barriers at the leader; want 1", got)
	}

	before = c.wal.syncs.Load()
	if _, ok := n0.Propose(c.mkIns(2), I64Value(1002)); !ok {
		t.Fatalf("slot 2 failed")
	}
	if got := c.wal.syncs.Load() - before; got != 1 {
		t.Fatalf("leased Propose cost %d barriers at the leader; want 1", got)
	}
}

// TestNoBarrierWithoutAnAppend: a reply that reveals no acceptor transition
// (an already-decided instance, a NACK) and back-to-back walSync calls with
// no append in between never reach storage.
func TestNoBarrierWithoutAnAppend(t *testing.T) {
	c := newBarrierCluster(t)
	defer c.nw.Close()
	n0 := c.nodes[0]
	decided := c.mkIns(0).ID
	n0.walSync() // cover slot 0's decide record
	before := c.wal.syncs.Load()

	// Node 0's replies are read off its transport tap: they have left, so
	// whatever barrier they waited for has run.
	c.nw.Send(1, 0, wire.TPaxAccept, AcceptReq{Inst: decided, Ballot: 7, Val: I64Value(5)})
	if r := recvWithin(t, c.replies, "the decided reply"); !r.Decided || r.DecVal.I64() != 1000 {
		t.Fatalf("reply for a decided instance = %+v", r)
	}
	c.nw.Send(1, 0, wire.TPaxAccept, AcceptReq{Inst: c.mkIns(5).ID, Ballot: 1, Val: I64Value(5)})
	if r := recvWithin(t, c.replies, "the NACK"); r.OK || r.Decided {
		t.Fatalf("accept below the lease ballot = %+v; want a NACK", r)
	}
	n0.walSync()
	n0.walSync()
	if got := c.wal.syncs.Load() - before; got != 0 {
		t.Fatalf("%d barriers reached storage with nothing appended; want 0", got)
	}
}

// TestBallotBlocksAreClaimedAhead: a hundred proposals on fresh single-shot
// instances pay at most one ballot-claim barrier between them, and after a
// power cycle the first ballot on the wire exceeds the durable mark — so
// handing out a block without a barrier never lets an incarnation reuse a
// ballot of the one before.
func TestBallotBlocksAreClaimedAhead(t *testing.T) {
	nw, nodes, inst := walCluster(3, 0)
	defer nw.Close()
	for i := 0; i < 100; i++ {
		one := *inst
		one.ID.Realm = uint64(100 + i)
		if v, ok := nodes[0].Propose(&one, I64Value(int64(i))); !ok || v.I64() != int64(i) {
			t.Fatalf("instance %d: decide = %v,%v", i, v, ok)
		}
	}
	wal := mustMem(t, nodes[0])
	claims := 0
	for _, r := range durableRecords(wal) {
		if r.Kind == walPropose {
			claims++
		}
	}
	if claims != 1 {
		t.Fatalf("100 proposals persisted %d ballot claims; want 1", claims)
	}
	mark := nodes[0].propMax

	nw.Crash(0)
	wal.PowerCycle()
	nw.Restart(0)
	first := make(chan int64, 1)
	tap := &tapNet{Transport: nw, onSend: func(_, _ groups.Process, mt net.MsgType, body any) bool {
		if mt == wire.TPaxPrepare {
			select {
			case first <- body.(PrepareReq).Ballot:
			default:
			}
		}
		return true
	}}
	n0 := StartNodeWithConfig(tap, 0, Config{WAL: wal})
	if n0.propMax != mark {
		t.Fatalf("recovered mark = %d, want %d", n0.propMax, mark)
	}
	one := *inst
	one.ID.Realm = 999
	if _, ok := n0.Propose(&one, I64Value(1)); !ok {
		t.Fatalf("propose after recovery failed")
	}
	if b := recvWithin(t, first, "the recovered proposer's prepare"); b <= mark {
		t.Fatalf("recovered proposer used ballot %d, not above the durable mark %d", b, mark)
	}
}
