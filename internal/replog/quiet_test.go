package replog

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/storage"
	"repro/internal/wire"
)

// tapNet is a transport tap: onSend sees every packet before the fabric does
// and reports whether it may pass.
type tapNet struct {
	net.Transport
	onSend func(from, to groups.Process, t net.MsgType, body any) (pass bool)
}

func (tn *tapNet) Send(from, to groups.Process, t net.MsgType, body any) {
	if tn.onSend(from, to, t, body) {
		tn.Transport.Send(from, to, t, body)
	}
}

// quietCluster wires n replicas of one log, led by p0, over nw; each counts
// into its own block and each node persists to wal(p) when wal is given.
func quietCluster(nw net.Transport, n int, wal func(groups.Process) storage.WAL) ([]*Replica, []*obs.ReplogCounters) {
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		scope = scope.Add(groups.Process(p))
	}
	leader := func(groups.Process) groups.Process { return 0 }
	reps := make([]*Replica, n)
	counts := make([]*obs.ReplogCounters, n)
	for p := 0; p < n; p++ {
		cfg := paxos.Config{}
		if wal != nil {
			cfg.WAL = wal(groups.Process(p))
		}
		node := paxos.StartNodeWithConfig(nw, groups.Process(p), cfg)
		counts[p] = new(obs.ReplogCounters)
		reps[p] = NewReplica("LOG", 1, groups.Process(p), node, nw, scope, leader, counts[p], nil)
	}
	return reps, counts
}

// appendAll appends messages from..to at the leader and waits until every
// replica has applied them.
func appendAll(t *testing.T, reps []*Replica, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if _, ok := reps[0].Append(logobj.MsgDatum(msg.ID(i))).Wait(); !ok {
			t.Fatalf("append %d failed", i)
		}
	}
	for p, r := range reps {
		if !r.SyncWait(to, 5*time.Second) {
			t.Fatalf("replica %d applied %d of %d", p, r.Applied(), to)
		}
	}
}

// hedges and idleProbes read the probe counters of replicas that are running.
func hedges(cs ...*obs.ReplogCounters) (n int64) {
	for _, c := range cs {
		n += atomic.LoadInt64(&c.Hedges)
	}
	return n
}

func idleProbes(c *obs.ReplogCounters) int64 { return atomic.LoadInt64(&c.IdleProbes) }

// slotOf returns the slot a paxos packet is about, -1 for other packets.
func slotOf(body any) int64 {
	switch b := body.(type) {
	case paxos.AcceptReq:
		return b.Inst.Slot
	case paxos.DecideMsg:
		return b.Inst.Slot
	case paxos.LearnReq:
		return b.Inst.Slot
	}
	return -1
}

// TestIdleTailIsQuiet: once a log has gone idle its replicas have no reason
// to believe their frontier slot exists — no vote, no later decision, no op
// of their own — and the tail is quiet: one probe per replica per idleProbe,
// the backstop, and not one hedge. The probe ladder this replaces asked every
// probeCap for ever: 15.6 probes, 31 packets, per replica per second.
func TestIdleTailIsQuiet(t *testing.T) {
	var learns [3]atomic.Int64
	nw := &tapNet{Transport: net.New(3), onSend: func(from, _ groups.Process, mt net.MsgType, _ any) bool {
		if mt == wire.TPaxLearn {
			learns[from].Add(1)
		}
		return true
	}}
	defer nw.Close()
	reps, counts := quietCluster(nw, 3, nil)
	appendAll(t, reps, 1, 5)
	time.Sleep(50 * time.Millisecond) // the last slot's hedges, if any, are out
	var sentBefore [3]int64
	for p := range sentBefore {
		sentBefore[p] = learns[p].Load()
	}
	hedgesBefore := hedges(counts...)

	const window = 2 * idleProbe
	time.Sleep(window)
	for p := range sentBefore {
		// Each probe is one packet to each of the two peers; the window can
		// straddle one probe more than it has whole periods.
		sent := learns[p].Load() - sentBefore[p]
		if max := int64(2 * (window/idleProbe + 1)); sent > max {
			t.Errorf("replica %d sent %d probe packets in %v of silence; want at most %d (one probe per idleProbe)", p, sent, window, max)
		}
		if idleProbes(counts[p]) == 0 {
			t.Errorf("replica %d sent no idle probe in %v: the backstop is not armed", p, window)
		}
	}
	if got := hedges(counts...) - hedgesBefore; got != 0 {
		t.Errorf("%d hedges in silence; want 0: nothing says a slot is missing", got)
	}
}

// TestLostAcceptAndDecideHealWhenIdle: the one loss the evidence rule cannot
// see. The accept and the decide of the last slot are both lost on their way
// to one follower and then the log goes idle: that follower has no vote, no
// gap and no op of its own, so nothing arms a hedge — the idle backstop finds
// the slot, within idleProbe plus a round trip.
func TestLostAcceptAndDecideHealWhenIdle(t *testing.T) {
	var last atomic.Int64
	last.Store(-1)
	nw := &tapNet{Transport: net.New(3), onSend: func(from, to groups.Process, mt net.MsgType, body any) bool {
		lost := to == 2 && from == 0 && (mt == wire.TPaxAccept || mt == wire.TPaxDecide) && slotOf(body) == last.Load()
		return !lost
	}}
	defer nw.Close()
	reps, counts := quietCluster(nw, 3, nil)
	appendAll(t, reps, 1, 4)

	last.Store(int64(reps[0].Slot()))
	if _, ok := reps[0].Append(logobj.MsgDatum(5)).Wait(); !ok {
		t.Fatal("final append failed")
	}
	if !reps[1].SyncWait(5, 5*time.Second) {
		t.Fatal("the follower that lost nothing did not apply the final slot")
	}
	time.Sleep(20 * time.Millisecond) // the leader's decide broadcast has left
	last.Store(-1)                    // the answer to a probe comes from p0 too
	if got := reps[2].Applied(); got != 4 {
		t.Fatalf("replica 2 applied %d ops; want 4: the final slot should be lost on it", got)
	}
	start := time.Now()
	if !reps[2].SyncWait(5, idleProbe+500*time.Millisecond) {
		t.Fatalf("replica 2 did not catch up within idleProbe + a round trip: applied %d", reps[2].Applied())
	}
	t.Logf("healed %v after the loss", time.Since(start))
	if idleProbes(counts[2]) == 0 || hedges(counts[2]) != 0 {
		t.Errorf("replica 2 healed with %d idle probes and %d hedges; want the idle backstop alone", idleProbes(counts[2]), hedges(counts[2]))
	}
}

// TestGapArmsHedge: a decision recorded beyond the frontier is evidence that
// the frontier slot exists. Replica 2 loses everything about slot s and the
// accept of s+1 (its vote would be evidence too); the decide of s+1 gets
// through. It must ask for s after a hedge delay, not wait for the idle
// trickle.
func TestGapArmsHedge(t *testing.T) {
	var gap atomic.Int64
	gap.Store(-1)
	nw := &tapNet{Transport: net.New(3), onSend: func(from, to groups.Process, mt net.MsgType, body any) bool {
		s, g := slotOf(body), gap.Load()
		if g < 0 || to != 2 || from != 0 {
			return true
		}
		lost := (s == g && (mt == wire.TPaxAccept || mt == wire.TPaxDecide)) || (s == g+1 && mt == wire.TPaxAccept)
		return !lost
	}}
	defer nw.Close()
	reps, counts := quietCluster(nw, 3, nil)
	appendAll(t, reps, 1, 4)

	gap.Store(int64(reps[0].Slot()))
	for i := 5; i <= 6; i++ {
		if _, ok := reps[0].Append(logobj.MsgDatum(msg.ID(i))).Wait(); !ok {
			t.Fatalf("append %d failed", i)
		}
	}
	if !reps[1].SyncWait(6, 5*time.Second) {
		t.Fatal("the follower that lost nothing did not apply both slots")
	}
	time.Sleep(5 * time.Millisecond) // the decide broadcasts have left
	gap.Store(-1)                    // the answer to the probe comes from p0 too
	if !reps[2].SyncWait(6, idleProbe/4) {
		t.Fatalf("replica 2 did not close the gap within %v: applied %d — it is waiting for the idle trickle", idleProbe/4, reps[2].Applied())
	}
	if hedges(counts[2]) == 0 || idleProbes(counts[2]) != 0 {
		t.Errorf("replica 2 closed the gap with %d hedges and %d idle probes; want a hedge", hedges(counts[2]), idleProbes(counts[2]))
	}
}

// slowSync is a Mem WAL whose barrier takes a millisecond, like a disk flush.
type slowSync struct{ *storage.Mem }

func (w slowSync) Sync() error {
	time.Sleep(time.Millisecond)
	return w.Mem.Sync()
}

// TestHedgeFollowsObservedInterval: the hedge delay is twice the
// evidence→decision interval the replica has been observing, no less than
// nudgeEvery. On 0.5 ms hops and 1 ms barriers (the benchmark's steady-delay
// set-up) a decision is ≈ 3 ms behind the accept that announces it; the
// fixed ladder probed at 2 ms, for every slot, at every follower. Once the
// estimate has settled, a slot that decides on time draws no probe at all.
// On instant links the interval is microseconds and the first hedge for a
// lost decide stays where it was, nudgeEvery after the vote.
func TestHedgeFollowsObservedInterval(t *testing.T) {
	t.Run("slow links: no probe for a slot that decides on time", func(t *testing.T) {
		c := chaos.Wrap(net.New(3), 1)
		c.SetFaults(chaos.Faults{DelayMin: 500 * time.Microsecond, DelayMax: 500 * time.Microsecond})
		defer c.Close()
		reps, counts := quietCluster(c, 3, func(groups.Process) storage.WAL { return slowSync{storage.NewMem()} })
		next := 1
		window := func(slots int) int64 {
			before := hedges(counts...)
			for end := next + slots; next < end; next++ {
				appendAll(t, reps, next, next)
				time.Sleep(10 * time.Millisecond)
			}
			return hedges(counts...) - before
		}
		settling := window(10)
		for p, r := range reps {
			t.Logf("replica %d: hedge delay %v", p, r.hedgeDelay())
			if d := r.hedgeDelay(); d <= nudgeEvery {
				t.Errorf("replica %d hedges after %v on 0.5 ms hops and 1 ms barriers; want more than nudgeEvery", p, d)
			}
		}
		// The ladder sent three probes or more per slot, 90 per window. On a
		// quiet host the count here is 0; a host busy with other tests makes
		// some slots genuinely late, and hedging for those is the rule
		// working, so the bound is loose and the best of three windows counts.
		const slots, bound = 30, 10
		var got [3]int64
		for w := range got {
			if got[w] = window(slots); got[w] == 0 {
				return
			}
		}
		t.Logf("hedges per window of %d slots: %v (%d while the estimate settled)", slots, got, settling)
		if got[0] >= bound && got[1] >= bound && got[2] >= bound {
			t.Errorf("%v hedges per %d slots; want 0 on a quiet host, under %d on a busy one", got, slots, bound)
		}
	})

	// A leased accept goes to the realm's voter alone (DESIGN.md §8), so
	// which follower sees the lossy slot's accept is the voter's business:
	// the taps below find it from the accepts they see.
	t.Run("instant links: first hedge at nudgeEvery", func(t *testing.T) {
		var (
			lose    atomic.Int64
			mu      sync.Mutex
			voter   = groups.Process(-1) // the follower sent the lossy slot's accept
			voted   time.Time            // when it was sent
			probeAt time.Time            // its first probe for that slot
		)
		lose.Store(-1)
		nw := &tapNet{Transport: net.New(3), onSend: func(from, to groups.Process, mt net.MsgType, body any) bool {
			if s := slotOf(body); s < 0 || s != lose.Load() {
				return true
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case mt == wire.TPaxAccept && to != 0 && voter < 0:
				voter, voted = to, time.Now()
			case mt == wire.TPaxLearn && from == voter && probeAt.IsZero():
				probeAt = time.Now()
			case mt == wire.TPaxDecide && to == voter && probeAt.IsZero():
				return false // the broadcast is lost; the answer to the probe is not
			}
			return true
		}}
		defer nw.Close()
		reps, counts := quietCluster(nw, 3, nil)
		appendAll(t, reps, 1, 8)
		lose.Store(int64(reps[0].Slot()))
		appendAll(t, reps, 9, 9)
		mu.Lock()
		defer mu.Unlock()
		if voter < 0 || probeAt.IsZero() {
			t.Fatalf("no vote or no probe seen for the lossy slot (voter p%d)", voter)
		}
		// Not before nudgeEvery; how long after is this host's timers and
		// whatever else it is running — only it must not be the idle trickle.
		if d := probeAt.Sub(voted); d < nudgeEvery || d > idleProbe/10 {
			t.Errorf("first hedge %v after the vote; want nudgeEvery = %v (hedge delay %v)", d, nudgeEvery, reps[voter].hedgeDelay())
		}
		if idleProbes(counts[voter]) != 0 {
			t.Errorf("%d idle probes; want the hedge alone", idleProbes(counts[voter]))
		}
	})

	// A non-voter is sent no accept, so a lost decide leaves it no evidence
	// that the slot exists: it heals on the next slot's decision, which shows
	// the gap (a hedge, as in TestGapArmsHedge), or — when no slot follows —
	// at idleProbe (TestLostAcceptAndDecideHealWhenIdle). That is the "on
	// evidence, or not for a second" contract of the idle-and-loss suite.
	t.Run("instant links: a non-voter heals on the next slot's gap", func(t *testing.T) {
		var (
			lose   atomic.Int64
			mu     sync.Mutex
			sentTo = make(map[int64]groups.ProcSet) // slot → followers sent its accept
			lossy  = groups.Process(-1)             // the non-voter that lost the decide
		)
		lose.Store(-1)
		nw := &tapNet{Transport: net.New(3), onSend: func(_, to groups.Process, mt net.MsgType, body any) bool {
			s := slotOf(body)
			if s < 0 {
				return true
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case mt == wire.TPaxAccept:
				sentTo[s] = sentTo[s].Add(to)
			case mt == wire.TPaxDecide && s == lose.Load() && to != 0 && !sentTo[s].Has(to) && lossy < 0:
				lossy = to
				return false
			}
			return true
		}}
		defer nw.Close()
		reps, counts := quietCluster(nw, 3, nil)
		// Until the leader has closed a quorum with its own vote in it, its
		// accepts go to the whole scope: append until one went to one follower.
		next := 1
		for settled := false; !settled; next++ {
			if next > 20 {
				t.Fatalf("after %d slots every accept still goes to both followers", next)
			}
			appendAll(t, reps, next, next)
			mu.Lock()
			settled = sentTo[int64(reps[0].Slot()-1)].Count() == 1
			mu.Unlock()
		}
		lose.Store(int64(reps[0].Slot()))
		for _, id := range []int{next, next + 1} {
			if _, ok := reps[0].Append(logobj.MsgDatum(msg.ID(id))).Wait(); !ok {
				t.Fatalf("append %d failed", id)
			}
		}
		mu.Lock()
		p := lossy
		mu.Unlock()
		if p < 0 {
			t.Fatalf("no decide of the lossy slot went to a non-voter")
		}
		if !reps[p].SyncWait(next+1, idleProbe/4) {
			t.Fatalf("non-voter p%d did not heal within %v: applied %d — it is waiting for the idle trickle", p, idleProbe/4, reps[p].Applied())
		}
		if hedges(counts[p]) == 0 || idleProbes(counts[p]) != 0 {
			t.Errorf("non-voter p%d healed with %d hedges and %d idle probes; want a hedge on the gap", p, hedges(counts[p]), idleProbes(counts[p]))
		}
	})
}
