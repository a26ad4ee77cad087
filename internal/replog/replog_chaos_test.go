package replog

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/paxos"
)

// chaosCluster wires n replicas of one log over the adversarial fabric.
func chaosCluster(n int, seed int64) (*chaos.Chaos, []*Replica) {
	c := chaos.Wrap(net.New(n), seed)
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		scope = scope.Add(groups.Process(p))
	}
	leader := func(groups.Process) groups.Process { return 0 }
	reps := make([]*Replica, n)
	for p := 0; p < n; p++ {
		node := paxos.StartNode(c, groups.Process(p))
		reps[p] = NewReplica("LOG", 1, groups.Process(p), node, c, scope, leader, nil, nil)
	}
	return c, reps
}

// localOrders converts replica snapshots into the per-process delivery
// sequences the spec checkers consume: applying the log's operations in
// slot order *is* this substrate's delivery order.
func localOrders(reps []*Replica) map[groups.Process][]msg.ID {
	out := make(map[groups.Process][]msg.ID, len(reps))
	for p, r := range reps {
		for _, d := range r.Snapshot() {
			out[groups.Process(p)] = append(out[groups.Process(p)], d.Msg)
		}
	}
	return out
}

// assertPairwiseOrder runs the internal/check pairwise-ordering checker
// over the replicas' log orders: if some replica applies a before b, no
// replica may apply b before a.
func assertPairwiseOrder(t *testing.T, reps []*Replica) {
	t.Helper()
	tr := &check.Trace{LocalOrder: localOrders(reps)}
	if v := check.PairwiseOrdering(tr); v != nil {
		t.Fatalf("log order violation: %v", v)
	}
}

// TestChaosConcurrentAppendsAgree: concurrent appends from every replica
// under drops, duplication, delay and reorder still funnel into one
// operation order — agreement comes from consensus, not from the fabric.
func TestChaosConcurrentAppendsAgree(t *testing.T) {
	c, reps := chaosCluster(3, 5)
	defer c.Close()
	c.SetFaults(chaos.Faults{
		Drop: 0.08, Dup: 0.08, DelayMax: 150 * time.Microsecond, Reorder: true,
	})

	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, ok := reps[p].Append(logobj.MsgDatum(msg.ID(10*p + i + 1))).Wait(); !ok {
					t.Errorf("replica %d append %d failed", p, i)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesce, then fence: one more append per replica walks it through
	// every decided slot.
	c.Quiesce()
	for p := 0; p < 3; p++ {
		if _, ok := reps[p].Append(logobj.MsgDatum(msg.ID(100 + p))).Wait(); !ok {
			t.Fatalf("fence append failed at replica %d", p)
		}
	}
	for p := 0; p < 3; p++ {
		reps[p].SyncWait(15, 2*time.Second)
	}
	assertPairwiseOrder(t, reps)
	if got := len(reps[0].Snapshot()); got < 12 {
		t.Fatalf("replica 0 has %d items, want >= 12", got)
	}
	if st := c.Stats(); st.DroppedRandom == 0 && st.Duplicated == 0 {
		t.Fatalf("fault mix injected nothing: %+v", st)
	}
}

// TestChaosPartitionedReplicaBlocksThenCatchesUp: a replica the nemesis
// cuts from every quorum must block — its Σ is gone — while staying safe
// (its log remains a prefix of the cluster's), and after heal it both
// completes its pending append and catches up on everything it missed.
func TestChaosPartitionedReplicaBlocksThenCatchesUp(t *testing.T) {
	c, reps := chaosCluster(5, 6)
	defer c.Close()

	if _, ok := reps[0].Append(logobj.MsgDatum(1)).Wait(); !ok {
		t.Fatalf("seed append failed")
	}
	if !reps[2].SyncWait(1, 2*time.Second) {
		t.Fatalf("replica 2 did not sync the seed append")
	}

	c.Isolate(2)
	blocked := make(chan bool, 1)
	go func() {
		_, ok := reps[2].Append(logobj.MsgDatum(99)).Wait()
		blocked <- ok
	}()
	select {
	case ok := <-blocked:
		t.Fatalf("isolated replica's append returned %v without a quorum", ok)
	case <-time.After(30 * time.Millisecond):
		// Blocked, as it must be.
	}

	// The majority keeps appending; the isolated replica must not see any
	// of it (safety: its log stays a frozen prefix).
	for i := msg.ID(2); i <= 4; i++ {
		if _, ok := reps[0].Append(logobj.MsgDatum(i)).Wait(); !ok {
			t.Fatalf("majority append %d failed", i)
		}
	}
	if got := reps[2].Applied(); got > 1 {
		t.Fatalf("isolated replica applied %d operations while cut off", got)
	}
	assertPairwiseOrder(t, reps)

	c.Heal()
	select {
	case ok := <-blocked:
		if !ok {
			t.Fatalf("pending append failed after heal")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("pending append still blocked after heal")
	}
	// Catch-up: the healed replica reaches the full history (4 majority
	// appends + its own).
	if !reps[2].SyncWait(5, 2*time.Second) {
		t.Fatalf("healed replica did not catch up: applied %d", reps[2].Applied())
	}
	for p := 0; p < 5; p++ {
		reps[p].SyncWait(5, 2*time.Second)
	}
	assertPairwiseOrder(t, reps)
	if reps[2].Pos(logobj.MsgDatum(99)) == 0 {
		t.Fatalf("healed replica lost its own append")
	}
}
