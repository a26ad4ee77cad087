package paxos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
)

func cluster(n int, leader groups.Process) (*net.Network, []*Node, *Instance) {
	nw := net.New(n)
	nodes := make([]*Node, n)
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		nodes[p] = StartNode(nw, groups.Process(p))
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

func TestSingleProposerDecides(t *testing.T) {
	nw, nodes, inst := cluster(3, 0)
	defer nw.Close()
	v, ok := nodes[0].Propose(inst, I64Value(42))
	if !ok || v.I64() != 42 {
		t.Fatalf("decide = %d,%v; want 42 (validity)", v.I64(), ok)
	}
	if got, ok := nodes[0].Decided(inst.ID); !ok || got.I64() != 42 {
		t.Fatalf("decision not recorded")
	}
}

// TestAgreementAcrossProposers: every proposer learns the same value.
func TestAgreementAcrossProposers(t *testing.T) {
	nw, nodes, inst := cluster(5, 2)
	defer nw.Close()
	var wg sync.WaitGroup
	results := make([]int64, 5)
	for p := 0; p < 5; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			v, ok := nodes[p].Propose(inst, I64Value(int64(100+p)))
			if !ok {
				t.Errorf("p%d: no decision", p)
				return
			}
			results[p] = v.I64()
		}(p)
	}
	wg.Wait()
	for p := 1; p < 5; p++ {
		if results[p] != results[0] {
			t.Fatalf("agreement violated: %v", results)
		}
	}
	// Validity: the decision is one of the proposals.
	if results[0] < 100 || results[0] > 104 {
		t.Fatalf("decided %d was never proposed", results[0])
	}
}

// TestToleratesMinorityCrash: the leader decides with two of five
// acceptors crashed.
func TestToleratesMinorityCrash(t *testing.T) {
	nw, nodes, inst := cluster(5, 0)
	defer nw.Close()
	nw.Crash(3)
	nw.Crash(4)
	v, ok := nodes[0].Propose(inst, I64Value(7))
	if !ok || v.I64() != 7 {
		t.Fatalf("decide = %d,%v; want 7", v.I64(), ok)
	}
	// Another correct process learns it too.
	v2, ok := nodes[1].Propose(inst, I64Value(99))
	if !ok || v2.I64() != 7 {
		t.Fatalf("late proposer learnt %d, want 7", v2.I64())
	}
}

// TestLeaderChangeStillDecides: Ω first points at a crashed process, then
// stabilises on a correct one; proposals issued under the stabilised
// leader decide.
func TestLeaderChangeStillDecides(t *testing.T) {
	nw := net.New(3)
	defer nw.Close()
	nodes := make([]*Node, 3)
	scope := groups.NewProcSet(0, 1, 2)
	for p := 0; p < 3; p++ {
		nodes[p] = StartNode(nw, groups.Process(p))
	}
	var mu sync.Mutex
	leader := groups.Process(2)
	inst := &Instance{
		ID:    InstanceID{Space: SpaceTest, Realm: 2},
		Scope: scope,
		Net:   nw,
		Leader: func(groups.Process) groups.Process {
			mu.Lock()
			defer mu.Unlock()
			return leader
		},
	}
	nw.Crash(2) // the initial leader is dead
	var wg sync.WaitGroup
	results := make([]int64, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			v, ok := nodes[p].Propose(inst, I64Value(int64(10+p)))
			if ok {
				results[p] = v.I64()
			}
		}(p)
	}
	// Ω stabilises on p0.
	mu.Lock()
	leader = 0
	mu.Unlock()
	wg.Wait()
	if results[0] != results[1] || results[0] == 0 {
		t.Fatalf("agreement after leader change violated: %v", results)
	}
}

// TestSeparateInstancesIndependent: decisions of distinct instances do not
// mix.
func TestSeparateInstancesIndependent(t *testing.T) {
	nw, nodes, inst := cluster(3, 0)
	defer nw.Close()
	inst2 := &Instance{ID: InstanceID{Space: SpaceTest, Realm: 99}, Scope: inst.Scope, Net: nw, Leader: inst.Leader}
	v1, _ := nodes[0].Propose(inst, I64Value(1))
	v2, _ := nodes[0].Propose(inst2, I64Value(2))
	if v1.I64() != 1 || v2.I64() != 2 {
		t.Fatalf("instances interfered: %d, %d", v1.I64(), v2.I64())
	}
}

func TestShutdownUnblocksProposer(t *testing.T) {
	nw, nodes, inst := cluster(3, 0)
	nw.Crash(1)
	nw.Crash(2)
	done := make(chan struct{})
	go func() {
		nodes[0].Propose(inst, I64Value(5)) // no quorum: must unblock at Close
		close(done)
	}()
	nw.Close()
	<-done
}

// TestSameInstanceProposersAtOneNodeAgree: two callers proposing different
// values for one instance at one node share its acceptor, its ballots and
// its phase table. One round at a time holds the instance; the other caller
// is refused, backs off, and learns the decision — both return it.
func TestSameInstanceProposersAtOneNodeAgree(t *testing.T) {
	for i := 0; i < 20; i++ {
		nw, nodes, inst := cluster(3, 0)
		var wg sync.WaitGroup
		got := make([]int64, 2)
		for c := range got {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				v, ok := nodes[0].Propose(inst, I64Value(int64(10+c)))
				if !ok {
					t.Errorf("caller %d: no decision", c)
				}
				got[c] = v.I64()
			}(c)
		}
		wg.Wait()
		nw.Close()
		if got[0] != got[1] || got[0] < 10 || got[0] > 11 {
			t.Fatalf("run %d: callers returned %v; want one proposed value twice", i, got)
		}
	}
}

// TestAcquisitionsOfDistinctRealmsOverlap: after a failover one process
// acquires the lease of every log it now leads. The rounds share nothing
// but the node, so over a fabric with a stated delay per hop four realms'
// first proposals, started together, take about as long as one — not four
// rounds queued behind each other.
func TestAcquisitionsOfDistinctRealmsOverlap(t *testing.T) {
	const hop = 3 * time.Millisecond // a phase's round trip stays inside phaseDeadline
	nw := net.New(3)
	defer nw.Close()
	slow := &tapNet{Transport: nw, onSend: func(from, to groups.Process, mt net.MsgType, body any) bool {
		time.AfterFunc(hop, func() { nw.Send(from, to, mt, body) })
		return false
	}}
	var counters obs.PaxosCounters
	n0 := StartNodeWithConfig(slow, 0, Config{Counters: &counters})
	StartNode(nw, 1)
	StartNode(nw, 2)
	acquire := func(realm uint64) {
		inst := &Instance{
			ID:         InstanceID{Space: SpaceTest, Realm: realm},
			Scope:      scopeOf(3),
			Leader:     func(groups.Process) groups.Process { return 0 },
			MultiPaxos: true,
		}
		if v, ok := n0.Propose(inst, I64Value(int64(realm))); !ok || v.I64() != int64(realm) {
			t.Errorf("realm %d: decide = %v,%v", realm, v, ok)
		}
	}
	// A timing claim on a shared machine: a stall inflates a sample, nothing
	// deflates one, so the claim is made of the best of a few attempts (each
	// on fresh realms). Queued rounds fail every attempt — four is then 4×one
	// by construction.
	var one, four time.Duration
	for attempt := uint64(0); attempt < 5; attempt++ {
		start := time.Now()
		acquire(100 + 10*attempt)
		one = time.Since(start)

		start = time.Now()
		var wg sync.WaitGroup
		for realm := 101 + 10*attempt; realm <= 104+10*attempt; realm++ {
			wg.Add(1)
			go func(realm uint64) {
				defer wg.Done()
				acquire(realm)
			}(realm)
		}
		wg.Wait()
		if four = time.Since(start); four <= 2*one {
			return
		}
	}
	t.Fatalf("four acquisitions took %v, one took %v: they queued instead of overlapping (%+v)", four, one, *obs.Snapshot(&counters))
}
