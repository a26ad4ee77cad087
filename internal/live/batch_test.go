package live

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/net"
	"repro/internal/obs"
)

// TestLiveBatchExtents: on the replicated substrate, where the members of a
// group race to let the next request of L_g in — each appending the head
// with the tail of L_g it sees while registrations keep arriving — every
// replica of every group log ends with disjoint extents, contiguous in L_g
// (check.BatchExtents), the run forms batches, and it checks clean.
func TestLiveBatchExtents(t *testing.T) {
	topo := chainTopo(t)
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	sys := NewSystem(topo, failure.NewPattern(topo.NumProcesses()), net.New(topo.NumProcesses()), Config{Opt: core.Options{Rec: rec}})
	sys.Start()
	defer sys.Stop()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		g := groups.GroupID(rng.Intn(topo.NumGroups()))
		members := topo.Group(g).Members()
		sys.Multicast(members[rng.Intn(len(members))], g, nil)
		if i%10 == 9 {
			time.Sleep(time.Millisecond)
		}
	}
	if !sys.AwaitDelivery(30 * time.Second) {
		t.Fatalf("no full delivery: %d deliveries", len(sys.Sh.Deliveries()))
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
	for g := 0; g < topo.NumGroups(); g++ {
		gid := groups.GroupID(g)
		for _, p := range topo.Group(gid).Members() {
			sys.replica(p, core.PairKey{A: gid, B: gid}).Read(func(l *logobj.Log) {
				if _, v := check.BatchExtents(sys.Sh.SeqList(gid), l.Messages(), l.Batch); v != nil {
					t.Errorf("p%d's LOG_g%d: %v", p, g, v)
				}
			})
		}
	}
	sched := rec.Report().Sched
	if sched.Constituents == 0 {
		t.Fatal("a burst of 300 formed no batch")
	}
	t.Logf("%d batches delivered, %.1f requests each", sched.Batches, sched.MeanBatch())
}

// TestAwaitDeliveryOwnedCorrectMembers: AwaitDelivery waits for the owned
// correct members of each destination and for no one else. Group g0 has
// five members; this instance owns four of them, one of which crashes at
// tick 0, so its three live owned members are a paxos majority and the
// count of outstanding (member, message) pairs starts at three per
// multicast and reaches 0 once they have delivered.
func TestAwaitDeliveryOwnedCorrectMembers(t *testing.T) {
	topo := groups.MustNew(5, groups.NewProcSet(0, 1, 2, 3, 4))
	pat := failure.NewPattern(5).WithCrash(3, 0)
	sys := NewSystem(topo, pat, net.New(5), Config{Local: groups.NewProcSet(0, 1, 2, 3)})
	const n = 20
	for i := 0; i < n; i++ {
		sys.Multicast(groups.Process(i%3), 0, nil)
	}
	if got := sys.Sh.Outstanding(); got != 3*n {
		t.Fatalf("%d pairs outstanding before the run, want %d: p3 crashed and p4 is a peer's", got, 3*n)
	}
	sys.Start()
	defer sys.Stop()
	if !sys.AwaitDelivery(20 * time.Second) {
		t.Fatalf("no full delivery: %d pairs outstanding", sys.Sh.Outstanding())
	}
	got := map[groups.Process]int{}
	for _, d := range sys.Sh.Deliveries() {
		got[d.P]++
	}
	for _, p := range []groups.Process{0, 1, 2} {
		if got[p] != n {
			t.Errorf("p%d delivered %d, want %d", p, got[p], n)
		}
	}
	// A registration can only make the predicate false.
	m := sys.Multicast(0, 0, nil)
	if sys.allDelivered() {
		t.Fatalf("m%d registered, and nothing outstanding", m.ID)
	}
	if !sys.AwaitDelivery(20 * time.Second) {
		t.Fatalf("m%d not delivered", m.ID)
	}
}
