package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/net"
)

// TestLiveFigure1EndToEnd runs Algorithm 1 over the replicated substrate on
// the paper's Figure-1 topology (overlapping groups with a cyclic family)
// and validates the run with the full specification checker: a multicast
// issued at one process travels through replog/paxos over the transport and
// is delivered by every destination member in a globally consistent order.
func TestLiveFigure1EndToEnd(t *testing.T) {
	topo := groups.Figure1()
	pat := failure.NewPattern(topo.NumProcesses())
	nw := net.New(topo.NumProcesses())
	sys := NewSystem(topo, pat, nw, Config{})
	sys.Start()
	defer sys.Stop()

	// One message per group plus a second round on g0 and g2, so the
	// group-sequential gate and the cross-group ordering paths both fire.
	// Figure 1: g0={0,1}, g1={1,2}, g2={0,2,3}, g3={0,3,4}.
	sys.Multicast(0, 0, []byte("a"))
	sys.Multicast(1, 1, []byte("b"))
	sys.Multicast(2, 2, []byte("c"))
	sys.Multicast(3, 3, []byte("d"))
	sys.Multicast(1, 0, []byte("e"))
	sys.Multicast(0, 2, []byte("f"))

	if !sys.AwaitDelivery(60 * time.Second) {
		sys.Stop()
		t.Fatalf("run did not reach full delivery; trace: %+v", sys.Sh.Deliveries())
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
	if got := len(sys.Sh.Deliveries()); got == 0 {
		t.Fatal("no deliveries recorded")
	}
}

// chainTopo is a 7-process chain of three 3-member groups
// (g0={0,1,2}, g1={2,3,4}, g2={4,5,6}): every group keeps a majority after
// one member crashes, so paxos inside each hosting group stays live — the
// quorum-preserving crash schedules below rely on it. (Figure 1 has
// 2-member groups, which tolerate no crash under majorities.)
func chainTopo(t *testing.T) *groups.Topology { return benchChain(t, 3) }

// TestLiveChaosSeeds replays seeded nemesis schedules (drops, duplication,
// delays, partitions, down/up cycles — all derived from the seed, see
// chaos.NewPlan) against the full protocol while one member of each group
// crashes permanently mid-run. Safety must hold over the entire trace —
// every delivery that happened during the chaos is checked — and after the
// plan quiesces every correct destination member must deliver everything.
func TestLiveChaosSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSeed(t, seed)
		})
	}
}

func runChaosSeed(t *testing.T, seed int64) {
	topo := chainTopo(t)
	// Quorum-preserving crashes: one member per group, staggered. Ticks
	// are milliseconds (live's tickEvery), so the crashes land
	// inside the 300ms plan window.
	pat := failure.NewPattern(7).
		WithCrash(1, 120).
		WithCrash(3, 180).
		WithCrash(5, 240)
	c := chaos.Wrap(net.New(7), seed)
	sys := NewSystem(topo, pat, c, Config{})
	sys.Start()
	defer sys.Stop()

	plan := chaos.NewPlan(seed, 7, 300*time.Millisecond)
	nm := &chaos.Nemesis{C: c, Plan: plan}
	nmDone := nm.Go()

	// Multicasts from correct senders only (crashed senders would leave
	// unappended requests with no termination obligation — legal, but not
	// what this test measures), spread across the plan window.
	senders := []struct {
		p groups.Process
		g groups.GroupID
	}{{0, 0}, {2, 1}, {6, 2}, {2, 0}, {4, 1}, {4, 2}}
	i := 0
issue:
	for {
		s := senders[i%len(senders)]
		sys.Multicast(s.p, s.g, []byte{byte(i)})
		i++
		select {
		case <-nmDone:
			break issue
		case <-time.After(35 * time.Millisecond):
		}
	}

	if !sys.AwaitDelivery(90 * time.Second) {
		sys.Stop()
		t.Fatalf("seed %d: no full delivery after quiesce (%d multicasts, %d deliveries, stats %+v)",
			seed, sys.Sh.Reg.Len(), len(sys.Sh.Deliveries()), c.Stats())
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("seed %d: specification violation: %v", seed, v)
	}
}

// TestConcurrentClientsOneSender issues multicasts from several client
// goroutines at the same sender at once. Registration (the append to L_g)
// and the enqueue at the sender's node are two steps, so two clients can
// land in L_g in one order and in the outbox in the other; the node's walk
// over L_g starts at a delivered frontier, and a head that was registered
// before an already delivered message must still be popped, or every later
// request of the sender starves. Full delivery and the specification check
// are the assertion; the race detector covers the unlocked reads of L_g.
func TestConcurrentClientsOneSender(t *testing.T) {
	topo := chainTopo(t)
	nw := net.New(topo.NumProcesses())
	sys := NewSystem(topo, failure.NewPattern(topo.NumProcesses()), nw, Config{})
	sys.Start()
	defer sys.Stop()

	const clients, each = 4, 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Process 2 belongs to g0 and g1: both lists see the race.
				sys.Multicast(2, groups.GroupID(i%2), nil)
			}
		}()
	}
	wg.Wait()
	if !sys.AwaitDelivery(60 * time.Second) {
		sys.Stop()
		t.Fatalf("run did not reach full delivery: %d deliveries", len(sys.Sh.Deliveries()))
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
	if got, want := len(sys.Sh.Deliveries()), clients*each*3; got != want {
		t.Errorf("%d deliveries, want %d", got, want)
	}
}
