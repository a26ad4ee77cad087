package live

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/net"
)

// TestLiveGenericChaosSeeds replays the seeded nemesis schedules against
// the generic variant: ChainUnderPlan's chain at conflict rate 0.3 over 3
// keys (7 in 10 multicasts commute with everything) under drops,
// duplication, delays, partitions and quorum-preserving crashes. Safety is
// the conflict-aware specification — conflicting pairs totally ordered,
// commuting pairs free — and Run's verdict also requires that the run
// exercised the fast path, not just survived it.
func TestLiveGenericChaosSeeds(t *testing.T) { chainSeeds(t, 0.3) }

// TestLiveGenericBurstDelivers is the closed Generic burst amcastbench kept
// as its known-failing probe (core.generic_burst_undelivered): chain k=3,
// 1500 multicasts round-robin over the groups with rotating senders, every
// tenth one keyed and the rest commuting, all submitted at once. A few dozen
// deliveries at the intersection processes used to wedge for as long as one
// waited — in 3 runs of 25, then in every run once the delivery chain got
// shorter — because a sender whose head commuted with an in-flight keyed
// request helped the *next* request of that key into the log beside it (see
// core.TestHelpRespectsThePredecessorsGate for the mechanism). The wedge
// needs one P to be reliable, so the test takes the others away.
func TestLiveGenericBurstDelivers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	count := 1500
	if testing.Short() {
		count = 600
	}
	topo := benchChain(t, 3)
	n := topo.NumProcesses()
	sys := NewSystem(topo, failure.NewPattern(n), net.New(n), Config{Opt: core.Options{
		Variant:  core.Generic,
		Conflict: msg.ClassesConflict,
	}})
	sys.Start()
	defer sys.Stop()
	for i := 0; i < count; i++ {
		g := i % 3
		class := msg.ClassFree
		if i%10 == 0 {
			class = msg.Class(1 + i%3)
		}
		sys.MulticastClassed(groups.Process(2*g+(i/3)%3), groups.GroupID(g), nil, class)
	}
	if !sys.AwaitDelivery(30 * time.Second) {
		sys.Stop()
		t.Fatalf("burst wedged: %d of %d deliveries", len(sys.Sh.Deliveries()), 3*count)
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
}
