package live

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
)

// TestLiveGenericChaosSeeds replays the seeded nemesis schedules against
// the generic variant: a mixed load of keyed (conflicting) and ClassFree
// (commuting) multicasts under drops, duplication, delays, partitions and
// quorum-preserving crashes. Safety is the conflict-aware specification —
// conflicting pairs totally ordered, commuting pairs free — and the run
// must actually exercise the fast path, not just survive it.
func TestLiveGenericChaosSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runGenericChaosSeed(t, seed)
		})
	}
}

func runGenericChaosSeed(t *testing.T, seed int64) {
	topo := chainTopo(t)
	pat := failure.NewPattern(7).
		WithCrash(1, 120).
		WithCrash(3, 180).
		WithCrash(5, 240)
	c := chaos.Wrap(net.New(7), seed)
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	sys := NewSystem(topo, pat, c, Config{Opt: core.Options{
		Variant:  core.Generic,
		Conflict: msg.ClassesConflict,
		Rec:      rec,
	}})
	sys.Start()
	defer sys.Stop()

	plan := chaos.NewPlan(seed, 7, 300*time.Millisecond)
	nm := &chaos.Nemesis{C: c, Plan: plan}
	nmDone := nm.Go()

	// Correct senders only, spread over the plan window; 7 in 10 messages
	// commute with everything, the rest land in three keyed classes that
	// order among themselves.
	senders := []struct {
		p groups.Process
		g groups.GroupID
	}{{0, 0}, {2, 1}, {6, 2}, {2, 0}, {4, 1}, {4, 2}}
	i, free := 0, 0
issue:
	for {
		s := senders[i%len(senders)]
		class := msg.ClassFree
		if i%10 >= 7 {
			class = msg.Class(1 + i%3)
		} else {
			free++
		}
		sys.MulticastClassed(s.p, s.g, []byte{byte(i)}, class)
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
	rep := sys.Report()
	if free > 0 && (rep.Conflict == nil || rep.Conflict.FastDeliveries == 0) {
		t.Errorf("seed %d: %d commuting multicasts but no delivery skipped coordination", seed, free)
	}
}

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
