package live

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/net"
)

// TestAwaitDeliveryWaiterMidStream: a delivery that finds no AwaitDelivery
// waiter registered skips the broadcast, so a waiter that arrives while a
// stream is being delivered must be woken by the rest of it. Each round
// multicasts half a stream and holds p0 inside the OnDeliver of its first
// delivery; the other half is then multicast, which p0 cannot deliver while
// held, so full delivery is still owed when the waiters arrive. p0 is let go
// once they are all registered, and every one of them must see full
// delivery — under -race too, with deliveries at p1 and p2 racing them all
// along.
func TestAwaitDeliveryWaiterMidStream(t *testing.T) {
	const rounds, half, waiters = 20, 30, 3
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	var hold atomic.Bool
	held := make(chan struct{}, 1)
	release := make(chan struct{}, 1)
	sys := NewSystem(topo, failure.NewPattern(3), net.New(3), Config{Opt: core.Options{
		OnDeliver: func(p groups.Process, _ *msg.Message, _ failure.Time) {
			if p == 0 && hold.CompareAndSwap(true, false) {
				held <- struct{}{}
				<-release
			}
		},
	}})
	sys.Start()
	defer sys.Stop()
	multicast := func() {
		for i := 0; i < half; i++ {
			sys.Multicast(groups.Process(i%3), 0, nil)
		}
	}
	for r := 0; r < rounds; r++ {
		hold.Store(true)
		multicast()
		select {
		case <-held:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: p0 delivered nothing", r)
		}
		multicast()
		results := make(chan bool, waiters)
		for w := 0; w < waiters; w++ {
			go func() { results <- sys.AwaitDelivery(10 * time.Second) }()
		}
		for sys.waiters.Load() < waiters {
			time.Sleep(50 * time.Microsecond)
		}
		if sys.Sh.Outstanding() == 0 {
			t.Fatalf("round %d: nothing was owed when the waiters arrived", r)
		}
		release <- struct{}{}
		for w := 0; w < waiters; w++ {
			if !<-results {
				t.Fatalf("round %d: a waiter that arrived mid-stream timed out with %d deliveries owed",
					r, sys.Sh.Outstanding())
			}
		}
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
}
