package chaos_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/groups"
	"repro/internal/net"
)

// TestNemesisInjectsFaults sanity-checks that generated plans actually
// exercise the fabric: the run must have dropped, delayed or duplicated
// something.
func TestNemesisInjectsFaults(t *testing.T) {
	c := chaos.Wrap(net.New(3), 4)
	defer c.Close()
	nm := &chaos.Nemesis{C: c, Plan: chaos.NewPlan(4, 3, 40*time.Millisecond)}
	done := nm.Go()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				c.Broadcast(0, groups.NewProcSet(0, 1, 2), net.MsgType(0xF4), 1)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	// Drain inboxes so the inner network does not overflow.
	var drained sync.WaitGroup
	for p := 0; p < 3; p++ {
		p := p
		drained.Add(1)
		go func() {
			defer drained.Done()
			for range c.Inbox(groups.Process(p)) {
			}
		}()
	}
	<-done
	close(stop)
	st := c.Stats()
	if st.Dropped()+st.Delayed+st.Duplicated == 0 {
		t.Fatalf("nemesis plan injected nothing: %+v\n%s", st, nm.Plan)
	}
	c.Close()
	drained.Wait()
}
