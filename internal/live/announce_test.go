package live

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/replog"
)

// TestPeerOpBeforeAnnounce: every daemon registers every message itself (IDs
// are positional), but nothing orders a peer's log op about a message after
// this daemon's MulticastClassed of it. Figure 1 runs as two daemons over one
// fabric, A embodying {p0, p2} and B the rest, and the daemon that does not
// embody a sender announces its message — calls MulticastClassed for it —
// late. A node that applies such an op ingests its group log only up to the
// message it does not know, a Generic pair-log scan that meets one waits,
// and the late call wakes the node.
func TestPeerOpBeforeAnnounce(t *testing.T) {
	generic := core.Options{Variant: core.Generic, Conflict: msg.ClassesConflict}
	t.Run("late-announce", func(t *testing.T) {
		// Every group, both daemons' senders, keyed and commuting messages.
		sched := []struct {
			src   groups.Process
			dst   groups.GroupID
			class msg.Class
		}{
			{0, 0, 1}, {1, 1, msg.ClassFree}, {2, 2, 2}, {3, 3, 1},
			{1, 0, msg.ClassFree}, {0, 2, 1}, {4, 3, msg.ClassFree}, {2, 1, 2},
		}
		for _, opt := range []core.Options{{Variant: core.Vanilla}, generic} {
			t.Run(opt.Variant.String(), func(t *testing.T) {
				a, b := daemonPair(t, opt)
				for _, e := range sched {
					owner, peer := a, b
					if a.Nodes[e.src] == nil {
						owner, peer = b, a
					}
					owner.MulticastClassed(e.src, e.dst, nil, e.class)
					time.Sleep(30 * time.Millisecond)
					peer.MulticastClassed(e.src, e.dst, nil, e.class)
				}
				checkPair(t, a, b)
			})
		}
	})
	t.Run("pair-log", func(t *testing.T) {
		// m1 → g3 = {p0, p3, p4} from p4, which A announces at once; m2, m3 →
		// g2 = {p0, p2, p3} from A, which B announces 200 ms late. One key for
		// all three, so p3 ∈ g2∩g3 scans LOG_{g2∩g3} for m1's predecessors
		// while m2 and m3 may sit there unregistered.
		const key = msg.Class(1)
		for round := 0; round < 10; round++ {
			a, b := daemonPair(t, generic)
			b.MulticastClassed(4, 3, nil, key)
			a.MulticastClassed(4, 3, nil, key)
			a.MulticastClassed(0, 2, nil, key)
			a.MulticastClassed(2, 2, nil, key)
			time.Sleep(200 * time.Millisecond)
			b.MulticastClassed(0, 2, nil, key)
			b.MulticastClassed(2, 2, nil, key)
			checkPair(t, a, b)
		}
	})
	t.Run("batch", func(t *testing.T) {
		// A registers m1 → g2 = {p0, p2, p3}, then m2, m3, m4 while m1 is in
		// flight, so its members let m2..m4 in as one batch (or m1..m4, had
		// A's gate opened later). B, whose p3 is the third member, announces
		// them one by one: p3 ingests LOG_g2 up to the batch head, waits, and
		// delivers the whole batch once m4, its last request, registers.
		replog.SetJournal(true)
		defer replog.SetJournal(false)
		a, b := daemonPair(t, core.Options{})
		for _, src := range []groups.Process{0, 2, 0, 2} {
			a.Multicast(src, 2, nil)
		}
		last := msg.ID(4)
		time.Sleep(100 * time.Millisecond)
		for _, src := range []groups.Process{0, 2, 0} {
			b.Multicast(src, 2, nil)
			time.Sleep(30 * time.Millisecond)
		}
		batches := a.Batches(0, 2)
		head := msg.None
		for h, t := range batches {
			if t == last {
				head = h
			}
		}
		if head == msg.None {
			t.Fatalf("A formed no batch ending at m%d: %v", last, batches)
		}
		for _, d := range b.Sh.Deliveries() {
			if d.M >= head {
				t.Fatalf("p%d delivered m%d of the batch of m%d before m%d registered at B", d.P, d.M, head, last)
			}
		}
		b.Multicast(2, 2, nil)
		checkPair(t, a, b)
		for _, s := range []*System{a, b} {
			for _, err := range s.JournalDiff() {
				t.Error(err)
			}
		}
	})
}

// daemonPair starts Figure 1 as two daemons would run it, in one OS process:
// two Systems over one fabric, a embodying {p0, p2} and b the rest.
func daemonPair(t *testing.T, opt core.Options) (a, b *System) {
	t.Helper()
	topo := groups.Figure1()
	n := topo.NumProcesses()
	nw := net.New(n)
	a = NewSystem(topo, failure.NewPattern(n), nw, Config{Opt: opt, Local: groups.NewProcSet(0, 2)})
	b = NewSystem(topo, failure.NewPattern(n), nw, Config{Opt: opt, Local: groups.NewProcSet(1, 3, 4)})
	t.Cleanup(func() { stopPair(a, b) })
	a.Start()
	b.Start()
	return a, b
}

// stopPair freezes both traces before either System closes the shared
// fabric, so neither records what completes degraded at shutdown.
func stopPair(a, b *System) {
	a.Sh.Freeze()
	b.Sh.Freeze()
	a.Stop()
	b.Stop()
}

// checkPair waits until each daemon has delivered everything at the
// processes it embodies, then checks the merged trace: each System records
// only its own processes' deliveries.
func checkPair(t *testing.T, a, b *System) {
	t.Helper()
	for _, s := range []*System{a, b} {
		if !s.AwaitDelivery(20 * time.Second) {
			t.Fatalf("no full delivery: %d deliveries at A, %d at B", len(a.Sh.Deliveries()), len(b.Sh.Deliveries()))
		}
	}
	stopPair(a, b)
	tr, peer := a.Trace(), b.Trace()
	for p, ids := range peer.LocalOrder {
		tr.LocalOrder[p] = ids
	}
	for m, at := range peer.FirstDelivered {
		if first, ok := tr.FirstDelivered[m]; !ok || at < first {
			tr.FirstDelivered[m] = at
		}
	}
	for _, v := range check.All(tr, false, false, a.Sh.Opt.Variant == core.Generic) {
		t.Errorf("specification violation: %v", v)
	}
}
