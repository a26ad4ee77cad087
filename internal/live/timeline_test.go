package live

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// benchChain is the benchmark's topology: k overlapping 3-member groups
// g_i = {2i, 2i+1, 2i+2} over 2k+1 processes, no cyclic family.
func benchChain(t *testing.T, k int) *groups.Topology {
	t.Helper()
	topo, err := workload.TopoSpec{Kind: workload.TopoChain, Groups: k}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// slowSyncWAL is a Mem WAL whose every barrier takes a stated millisecond,
// like a disk flush, and is counted when there is a counter.
type slowSyncWAL struct {
	*storage.Mem
	syncs *atomic.Int64
}

func (w slowSyncWAL) Sync() error {
	if w.syncs != nil {
		w.syncs.Add(1)
	}
	time.Sleep(time.Millisecond)
	return w.Mem.Sync()
}

// TestChainTimeline prints the life of single multicasts on steady-delay's
// set-up — chain k=4, 0.5 ms per hop, 1 ms per WAL barrier, so a hop and a
// barrier are each one ≈ 1.1 ms unit on a host with millisecond timers — as
// offsets from the multicast event: the instrument the delivery chain's
// hop-and-barrier count is read off (EXPERIMENTS.md "Stop waiting in line").
// It asserts full delivery and a clean trace only; the timings are for the
// reader.
//
//	go test -run TestChainTimeline -v ./internal/live
func TestChainTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("timeline instrument: 24 warm-up multicasts and 6 spaced 100 ms apart")
	}
	const k, warm, timed = 4, 24, 6
	topo := benchChain(t, k)
	n := topo.NumProcesses()
	c := chaos.Wrap(net.New(n), 1)
	c.SetFaults(chaos.Faults{DelayMin: 500 * time.Microsecond, DelayMax: 500 * time.Microsecond})
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelAll, WallClock: true})
	sys := NewSystem(topo, failure.NewPattern(n), c, Config{
		Opt:     core.Options{Rec: rec},
		Storage: func(groups.Process) storage.WAL { return slowSyncWAL{Mem: storage.NewMem()} },
	})
	sys.Start()
	defer sys.Stop()

	// Warm-up: every group's and pair's log acquires its lease.
	for i := 0; i < warm; i++ {
		g := groups.GroupID(i % k)
		sys.Multicast(groups.Process(2*int(g)+1), g, nil)
		time.Sleep(5 * time.Millisecond)
	}
	if !sys.AwaitDelivery(30 * time.Second) {
		t.Fatalf("warm-up not delivered: %d deliveries", len(sys.Sh.Deliveries()))
	}
	// The multicasts under the lens: p3 to g1 = {p2, p3, p4}; p2 leads g1's
	// logs and sits in g0∩g1, p4 in g1∩g2.
	var lens []msg.ID
	for i := 0; i < timed; i++ {
		lens = append(lens, sys.Multicast(3, 1, nil).ID)
		time.Sleep(100 * time.Millisecond)
	}
	if !sys.AwaitDelivery(30 * time.Second) {
		t.Fatalf("not delivered: %d deliveries", len(sys.Sh.Deliveries()))
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}

	events := rec.Report().Events
	for _, id := range lens {
		var evs []obs.Event
		for _, e := range events {
			if e.M == id {
				evs = append(evs, e)
			}
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Wall < evs[j].Wall })
		if len(evs) == 0 || evs[0].Kind != obs.EvMulticast {
			t.Fatalf("m%d: timeline does not start at its multicast event", id)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "m%d\n", id)
		for _, e := range evs[1:] {
			fmt.Fprintf(&b, "  +%6.2f ms  p%d %-8s", float64(e.Wall-evs[0].Wall)/1e6, e.P, e.Kind)
			switch {
			case e.Kind == obs.EvAppend && logobj.Kind(e.Aux) == logobj.KindMsg:
				fmt.Fprintf(&b, " %s m at %d", logName(e.G, e.H), e.V)
			case e.Kind == obs.EvAppend && logobj.Kind(e.Aux) == logobj.KindPos:
				fmt.Fprintf(&b, " LOG_g%d (m,·,%d)", e.G, e.V)
			case e.Kind == obs.EvAppend:
				fmt.Fprintf(&b, " LOG_g%d (m,g%d) started", e.G, e.H)
			case e.Kind == obs.EvBump:
				fmt.Fprintf(&b, " %s to %d", logName(e.G, e.H), e.V)
			case e.Kind == obs.EvPropose || e.Kind == obs.EvDecide:
				fmt.Fprintf(&b, " %d", e.V)
			}
			b.WriteByte('\n')
		}
		t.Log(b.String())
	}
}

func logName(g, h groups.GroupID) string {
	if g == h {
		return fmt.Sprintf("LOG_g%d", g)
	}
	return fmt.Sprintf("LOG_g%d∩g%d", g, h)
}

// strayCounter counts the replog forwards a transport carries to a process
// that holds no replica of the forwarded log (the realm packs the log's
// canonical pair; its replicas live at g∩h).
type strayCounter struct {
	net.Transport
	topo   *groups.Topology
	strays atomic.Int64
}

func (c *strayCounter) Send(from, to groups.Process, t net.MsgType, body any) {
	if f, ok := body.(replog.FwdBatch); ok && t == wire.TReplogFwd {
		g, h := groups.GroupID(f.Realm>>32), groups.GroupID(uint32(f.Realm))
		if !c.topo.Intersection(g, h).Has(to) {
			c.strays.Add(1)
		}
	}
	c.Transport.Send(from, to, t, body)
}

// TestForwardOnlyToReplicaHosts fences the forwarding target of a pair log:
// LOG_{g∩h} is hosted by the lower group's acceptors but only members of g∩h
// hold a replica, so an Ω_g sample outside g∩h must read as "lead it
// yourself". Handed the raw sample, p2 forwards every LOG_{g0∩g1} op to p0,
// where it is dropped, and proposes it only once its patience runs out.
func TestForwardOnlyToReplicaHosts(t *testing.T) {
	const run = 300 * time.Millisecond
	topo := benchChain(t, 4)
	n := topo.NumProcesses()
	nw := &strayCounter{Transport: net.New(n), topo: topo}
	sys := NewSystem(topo, failure.NewPattern(n), nw, Config{})
	sys.Start()
	defer sys.Stop()
	for i, end := 0, time.Now().Add(run); time.Now().Before(end); i++ {
		g := groups.GroupID(i % 4)
		sys.Multicast(groups.Process(2*int(g)+1), g, nil)
		time.Sleep(10 * time.Millisecond)
	}
	if !sys.AwaitDelivery(30 * time.Second) {
		t.Fatalf("not delivered: %d deliveries", len(sys.Sh.Deliveries()))
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
	if got := nw.strays.Load(); got != 0 {
		t.Errorf("%d forwards went astray: some replica forwarded to a process that hosts no replica of its log", got)
	}
}
