package replog

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/paxos"
	"repro/internal/storage"
)

// pcHarness is a replicated log whose processes can be power-cycled: each
// paxos node writes a Mem WAL, and the chaos power hooks kill -9 a process
// (fence the old incarnation, drop its unsynced WAL tail) and reboot it
// (rebuild node and replica from the durable log).
type pcHarness struct {
	c      *chaos.Chaos
	scope  groups.ProcSet
	leader paxos.LeaderFunc

	mu       sync.Mutex
	wals     []*storage.Mem
	nodes    []*paxos.Node
	reps     []*Replica
	restarts atomic.Int64
}

func newPCHarness(n int, seed int64) *pcHarness {
	h := &pcHarness{
		c:      chaos.Wrap(net.New(n), seed),
		leader: func(groups.Process) groups.Process { return 0 },
		wals:   make([]*storage.Mem, n),
		nodes:  make([]*paxos.Node, n),
		reps:   make([]*Replica, n),
	}
	for p := 0; p < n; p++ {
		h.scope = h.scope.Add(groups.Process(p))
	}
	for p := 0; p < n; p++ {
		h.wals[p] = storage.NewMem()
		h.boot(groups.Process(p))
	}
	h.c.OnPowerCycle(h.powerOff, h.powerOn)
	return h
}

// boot builds process p's node and replica over its WAL (caller holds mu or
// is the single-threaded constructor).
func (h *pcHarness) boot(p groups.Process) {
	node := paxos.StartNodeWithConfig(h.c, p, paxos.Config{WAL: h.wals[p]})
	h.nodes[p] = node
	h.reps[p] = NewReplica("LOG", 1, p, node, h.c, h.scope, h.leader, nil, nil)
}

// powerOff is the kill -9 moment: the endpoint is already crashed (the
// chaos layer does that first); fencing the old incarnation stops its
// leftover proposer goroutines from ever claiming another ballot, and the
// WAL loses everything a real crash would — the unsynced tail.
func (h *pcHarness) powerOff(p groups.Process) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nodes[p].Fence()
	h.wals[p].PowerCycle()
}

// powerOn reboots p: the endpoint is already restarted; the node replays
// the durable log and a fresh replica replays the recovered decided prefix.
func (h *pcHarness) powerOn(p groups.Process) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.boot(p)
	h.restarts.Add(1)
}

// rep returns the current incarnation of p's replica.
func (h *pcHarness) rep(p int) *Replica {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reps[p]
}

// TestPowerCycleDecidedPrefixAgrees runs ten seeded power-cycle schedules
// against a five-replica log under load and asserts, per seed, after every
// process is back up:
//
//	(a) bit-for-bit agreement of the paxos decision maps — any instance two
//	    nodes both decided carries the same value at both, recovered nodes
//	    included;
//	(b) bit-for-bit agreement of the applied-op journals on their common
//	    prefix — recovery rebuilt each applied state machine onto the same
//	    sequence;
//	(c) a CONS_{m,f} decided before the first kill is what every replica's
//	    proposal returns afterwards — consensus read off the log recovers
//	    with the log's WAL, it has no state of its own to lose.
//
// Appends race the outages, so some block on a killed incarnation and never
// return (exactly a client talking to a dead server); the assertions only
// need the fence appends issued after the final reboot to land.
func TestPowerCycleDecidedPrefixAgrees(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPowerCycle(t, seed)
		})
	}
}

func runPowerCycle(t *testing.T, seed int64) {
	const n = 5
	SetJournal(true)
	defer SetJournal(false)
	h := newPCHarness(n, seed)
	defer h.c.Close()

	const consMsg, consFam, consVal = msg.ID(9000), groups.GroupSet(0b11), 5
	if k, ok := propose(h.rep(0), consMsg, consFam, consVal); !ok || k != consVal {
		t.Fatalf("seed %d: pre-kill proposal decided %d,%v, want %d", seed, k, ok, consVal)
	}

	plan := chaos.NewPowerPlan(seed, n, 300*time.Millisecond)
	nm := &chaos.Nemesis{C: h.c, Plan: plan}
	nmDone := nm.Go()

	// Stream appends from every process while the plan runs. The goroutines
	// are fire-and-forget: an append caught on a power-cycled incarnation
	// blocks forever, so nothing here may touch t, and nothing waits on them.
	var landed atomic.Int64
	for p := 0; p < n; p++ {
		go func(p int) {
			for i := 0; i < 8; i++ {
				if _, ok := h.rep(p).Append(logobj.MsgDatum(msg.ID(100*p + i + 1))).Wait(); ok {
					landed.Add(1)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(p)
	}
	<-nmDone

	if h.restarts.Load() == 0 {
		t.Fatalf("plan power-cycled nobody:\n%s", plan)
	}

	// Fence appends: with every process back up these must all land, and
	// completing one walks that replica through every slot decided below it
	// — the recovered replicas' catch-up path.
	fenced := make(chan bool, n)
	for p := 0; p < n; p++ {
		go func(p int) {
			_, ok := h.rep(p).Append(logobj.MsgDatum(msg.ID(1000 + p))).Wait()
			fenced <- ok
		}(p)
	}
	deadline := time.After(60 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case ok := <-fenced:
			if !ok {
				t.Fatalf("seed %d: fence append failed after recovery", seed)
			}
		case <-deadline:
			t.Fatalf("seed %d: fence append still blocked %v after the plan quiesced (restarts=%d, stats=%+v)",
				seed, 60*time.Second, h.restarts.Load(), h.c.Stats())
		}
	}
	if landed.Load() == 0 {
		t.Fatalf("seed %d: no background append landed", seed)
	}

	h.mu.Lock()
	nodes := append([]*paxos.Node(nil), h.nodes...)
	reps := append([]*Replica(nil), h.reps...)
	h.mu.Unlock()

	// (a) Paxos-level agreement, bit-for-bit across recovered nodes.
	snaps := make([]map[paxos.InstanceID]paxos.Value, n)
	for p, node := range nodes {
		snaps[p] = node.SnapshotDecisions()
	}
	for p := range snaps {
		for q := p + 1; q < len(snaps); q++ {
			for inst, v := range snaps[p] {
				if w, ok := snaps[q][inst]; ok && !w.Equal(v) {
					t.Fatalf("seed %d: decided slot changed value across a power cycle: %+v = %x at p%d but %x at p%d",
						seed, inst, v, p, w, q)
				}
			}
		}
	}

	// (b) Applied-log agreement on the common prefix, bit-for-bit: the
	// applied journals, since the replicas may stand at different apply
	// points.
	ref := reps[0].Journal()
	if len(ref) == 0 {
		t.Fatalf("seed %d: p0 journalled no applied op", seed)
	}
	for p := 1; p < n; p++ {
		if err := JournalFork(ref, reps[p].Journal()); err != nil {
			t.Fatalf("seed %d: p0 vs p%d: %v", seed, p, err)
		}
	}
	assertPairwiseOrder(t, reps)

	// (c) The fence walked every replica through the slot that decided.
	for p, r := range reps {
		if k, ok := propose(r, consMsg, consFam, 100+p); !ok || k != consVal {
			t.Errorf("seed %d: replica %d proposes to the pre-kill CONS and gets %d,%v, want %d", seed, p, k, ok, consVal)
		}
	}
}
