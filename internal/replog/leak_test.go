package replog

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/logobj"
	"repro/internal/msg"
)

// TestStoppedClustersAreCollectable: a cluster that ran to shutdown must be
// garbage once the caller drops it. The forwarding mux used to sit in a
// process-global table keyed by paxos node and never pruned, so every
// stopped cluster stayed reachable for the life of the process — mux →
// replicas → logs and queues, node → decided and acceptor maps — and a
// campaign of build-run-Stop rounds ramped by the full retained state of
// each round. The mux now hangs off its node, so there is no table to leak
// from; what the test can observe is the heap after GC, which must not grow
// by a round's worth of state per round.
func TestStoppedClustersAreCollectable(t *testing.T) {
	const rounds, appends = 6, 400
	heapAfter := func() uint64 {
		runtime.GC()
		runtime.GC() // finalizer-freed spans of the first cycle
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var heap [rounds]uint64
	for r := 0; r < rounds; r++ {
		nw, reps := cluster(3)
		for i := 1; i <= appends; i++ {
			if _, ok := reps[0].Append(logobj.Datum{Kind: logobj.KindMsg, Msg: msg.ID(i)}).Wait(); !ok {
				t.Fatalf("round %d: append %d failed", r, i)
			}
		}
		// The cluster is garbage once its goroutines are gone, not when the
		// network closes: a loop still unwinding pins its replica, log and
		// queue. And once the runtime has let go of the last rounds' deadline
		// timers: stopped, they sit in its heap until they would have fired
		// (paxos' phase deadline, 10 ms) and reach the node through their
		// closure. Measured straight after Close, one run in fifty read a
		// round's worth over the slack, at the parent commit too.
		nw.Close()
		for _, rep := range reps {
			rep.node.Wait()
			rep.Wait()
		}
		time.Sleep(25 * time.Millisecond) // two phase deadlines and some
		heap[r] = heapAfter()
	}
	// Round 0 pays for lazily initialised runtime and package state; from
	// round 1 on a leak adds one cluster's worth (≈ 0.5 MB here) per round.
	const slack = 256 << 10
	t.Logf("heap after Stop+GC per round: %v", heap)
	if grown := int64(heap[rounds-1]) - int64(heap[1]); grown > slack {
		t.Fatalf("heap after Stop+GC grows with stopped clusters: %v bytes per round (last − second = %d > %d)", heap, grown, slack)
	}
}
