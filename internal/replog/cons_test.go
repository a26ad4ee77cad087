package replog

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
)

// propose is CONS_{m,f}.propose(k) over a replica, the way the live backend
// spells it: append the proposal, read the decision back.
func propose(r *Replica, m msg.ID, f groups.GroupSet, k int) (int, bool) {
	if _, ok := r.Append(logobj.ConsDatum(m, f, k)).Wait(); !ok {
		return 0, false
	}
	var ok bool
	r.Read(func(l *logobj.Log) { k, ok = l.Decided(m, f) })
	return k, ok
}

// proposeEverywhere has every replica propose its own value to CONS_{m,f}
// at once and returns the one value they must all get back.
func proposeEverywhere(t *testing.T, reps []*Replica, m msg.ID, f groups.GroupSet) int {
	t.Helper()
	got := make([]int, len(reps))
	var wg sync.WaitGroup
	for p := range reps {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k, ok := propose(reps[p], m, f, 10+p)
			if !ok {
				t.Errorf("replica %d: proposal to CONS_{m%d,f%b} did not complete", p, m, f)
			}
			got[p] = k
		}(p)
	}
	wg.Wait()
	for p := range got {
		if got[p] != got[0] || got[p] < 10 || got[p] >= 10+len(reps) {
			t.Fatalf("CONS_{m%d,f%b} decided %v: want one proposed value at every replica", m, f, got)
		}
	}
	return got[0]
}

// TestConsFirstProposalWins: replicas proposing different values to one
// CONS_{m,f} at the same time all read back the same one, a later proposal
// reads it too, and another family of the message decides on its own.
func TestConsFirstProposalWins(t *testing.T) {
	nw, reps := cluster(3)
	defer nw.Close()
	won := proposeEverywhere(t, reps, 5, 0b11)
	if k, ok := propose(reps[2], 5, 0b11, 99); !ok || k != won {
		t.Fatalf("late proposal read %d,%v, the decision is %d", k, ok, won)
	}
	if k, ok := propose(reps[1], 5, 0b101, 42); !ok || k != 42 {
		t.Fatalf("another family of the message decided %d,%v, want its own first proposal 42", k, ok)
	}
}

// TestChaosConsFirstProposalWins is the same agreement under drops,
// duplication, delay and reorder, where forwards are lost and followers fall
// back to proposing their own slots.
func TestChaosConsFirstProposalWins(t *testing.T) {
	c, reps := chaosCluster(3, 11)
	defer c.Close()
	c.SetFaults(chaos.Faults{Drop: 0.08, Dup: 0.08, DelayMax: 150 * time.Microsecond, Reorder: true})
	for m := msg.ID(1); m <= 6; m++ {
		proposeEverywhere(t, reps, m, 0b11)
	}
	c.Quiesce()
	if st := c.Stats(); st.DroppedRandom == 0 && st.Duplicated == 0 {
		t.Fatalf("fault mix injected nothing: %+v", st)
	}
}

// TestConsRedundantForwardCostsNoSlot: a follower that proposed before it
// learnt the decision forwards a proposal the leader's copy has already
// settled. The leader drops it instead of spending a slot on a no-op, and
// the follower's waiter still completes — on the decision, not on its own
// datum, which never enters the log.
func TestConsRedundantForwardCostsNoSlot(t *testing.T) {
	SetJournal(true)
	defer SetJournal(false)
	nw, reps := cluster(3)
	defer nw.Close()
	if k, ok := propose(reps[0], 5, 0b11, 7); !ok || k != 7 {
		t.Fatalf("leader's proposal decided %d,%v", k, ok)
	}
	// The follower's proposal as it stands when it was enqueued before the
	// deciding slot applied here: past the read-only exit, in the queue. Its
	// patience is held open so that only the forwarding path can serve it —
	// on a slow machine the follower would otherwise propose it itself.
	follower := reps[1]
	follower.mu.Lock()
	late := follower.enqueueLocked(Op{Kind: opAppend, Datum: logobj.ConsDatum(5, 0b11, 9)})
	late.w.enq = time.Now().Add(time.Hour)
	follower.mu.Unlock()
	// Completion is judged at the next apply; an unrelated op provides one.
	if _, ok := reps[0].Append(logobj.MsgDatum(1)).Wait(); !ok {
		t.Fatal("leader append failed")
	}
	if pos, ok := late.Wait(); !ok || pos != 0 {
		t.Fatalf("redundant proposal completed %d,%v, want position 0 (it lost) and ok", pos, ok)
	}
	if k, ok := propose(follower, 5, 0b11, 9); !ok || k != 7 {
		t.Fatalf("follower reads %d,%v, the decision is 7", k, ok)
	}
	cons := 0
	for _, e := range reps[0].Journal() {
		if e.Op.Datum.Kind == logobj.KindCons {
			cons++
		}
	}
	if cons != 1 {
		t.Errorf("the log's slot stream carries %d proposals for one decision, want 1", cons)
	}
}
