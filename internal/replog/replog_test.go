package replog

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/wire"
)

// cluster builds n replicas of one log over a fresh fabric, led by p0; the
// replica of process i counts into counters[i] when there is one.
func cluster(n int, counters ...*obs.ReplogCounters) (*net.Network, []*Replica) {
	nw := net.New(n)
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		scope = scope.Add(groups.Process(p))
	}
	leader := func(groups.Process) groups.Process { return 0 }
	reps := make([]*Replica, n)
	for p := 0; p < n; p++ {
		node := paxos.StartNode(nw, groups.Process(p))
		var c *obs.ReplogCounters
		if p < len(counters) {
			c = counters[p]
		}
		reps[p] = NewReplica("LOG", 1, groups.Process(p), node, nw, scope, leader, c, nil)
	}
	return nw, reps
}

func TestBatchRoundTrip(t *testing.T) {
	f := func(kinds []uint8, m uint16, h uint8, i uint16, k uint16) bool {
		if len(kinds) > maxBatchOps {
			kinds = kinds[:maxBatchOps]
		}
		ops := make([]Op, len(kinds))
		for j, kind := range kinds {
			ops[j] = Op{
				Kind:  opKind(kind%2 + 1),
				Datum: logobj.Datum{Kind: logobj.Kind(kind%3 + 1), Msg: msg.ID(m) + msg.ID(j), H: groups.GroupID(h), I: int(i)},
				K:     int(k),
			}
		}
		got, err := DecodeBatch(EncodeBatch(ops))
		if err != nil || len(got) != len(ops) {
			return false
		}
		for j := range ops {
			if got[j] != ops[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBatchRejectsGarbage: arbitrary bytes yield an error, never a
// panic and never a phantom op list.
func TestDecodeBatchRejectsGarbage(t *testing.T) {
	f := func(b []byte) bool {
		ops, err := DecodeBatch(paxos.Value(b))
		if err != nil {
			return true
		}
		// Whatever decoded must re-encode to a valid value.
		round, err2 := DecodeBatch(EncodeBatch(ops))
		return err2 == nil && len(round) == len(ops)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyBatchIsNoop: the repair path seals holes with empty batches;
// they must round-trip and decode to zero ops.
func TestEmptyBatchIsNoop(t *testing.T) {
	ops, err := DecodeBatch(EncodeBatch(nil))
	if err != nil || len(ops) != 0 {
		t.Fatalf("empty batch decoded to %v, %v", ops, err)
	}
}

// TestReservedOpSlot: an op's last field once carried its message's conflict
// class, and batches a pre-change peer or WAL wrote still hold one there. Such
// a batch decodes to the ops without it, and EncodeBatch writes 0 in the slot.
func TestReservedOpSlot(t *testing.T) {
	ops := []Op{
		{Kind: opAppend, Datum: logobj.MsgDatum(5)},
		{Kind: opBumpAndLock, Datum: logobj.MsgDatum(5), K: 3},
	}
	layout := func(slot uint64) paxos.Value {
		var e wire.Enc
		e.U64(uint64(len(ops)))
		for _, o := range ops {
			e.I64(int64(o.Kind))
			logobj.EncodeDatum(&e, o.Datum)
			e.I64(int64(o.K))
			e.U64(slot)
		}
		return paxos.Value(e.Bytes())
	}
	got, err := DecodeBatch(layout(7))
	if err != nil || len(got) != len(ops) {
		t.Fatalf("a batch with 7 in the slot decoded to %v, %v", got, err)
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Errorf("op %d decoded to %+v, want %+v", i, got[i], ops[i])
		}
	}
	if enc := EncodeBatch(ops); !enc.Equal(layout(0)) {
		t.Errorf("EncodeBatch wrote %x, want %x: the slot holds 0", enc, layout(0))
	}
}

func TestAppendReplicates(t *testing.T) {
	nw, reps := cluster(3)
	defer nw.Close()
	pos, ok := reps[0].Append(logobj.MsgDatum(1)).Wait()
	if !ok || pos != 1 {
		t.Fatalf("append: pos=%d ok=%v", pos, ok)
	}
	pos2, ok := reps[1].Append(logobj.MsgDatum(2)).Wait()
	if !ok || pos2 != 2 {
		t.Fatalf("second append from another replica: pos=%d ok=%v", pos2, ok)
	}
	// Catch-up: replica 2 syncs to the same state.
	if !reps[2].SyncWait(2, time.Second) {
		t.Fatalf("replica 2 did not catch up: %d items", len(reps[2].Snapshot()))
	}
	if got := len(reps[2].Snapshot()); got != 2 {
		t.Fatalf("replica 2 has %d items, want 2", got)
	}
}

func TestBumpAndLockReplicates(t *testing.T) {
	nw, reps := cluster(3)
	defer nw.Close()
	reps[0].Append(logobj.MsgDatum(1)).Wait()
	if pos, ok := reps[1].BumpAndLock(logobj.MsgDatum(1), 7).Wait(); !ok || pos != 7 {
		t.Fatalf("bump = %d, %v, want 7, true", pos, ok)
	}
	if !reps[0].SyncWait(2, time.Second) {
		t.Fatalf("replica 0 did not catch up")
	}
	if got := reps[0].Pos(logobj.MsgDatum(1)); got != 7 {
		t.Fatalf("pos after replicated bump = %d, want 7", got)
	}
	if !reps[0].Locked(logobj.MsgDatum(1)) {
		t.Fatalf("lock not replicated")
	}
}

// TestJournalForkComparesAppliedOps fences the fork check both ways. A
// replica that lags behind a bump its peer applied passes, although the
// item orders of the two log copies differ; a journal with one op applied
// out of order fails.
func TestJournalForkComparesAppliedOps(t *testing.T) {
	SetJournal(true)
	defer SetJournal(false)
	nw, reps := cluster(3)
	defer nw.Close()
	for _, m := range []msg.ID{1, 2} {
		if _, ok := reps[0].Append(logobj.MsgDatum(m)).Wait(); !ok {
			t.Fatalf("append m%d failed", m)
		}
	}
	if !reps[1].SyncWait(2, time.Second) {
		t.Fatalf("replica 1 did not catch up")
	}
	lagJournal, lagItems := reps[1].Journal(), reps[1].Snapshot()
	if pos, ok := reps[0].BumpAndLock(logobj.MsgDatum(1), 7).Wait(); !ok || pos != 7 {
		t.Fatalf("bump = %d, %v, want 7, true", pos, ok)
	}
	full, items := reps[0].Journal(), reps[0].Snapshot()
	if len(full) != 3 || len(lagJournal) != 2 {
		t.Fatalf("journals hold %d and %d ops; want 3 and 2", len(full), len(lagJournal))
	}
	if slices.Equal(items[:len(lagItems)], lagItems) {
		t.Fatalf("the bump left the item order %v as the lagging copy's %v", items, lagItems)
	}
	if err := JournalFork(full, lagJournal); err != nil {
		t.Fatalf("a lagging replica reads as a fork: %v", err)
	}
	swapped := slices.Clone(full)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if JournalFork(full, swapped) == nil || JournalFork(lagJournal, swapped) == nil {
		t.Fatalf("an op applied out of order passes: %+v vs %+v", full, swapped)
	}
}

// TestConcurrentAppendsAgree: replicas appending concurrently converge on
// one operation order, i.e. applied journals that agree on their common
// prefix.
func TestConcurrentAppendsAgree(t *testing.T) {
	SetJournal(true)
	defer SetJournal(false)
	nw, reps := cluster(3)
	defer nw.Close()

	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				reps[p].Append(logobj.MsgDatum(msg.ID(10*p + i + 1))).Wait()
			}
		}(p)
	}
	wg.Wait()
	// Fence: submitting one more operation walks a replica through every
	// earlier slot, so after its fence decides it has applied all 15
	// concurrent appends (decide broadcasts alone may still be in flight).
	for p := 0; p < 3; p++ {
		if _, ok := reps[p].Append(logobj.MsgDatum(msg.ID(100 + p))).Wait(); !ok {
			t.Fatalf("fence append failed at replica %d", p)
		}
	}
	ref := reps[0].Snapshot()
	if len(ref) < 15 {
		t.Fatalf("replica 0 has %d items, want >= 15", len(ref))
	}
	// All replicas agree on the common prefix of the applied operations.
	for p := 1; p < 3; p++ {
		if err := JournalFork(reps[0].Journal(), reps[p].Journal()); err != nil {
			t.Fatalf("replica 0 vs %d: %v", p, err)
		}
	}
}

// TestMinorityCrashKeepsAvailability: two of five replicas crash, the rest
// keep appending.
func TestMinorityCrashKeepsAvailability(t *testing.T) {
	nw, reps := cluster(5)
	defer nw.Close()
	reps[0].Append(logobj.MsgDatum(1)).Wait()
	nw.Crash(3)
	nw.Crash(4)
	pos, ok := reps[1].Append(logobj.MsgDatum(2)).Wait()
	if !ok || pos != 2 {
		t.Fatalf("append after minority crash: pos=%d ok=%v", pos, ok)
	}
}

// TestForwardToLeaderBatches: followers hand their operations to the
// leader's batcher instead of proposing themselves — the leader's replica
// must observe remotely-enqueued ops while every append still completes.
func TestForwardToLeaderBatches(t *testing.T) {
	c := &obs.ReplogCounters{}
	nw, reps := cluster(3, c)
	defer nw.Close()
	var wg sync.WaitGroup
	for p := 1; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, ok := reps[p].Append(logobj.MsgDatum(msg.ID(10*p + i + 1))).Wait(); !ok {
					t.Errorf("append at follower %d failed", p)
				}
			}
		}(p)
	}
	wg.Wait()
	if got := obs.Snapshot(c).RemoteOps; got == 0 {
		t.Fatalf("leader accepted no forwarded ops — followers completed only via the patience fallback")
	}
}

// TestForwardFallbackWhenLeaderDead: with the sampled leader unable to help,
// forwarded ops go nowhere; the patience fallback must still complete them
// from the follower (liveness does not depend on the hint), op after op.
// Unable means crashed, or alive as an acceptor but holding no replica of the
// realm — its node drops the forward like any lost frame.
func TestForwardFallbackWhenLeaderDead(t *testing.T) {
	for _, tc := range []struct {
		name      string
		noReplica bool
	}{
		{name: "crashed"},
		{name: "no replica", noReplica: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := net.New(3)
			defer nw.Close()
			scope := groups.NewProcSet(0, 1, 2)
			leader := func(groups.Process) groups.Process { return 0 }
			reps := make([]*Replica, 3)
			for p := 0; p < 3; p++ {
				node := paxos.StartNode(nw, groups.Process(p))
				if p == 0 && tc.noReplica {
					continue
				}
				reps[p] = NewReplica("LOG", 1, groups.Process(p), node, nw, scope, leader, nil, nil)
			}
			if tc.noReplica {
				// What a peer from before the NACK's removal answers: ignored.
				nw.Send(0, 1, wire.TReplogFwd, FwdBatch{Realm: 1})
			} else {
				nw.Crash(0)
			}
			for want := 1; want <= 2; want++ {
				pos, ok := reps[1].Append(logobj.MsgDatum(msg.ID(want))).Wait()
				if !ok || pos != want {
					t.Fatalf("append %d with no leader to forward to: pos=%d ok=%v", want, pos, ok)
				}
			}
		})
	}
}

// TestIdempotentHelp: two replicas submitting the same append (helping)
// leave a single copy.
func TestIdempotentHelp(t *testing.T) {
	nw, reps := cluster(3)
	defer nw.Close()
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			reps[p].Append(logobj.MsgDatum(1)).Wait()
		}(p)
	}
	wg.Wait()
	reps[2].SyncWait(1, time.Second)
	if got := len(reps[2].Snapshot()); got != 1 {
		t.Fatalf("helping duplicated the datum: %d items", got)
	}
}

// TestBatchHeadFirstAppendWins: two replicas append one message as a batch
// head with different extents. The first append applied wins at every
// replica: one datum, one position, and its extent, whichever replica asks.
func TestBatchHeadFirstAppendWins(t *testing.T) {
	nw, reps := cluster(3)
	defer nw.Close()
	first := logobj.Datum{Kind: logobj.KindMsg, Msg: 1, I: 5}
	second := logobj.Datum{Kind: logobj.KindMsg, Msg: 1, I: 7}
	pos, ok := reps[0].Append(first).Wait()
	if !ok {
		t.Fatal("first append failed")
	}
	if got, ok := reps[1].Append(second).Wait(); !ok || got != pos {
		t.Fatalf("second append = %d,%v, want the first's position %d", got, ok, pos)
	}
	for p, r := range reps {
		if !r.SyncWait(1, time.Second) {
			t.Fatalf("replica %d did not catch up", p)
		}
		var batch msg.ID
		var items int
		r.Read(func(l *logobj.Log) { batch, items = l.Batch(1), len(l.Items()) })
		if batch != 5 || items != 1 || r.Pos(second) != pos {
			t.Errorf("replica %d: Batch(m1) = %d, %d items, m1 at %d; want 5, 1, %d", p, batch, items, r.Pos(second), pos)
		}
	}
}

// TestUndecodableDecisionFailStops: a decided value that is not a batch is
// state corruption. Every replica that meets it stops serving instead of
// panicking: it fails its waiters, refuses further operations and counts
// one fail-stop.
func TestUndecodableDecisionFailStops(t *testing.T) {
	cs := []*obs.ReplogCounters{new(obs.ReplogCounters), new(obs.ReplogCounters), new(obs.ReplogCounters)}
	nw, reps := cluster(3, cs...)
	defer nw.Close()
	garbage := paxos.Value{0xff} // a count whose varint never ends
	if _, err := DecodeBatch(garbage); err == nil {
		t.Fatal("the garbage decodes")
	}
	if v, ok := reps[0].node.Propose(reps[0].mkIns(0), garbage); !ok || !v.Equal(garbage) {
		t.Fatalf("Propose = %v, %v; want the garbage decided", v, ok)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p, c := range cs {
		for atomic.LoadInt64(&c.FailStops) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never fail-stopped on the garbage", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for p, r := range reps {
		r.Sync() // one more pass over the bad slot must not count again
		if _, ok := r.Append(logobj.Datum{Kind: logobj.KindMsg, Msg: 1}).Wait(); ok {
			t.Errorf("replica %d accepted an operation after its fail-stop", p)
		}
		if r.Slot() != 0 {
			t.Errorf("replica %d moved past the bad slot to %d", p, r.Slot())
		}
		if n := atomic.LoadInt64(&cs[p].FailStops); n != 1 {
			t.Errorf("replica %d counted %d fail-stops, want 1", p, n)
		}
	}
}
