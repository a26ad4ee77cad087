package paxos

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/storage"
)

// BenchmarkAcceptRound measures one leased slot through Propose: the leader
// holds a Multi-Paxos lease over the realm, so each call is a single accept
// quorum round plus the decide broadcast, launched and waited for — what a
// replog repair and a lease-less caller's later slots pay. The first
// iteration pays the lease acquisition (a full round); all others are
// phase-1-elided.
func BenchmarkAcceptRound(b *testing.B) {
	benchAcceptRound(b, func() storage.WAL { return nil })
}

// BenchmarkWindowedRound is the same slot the way a serving run decides it
// (every round of a fault-free loadsim row but one lease acquisition per
// log): ProposeWindowed fires the leased accept round and the result is read
// off the caller's channel.
func BenchmarkWindowedRound(b *testing.B) { benchWindowedRound(b, 0) }

// BenchmarkWindowedRoundDeep is BenchmarkWindowedRound after 50 000 slots
// of the realm have decided at every node: a slot's cost must not grow with
// the realm's history, so the two read the same ns/op and allocs/op (the
// paxos twin of core's TestGuardVisitsDoNotGrowWithHistory).
func BenchmarkWindowedRoundDeep(b *testing.B) { benchWindowedRound(b, 50_000) }

// benchWindowedRound decides history windowed slots after the lease
// acquisition, untimed, then times b.N more, one at a time.
func benchWindowedRound(b *testing.B, history int64) {
	nw, nodes, mkIns := winCluster(3, 0)
	defer nw.Close()
	leader := nodes[0]
	if _, ok := leader.Propose(mkIns(0), I64Value(0)); !ok {
		b.Fatalf("lease-installing propose failed")
	}
	res := make(chan WindowResult, leader.WindowLimit()+1)
	// At one P a GC mark phase over a heap this size can hold the processor
	// past the phase deadline, so an untimed history round may end undecided.
	// It is repaired through Propose, as replog repairs a hole.
	for next, done := int64(1), int64(0); done < history; {
		if next <= history && next-done <= int64(leader.WindowLimit()) && leader.ProposeWindowed(mkIns(next), I64Value(next), res) {
			next++
			continue
		}
		if r := <-res; !r.OK {
			if _, ok := leader.Propose(mkIns(r.Inst.Slot), I64Value(r.Inst.Slot)); !ok {
				b.Fatalf("history slot %d not repaired", r.Inst.Slot)
			}
		}
		done++
	}
	// Collected before the timer starts: the history's mark phase stays out
	// of the timed rounds.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := history + 1; i <= history+int64(b.N); i++ {
		if !leader.ProposeWindowed(mkIns(i), I64Value(i), res) {
			b.Fatalf("slot %d not fired under a held lease", i)
		}
		if r := <-res; !r.OK {
			b.Fatalf("slot %d did not decide", i)
		}
	}
}

// slowSyncWAL is a Mem WAL whose every barrier takes a stated millisecond,
// like a disk flush: pending or not, the call costs the sleep.
type slowSyncWAL struct {
	*storage.Mem
	syncs *atomic.Int64
}

func (w slowSyncWAL) Sync() error {
	w.syncs.Add(1)
	time.Sleep(time.Millisecond)
	return w.Mem.Sync()
}

// BenchmarkAcceptRoundSlowSync is BenchmarkAcceptRound in the currency the
// durability invariant is about: with 1 ms barriers and a free fabric, ms/op
// counts the barriers a decision pays *in sequence* (the followers' and the
// leader's overlap: ≈ 1; run one after the other they would be ≈ 2), and
// syncs/op the barriers the three nodes pay in total.
func BenchmarkAcceptRoundSlowSync(b *testing.B) {
	var syncs atomic.Int64
	benchAcceptRound(b, func() storage.WAL { return slowSyncWAL{storage.NewMem(), &syncs} })
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(syncs.Load())/float64(b.N), "syncs/op")
}

func benchAcceptRound(b *testing.B, wal func() storage.WAL) {
	const n = 3
	nw := net.New(n)
	defer nw.Close()
	nodes := make([]*Node, n)
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		nodes[p] = StartNodeWithConfig(nw, groups.Process(p), Config{WAL: wal()})
		scope = scope.Add(groups.Process(p))
	}
	leader := func(groups.Process) groups.Process { return 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst := &Instance{
			ID:         InstanceID{Space: SpaceTest, Realm: 1, Slot: int64(i)},
			Scope:      scope,
			Net:        nw,
			Leader:     leader,
			MultiPaxos: true,
		}
		if _, ok := nodes[0].Propose(inst, I64Value(int64(i))); !ok {
			b.Fatalf("slot %d did not decide", i)
		}
	}
}
