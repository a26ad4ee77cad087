package live

import (
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/storage"
)

// BenchmarkConsSlowSync is paxos' BenchmarkAcceptRoundSlowSync one layer up:
// the leader of a 3-member group decides a fresh CONS_{m,f} per iteration
// over a free fabric and 1 ms WAL barriers, so ms/op counts the barriers a
// consensus decision pays in sequence. As a dedicated single-shot synod it
// was two (prepare, then accept: ≈ 2.4); as the first proposal appended to
// LOG_{dst(m)} it is one more op in the group log's leased slot stream: ≈ 1.2.
func BenchmarkConsSlowSync(b *testing.B) {
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	nw := net.New(3)
	var syncs atomic.Int64
	sys := NewSystem(topo, failure.NewPattern(3), nw, Config{
		Storage: func(groups.Process) storage.WAL {
			return slowSyncWAL{storage.NewMem(), &syncs}
		},
	})
	defer sys.Stop()
	ctx := &engine.Ctx{}
	propose := func(v int) {
		m := sys.Sh.Request(0, 0, nil, 0)
		if got := sys.be.Cons(0, m.ID, 0).Propose(ctx, v); got != v {
			b.Fatalf("CONS for m%d decided %d, want the only proposal %d", m.ID, got, v)
		}
	}
	propose(1) // the lease, where there is one to acquire
	syncs.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		propose(i)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(syncs.Load())/float64(b.N), "syncs/op")
}
