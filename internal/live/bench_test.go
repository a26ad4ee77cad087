package live

import (
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/net"
	"repro/internal/storage"
)

// BenchmarkConsSlowSync is paxos' BenchmarkAcceptRoundSlowSync one layer up:
// the leader of a 3-member group decides a fresh CONS_{m,f} per iteration
// over a free fabric and 1 ms WAL barriers, so ms/op counts the barriers a
// consensus decision pays in sequence. As a dedicated single-shot synod it
// was two (prepare, then accept: ≈ 2.4); as the first proposal appended to
// LOG_{dst(m)} it is one more op in the group log's leased slot stream: ≈ 1.2.
// The proposal goes through the process's handle on LOG_g, as tryCommit's
// does, and the decision is read back with Decided.
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
	glog := sys.Log(0, 0, 0)
	propose := func(v int) {
		m := sys.Sh.Request(0, 0, nil, 0)
		glog.Append(ctx, 0, logobj.ConsDatum(m.ID, 0, v)).Wait()
		if got, ok := glog.Decided(m.ID, 0); !ok || got != v {
			b.Fatalf("CONS for m%d decided %d,%v, want the only proposal %d", m.ID, got, ok, v)
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
