package core

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/obs"
)

// BenchmarkBatchDelivery: one op is a batch of 256 requests to a group of
// three, registered at once from its three members, entering Algorithm 1
// under one LOG_g entry and delivered at all three on the sim, with the
// counters-only recorder the live bench runs. Its allocs/op are the
// registrations (a message each) and the engine's context per step; the
// tables a delivery writes — phase, trace, record, latency sample — grow by
// doubling, so an allocation per delivered request would add 768.
func BenchmarkBatchDelivery(b *testing.B) {
	const batch = 256
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	s := NewSystem(topo, failure.NewPattern(3), Options{Rec: rec}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			s.Multicast(groups.Process(j%3), 0, nil)
		}
		if !s.Run() {
			b.Fatalf("op %d: the batch did not quiesce", i)
		}
	}
	b.StopTimer()
	for p := 0; p < 3; p++ {
		if got := len(s.Nodes[p].delivered); got != b.N*batch {
			b.Fatalf("p%d delivered %d requests, want %d", p, got, b.N*batch)
		}
	}
	if got := len(s.Sh.GroupLog(0).Inner().Messages()); got != b.N {
		b.Fatalf("LOG_g0 holds %d messages for %d batches", got, b.N)
	}
}
