package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
)

// This file is the benchmark harness of DESIGN.md §4: one testing.B bench
// per table/figure of the paper. Each bench reports, besides wall time, the
// simulated-cost metrics the asynchronous model is stated in (protocol
// messages, per-process steps, virtual-time latency) via b.ReportMetric.

// ---------------------------------------------------------------------------
// Table 1 rows

// BenchmarkTable1_Broadcast: the non-genuine Ω∧Σ row — a full run of the
// broadcast-based reduction on Figure 1.
func BenchmarkTable1_Broadcast(b *testing.B) {
	topo := groups.Figure1()
	for i := 0; i < b.N; i++ {
		s := baseline.NewBroadcastSystem(topo, failure.NewPattern(5), int64(i))
		s.Multicast(0, 0, nil)
		s.Multicast(1, 1, nil)
		s.Multicast(2, 2, nil)
		s.Multicast(4, 3, nil)
		if !s.Run() {
			b.Fatal("no quiescence")
		}
	}
}

// BenchmarkTable1_Mu: Algorithm 1 under μ on Figure 1 with a faulty cyclic
// family (the paper's headline row).
func BenchmarkTable1_Mu(b *testing.B) {
	topo := groups.Figure1()
	var steps, msgs int64
	for i := 0; i < b.N; i++ {
		pat := failure.NewPattern(5).WithCrash(1, 35)
		s := core.NewSystem(topo, pat, core.Options{ChargeObjects: true, FD: fd.Options{Delay: 8}}, int64(i))
		s.Multicast(0, 0, nil)
		s.Multicast(2, 1, nil)
		s.Multicast(3, 2, nil)
		s.Multicast(4, 3, nil)
		if !s.Run() {
			b.Fatal("no quiescence")
		}
		steps += s.Eng.TotalSteps()
		msgs += s.Eng.Messages()
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
	b.ReportMetric(float64(msgs)/float64(b.N), "protomsgs/run")
}

// BenchmarkTable1_Strict: the μ ∧ 1^{g∩h} row.
func BenchmarkTable1_Strict(b *testing.B) {
	topo := groups.Figure1()
	for i := 0; i < b.N; i++ {
		pat := failure.NewPattern(5).WithCrash(1, 35)
		s := core.NewSystem(topo, pat, core.Options{Variant: core.Strict, FD: fd.Options{Delay: 8}}, int64(i))
		s.Multicast(0, 0, nil)
		s.Multicast(2, 2, nil)
		s.Multicast(4, 3, nil)
		if !s.Run() {
			b.Fatal("no quiescence")
		}
	}
}

// BenchmarkTable1_Pairwise: the (∧Σ)∧(∧Ω) row on an acyclic topology.
func BenchmarkTable1_Pairwise(b *testing.B) {
	topo := groups.MustNew(5,
		groups.NewProcSet(0, 1),
		groups.NewProcSet(1, 2, 3),
		groups.NewProcSet(3, 4),
	)
	for i := 0; i < b.N; i++ {
		s := core.NewSystem(topo, failure.NewPattern(5), core.Options{Variant: core.Pairwise}, int64(i))
		s.Multicast(0, 0, nil)
		s.Multicast(1, 1, nil)
		s.Multicast(4, 2, nil)
		if !s.Run() {
			b.Fatal("no quiescence")
		}
	}
}

// BenchmarkTable1_StronglyGenuine: the F=∅ row with intersection-hosted
// coordination.
func BenchmarkTable1_StronglyGenuine(b *testing.B) {
	topo := groups.MustNew(5,
		groups.NewProcSet(0, 1, 2),
		groups.NewProcSet(2, 3, 4),
	)
	for i := 0; i < b.N; i++ {
		s := core.NewSystem(topo, failure.NewPattern(5), core.Options{Variant: core.StronglyGenuine}, int64(i))
		s.Multicast(0, 0, nil)
		s.Multicast(3, 1, nil)
		if !s.Run() {
			b.Fatal("no quiescence")
		}
	}
}

// ---------------------------------------------------------------------------
// M1 — genuine vs. broadcast scaling (§1/§2.3)

func disjointTopo(k int) *groups.Topology {
	gs := make([]groups.ProcSet, k)
	for i := range gs {
		gs[i] = groups.NewProcSet(groups.Process(3*i), groups.Process(3*i+1), groups.Process(3*i+2))
	}
	return groups.MustNew(3*k, gs...)
}

// BenchmarkGenuineVsBroadcast reports the per-multicast message cost of
// both protocols as k grows; the genuine column stays flat, the broadcast
// column grows with the system.
func BenchmarkGenuineVsBroadcast(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("genuine/k=%d", k), func(b *testing.B) {
			topo := disjointTopo(k)
			var msgs int64
			for i := 0; i < b.N; i++ {
				s := core.NewSystem(topo, failure.NewPattern(3*k), core.Options{ChargeObjects: true}, int64(i))
				for g := 0; g < k; g++ {
					s.Multicast(groups.Process(3*g), groups.GroupID(g), nil)
				}
				if !s.Run() {
					b.Fatal("no quiescence")
				}
				msgs += s.Eng.Messages()
			}
			b.ReportMetric(float64(msgs)/float64(b.N)/float64(k), "protomsgs/mc")
		})
		b.Run(fmt.Sprintf("broadcast/k=%d", k), func(b *testing.B) {
			topo := disjointTopo(k)
			var msgs int64
			for i := 0; i < b.N; i++ {
				s := baseline.NewBroadcastSystem(topo, failure.NewPattern(3*k), int64(i))
				for g := 0; g < k; g++ {
					s.Multicast(groups.Process(3*g), groups.GroupID(g), nil)
				}
				if !s.Run() {
					b.Fatal("no quiescence")
				}
				msgs += s.Eng.Messages()
			}
			b.ReportMetric(float64(msgs)/float64(b.N)/float64(k), "protomsgs/mc")
		})
	}
}

// ---------------------------------------------------------------------------
// M2 — convoy effect (§6.2)

func ringTopo(k int) *groups.Topology {
	gs := make([]groups.ProcSet, k)
	for i := range gs {
		gs[i] = groups.NewProcSet(groups.Process(i), groups.Process((i+1)%k))
	}
	return groups.MustNew(k, gs...)
}

// BenchmarkConvoyEffect reports the completion latency (virtual rounds) of
// a probe multicast to g0 while the whole ring is busy.
func BenchmarkConvoyEffect(b *testing.B) {
	for _, k := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("ring=%d", k), func(b *testing.B) {
			topo := ringTopo(k)
			var rounds float64
			for i := 0; i < b.N; i++ {
				s := core.NewSystem(topo, failure.NewPattern(k), core.Options{}, int64(i))
				for g := k - 1; g >= 1; g-- {
					s.MulticastAt(2, groups.Process(g), groups.GroupID(g), nil)
				}
				s.MulticastAt(4, 0, 0, nil)
				if !s.Run() {
					b.Fatal("no quiescence")
				}
				var probe int64 = -1
				var done failure.Time = -1
				for _, d := range s.Sh.Deliveries() {
					if int64(d.M) > probe && s.Sh.Reg.Get(d.M).Dst == 0 {
						probe = int64(d.M)
					}
				}
				for _, d := range s.Sh.Deliveries() {
					if int64(d.M) == probe && d.T > done {
						done = d.T
					}
				}
				rounds += float64(done-4) / float64(k)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds/probe")
		})
	}
}

// BenchmarkGroupSize reports throughput as the destination group grows:
// per-multicast cost is quadratic-ish in the group size (every member
// replays every log operation), the price of uniformity.
func BenchmarkGroupSize(b *testing.B) {
	for _, size := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var members groups.ProcSet
			for p := 0; p < size; p++ {
				members = members.Add(groups.Process(p))
			}
			topo := groups.MustNew(size, members)
			deliveries := 0
			for i := 0; i < b.N; i++ {
				s := core.NewSystem(topo, failure.NewPattern(size), core.Options{}, int64(i))
				for m := 0; m < 4; m++ {
					s.Multicast(groups.Process(m%size), 0, nil)
				}
				if !s.Run() {
					b.Fatal("no quiescence")
				}
				deliveries += len(s.Sh.Deliveries())
			}
			b.ReportMetric(float64(deliveries)/b.Elapsed().Seconds(), "deliveries/s")
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 1 — topology analysis

// BenchmarkFigure1_Families measures the cyclic-family enumeration (the
// precomputation γ and Algorithm 1 rely on).
func BenchmarkFigure1_Families(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := groups.Figure1()
		if len(topo.Families()) != 3 {
			b.Fatal("bad families")
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks

// BenchmarkLogObject measures the shared-log operations of §4.3.
func BenchmarkLogObject(b *testing.B) {
	l := logobj.New("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := logobj.MsgDatum(msg.ID(i + 1))
		l.Append(d)
		l.BumpAndLock(d, l.Pos(d)+1)
	}
}

// BenchmarkLogRecord appends what one multicast leaves in a group log on
// the chain — the message, its pos tuples in two pair logs, a stable tuple
// and a CONS_{m,f} proposal — and bumps the message to its final position:
// the per-message cost of a record. It must stay at 0 allocs/op.
func BenchmarkLogRecord(b *testing.B) {
	l, f := logobj.New("bench"), groups.NewGroupSet(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := msg.ID(i + 1)
		p := l.Append(logobj.MsgDatum(m))
		l.Append(logobj.PosDatum(m, 1, p+1))
		l.Append(logobj.PosDatum(m, 2, p+2))
		l.Append(logobj.StableDatum(m, 1))
		l.Append(logobj.ConsDatum(m, f, p+2))
		l.BumpAndLock(logobj.MsgDatum(m), p+2)
	}
}

// filledLog returns a log holding messages 1..n at positions 1..n.
func filledLog(n int) *logobj.Log {
	l := logobj.New("bench")
	for i := 1; i <= n; i++ {
		l.Append(logobj.MsgDatum(msg.ID(i)))
	}
	return l
}

var logSizes = []struct {
	name string
	n    int
}{{"1k", 1000}, {"4k", 4000}}

// BenchmarkLogScanBefore is the predecessor guard's read with its delivered
// frontier at the tail: the last message's predecessors from two positions
// below it. It must not allocate and must cost the same at 1k and 4k
// entries — the walk is the in-flight window, not the log.
func BenchmarkLogScanBefore(b *testing.B) {
	for _, sz := range logSizes {
		b.Run(sz.name, func(b *testing.B) {
			l, last := filledLog(sz.n), logobj.MsgDatum(msg.ID(sz.n))
			visited := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.ScanBefore(last, sz.n-2, func(msg.ID, int) bool {
					visited++
					return true
				})
			}
			if visited != 2*b.N {
				b.Fatalf("visited %d entries in %d scans, want 2 each", visited, b.N)
			}
		})
	}
}

// BenchmarkLogMessagesBefore lists every predecessor of the last message:
// the full-history read, linear in the log by definition (what each guard
// paid, plus a sort, before ScanBefore).
func BenchmarkLogMessagesBefore(b *testing.B) {
	for _, sz := range logSizes {
		b.Run(sz.name, func(b *testing.B) {
			l, last := filledLog(sz.n), logobj.MsgDatum(msg.ID(sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := l.MessagesBefore(last); len(got) != sz.n-1 {
					b.Fatalf("%d predecessors, want %d", len(got), sz.n-1)
				}
			}
		})
	}
}

// BenchmarkLogBumpAcrossRanks appends a message and bumps the one appended
// 64 messages earlier over everything above it: one push plus one rotate
// across 64 ranks of a 4k-entry log per iteration.
func BenchmarkLogBumpAcrossRanks(b *testing.B) {
	const ranks, prefill = 64, 4000
	l := filledLog(prefill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := prefill + 1; i <= prefill+b.N; i++ {
		top := l.Append(logobj.MsgDatum(msg.ID(i)))
		l.BumpAndLock(logobj.MsgDatum(msg.ID(i-ranks)), top+1)
	}
}

// BenchmarkSigmaEmulation: Algorithm 2 over a 3-process group (8 restricted
// instances per run).
func BenchmarkSigmaEmulation(b *testing.B) {
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	for i := 0; i < b.N; i++ {
		pat := failure.NewPattern(3).WithCrash(2, 15)
		em := extract.NewSigmaEmulation(topo, pat, core.Options{FD: fd.Options{Delay: 6}}, int64(i), 0)
		if _, ok := em.Quorum(0, em.Horizon()+10); !ok {
			b.Fatal("no quorum")
		}
	}
}

// BenchmarkGammaEmulation: Algorithm 3 over Figure 1 (six path instances).
func BenchmarkGammaEmulation(b *testing.B) {
	topo := groups.Figure1()
	for i := 0; i < b.N; i++ {
		pat := failure.NewPattern(5).WithCrash(1, 10)
		em := extract.NewGammaEmulation(topo, pat, core.Options{FD: fd.Options{Delay: 6}}, int64(i), nil)
		if len(em.Families(0, em.Horizon()+10)) != 1 {
			b.Fatal("bad emulation")
		}
	}
}

// BenchmarkOmegaExtraction: Algorithm 5's simulation forest (Appendix B).
func BenchmarkOmegaExtraction(b *testing.B) {
	topo := groups.MustNew(4, groups.NewProcSet(0, 1, 2), groups.NewProcSet(1, 2, 3))
	for i := 0; i < b.N; i++ {
		pat := failure.NewPattern(4)
		e := extract.NewOmegaExtraction(topo, pat, 0, 1, fd.Options{}, 24)
		if _, ok := e.Extract(1); !ok {
			b.Fatal("no leader")
		}
	}
}

// ---------------------------------------------------------------------------
// Throughput of the core protocol

// BenchmarkCoreThroughput drives a stream of multicasts through Figure 1
// and reports deliveries per second of the implementation.
func BenchmarkCoreThroughput(b *testing.B) {
	topo := groups.Figure1()
	b.ResetTimer()
	deliveries := 0
	for i := 0; i < b.N; i++ {
		s := core.NewSystem(topo, failure.NewPattern(5), core.Options{}, int64(i))
		for round := 0; round < 4; round++ {
			s.Multicast(0, 0, nil)
			s.Multicast(1, 1, nil)
			s.Multicast(2, 2, nil)
			s.Multicast(3, 3, nil)
		}
		if !s.Run() {
			b.Fatal("no quiescence")
		}
		deliveries += len(s.Sh.Deliveries())
	}
	b.ReportMetric(float64(deliveries)/b.Elapsed().Seconds(), "deliveries/s")
}
