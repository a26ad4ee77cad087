package main

import (
	"fmt"
	"time"

	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/workload"
)

// spec is one named workload: the load it offers and the transport and WAL
// it runs over. Every workload runs on the same topology (chain k=4: nine
// processes, four groups of three), so a difference between two rows is a
// difference of load or substrate, never of group structure.
type spec struct {
	Name string
	Why  string
	// Rate is the offered load in multicasts per second; the arrival count
	// of one repetition is Rate times the repetition's schedule length.
	Rate float64
	// Burst makes every arrival due at t=0 (fixed arrivals at 1e6/s): the
	// system is measured closed, at capacity.
	Burst bool
	// ZipfS, HotShare skew the destination choice onto group 1.
	ZipfS, HotShare float64
	// ConflictRate below 1 runs the Generic variant with the remainder of
	// the stream commuting.
	ConflictRate float64
	// Transport is "mem" (net.New) or "tcp" (wire.NewFabric on loopback).
	Transport string
	// HopDelay, when set, is a fixed per-packet delay injected by
	// chaos.Wrap; SyncDelay is slept in every WAL Sync.
	HopDelay, SyncDelay time.Duration
	// WarmReps is how many discarded repetitions precede the timed ones.
	WarmReps int
	// Groups overrides the chain length (the Generic-burst probe runs k=3).
	Groups int
	// Drain overrides the drain deadline after the last intended send.
	Drain time.Duration
	// RoundRobin replaces the generated stream by benchtab's closed burst:
	// groups in turn, senders rotating, every tenth message keyed.
	RoundRobin bool
}

const (
	chainGroups  = 4
	drainTimeout = 10 * time.Second
	// timedReps is how many timed repetitions one run of a workload makes;
	// --seconds is divided evenly between them.
	timedReps = 5
	// setupExtras set-up-only children follow each timed repetition whose
	// own set-up took less than steadySetup.
	setupExtras = 4
	steadySetup = 500 * time.Millisecond
	// warmupMulticasts are sent round-robin over the groups and awaited
	// before the timed schedule: leases, lazy dials and pools are set-up.
	warmupMulticasts = 100
)

var workloads = []spec{
	{
		Name: "steady-mem",
		Why:  "Poisson 250/s, uniform groups, all-conflict, in-memory links and WAL: the baseline where latency is processor time of core, logobj, live, replog and paxos only",
		Rate: 250, ConflictRate: 1, Transport: "mem",
	},
	{
		Name: "steady-tcp",
		Why:  "the bit-identical stream of steady-mem over loopback TCP: the delta is the cost of wire encode, flush, decode and the kernel, so a codec change moves this row alone",
		Rate: 250, ConflictRate: 1, Transport: "tcp",
	},
	{
		Name: "steady-delay",
		Why:  "Poisson 40/s with a stated 0.5 ms delay per hop and 1 ms per WAL sync: latency counts sequential hops and barriers, so a faster function should not move it and a shorter critical path should",
		Rate: 40, ConflictRate: 1, Transport: "mem",
		HopDelay: 500 * time.Microsecond, SyncDelay: time.Millisecond,
	},
	{
		Name: "commute-mem",
		Why:  "Poisson 250/s with conflict_rate 0.1 under the Generic variant: 90% of messages take the fast path past pair logs, consensus and stabilisation, so a trade between the two paths shows",
		Rate: 250, ConflictRate: 0.1, Transport: "mem",
	},
	{
		Name: "burst-hot",
		Why:  "every arrival due at t=0, Zipf 1.1 plus half the load on group 1: closed capacity under skew, where the serial hot log, the replog batcher and O(history) costs do the work",
		Rate: 375, Burst: true, ZipfS: 1.1, HotShare: 0.5, ConflictRate: 1, Transport: "mem",
		WarmReps: 1,
	},
}

// genericBurst is the known-failing probe, run in the traced set only: the
// Generic-variant burst of `benchtab -count 1500 live` that wedges a few
// dozen deliveries for as long as one waits. It is not a workload — its
// failures are reported as a count and never reach an end-to-end metric.
// The wedge needs benchtab's round-robin stream (class c only ever goes to
// group c−1); generated streams of the same shape deliver in full.
var genericBurst = spec{
	Name: "generic-burst-probe",
	Rate: 1500, Burst: true, ConflictRate: 0.1, Transport: "mem",
	Groups: 3, Drain: 5 * time.Second, RoundRobin: true,
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scenario is the internal/workload scenario one repetition of w consumes
// when its timed schedule lasts repSeconds.
func (w spec) scenario(repSeconds float64) workload.Scenario {
	k := w.Groups
	if k == 0 {
		k = chainGroups
	}
	count := int(w.Rate*repSeconds + 0.5)
	if count < 1 {
		count = 1
	}
	sc := workload.Scenario{
		Name:     w.Name,
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: k},
		Arrivals: workload.ArrivalsPoisson,
		Rate:     w.Rate, Count: count,
		ZipfS: w.ZipfS, HotShare: w.HotShare,
		ConflictRate: w.ConflictRate,
	}
	if w.ZipfS > 0 || w.HotShare > 0 {
		sc.HotGroup = 1
	}
	if w.Burst {
		sc.Arrivals = workload.ArrivalsFixed
		sc.Rate = 1e6
	}
	return sc
}

// arrivals generates the stream of (sc, seed) and rescales its intended
// times by one factor so the last arrival falls at count/rate. A Poisson
// process conditioned on its count is still Poisson; what the rescale
// removes is the seed-to-seed swing of the realised offered rate (±3% at
// 1000 arrivals), which would otherwise read as a goodput change. It also
// returns the stream digest and the generator's cost per arrival.
func (w spec) arrivals(sc workload.Scenario, seed int64) ([]workload.Arrival, string, float64, error) {
	digest, err := workload.Digest(sc, seed)
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	gen, err := workload.NewGen(sc, seed)
	if err != nil {
		return nil, "", 0, err
	}
	out := make([]workload.Arrival, 0, sc.Count)
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	genNs := float64(time.Since(start)) / float64(len(out))
	if w.RoundRobin {
		k := sc.Topo.Groups
		for i := range out {
			g := i % k
			class := msg.ClassFree
			if i%10 == 0 {
				class = msg.Class(1 + i%3)
			}
			out[i].Src, out[i].Dst, out[i].Class = groups.Process(2*g+(i/k)%3), groups.GroupID(g), class
		}
	}
	if !w.Burst {
		want := time.Duration(float64(sc.Count) / sc.Rate * float64(time.Second))
		last := out[len(out)-1].At
		for i := range out {
			out[i].At = time.Duration(float64(out[i].At) * float64(want) / float64(last))
		}
	}
	return out, digest, genNs, nil
}
