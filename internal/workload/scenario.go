package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Arrival-process kinds.
const (
	// ArrivalsPoisson draws exponential inter-arrival gaps — the memoryless
	// open-loop model of a large independent client population.
	ArrivalsPoisson = "poisson"
	// ArrivalsFixed spaces arrivals exactly 1/rate apart — the worst-case
	// metronome for convoy scenarios and the easiest stream to reason about.
	ArrivalsFixed = "fixed"
	// ArrivalsBurst makes every arrival due at t = 0 — the closed capacity
	// burst: the driver submits back to back and latency from the intended
	// time is time-to-drain. Rate plays no part.
	ArrivalsBurst = "burst"
)

// Write-ahead-log backings of a scenario's environment (Scenario.WAL).
const (
	// WALMem is the in-memory group-commit log, the default substrate.
	WALMem = "mem"
	// WALFile is a file log with an fsync on every commit barrier.
	WALFile = "file"
	// WALFileNoSync is a file log left to OS buffering: against WALFile it
	// isolates the encoding cost from the fsync tax.
	WALFileNoSync = "file-nosync"
)

// Scenario is a named, serializable workload: everything the generator
// needs to reproduce a stream from a seed. Campaigns are replayable by
// (scenario, seed) — the struct round-trips through JSON so scenario files
// can be versioned next to the benchmarks they produced.
type Scenario struct {
	// Name keys the scenario in campaign output and benchgate baselines.
	Name string `json:"name"`
	// Topo describes the generated topology the load runs against.
	Topo TopoSpec `json:"topo"`
	// Arrivals selects the arrival process: ArrivalsPoisson, ArrivalsFixed
	// or ArrivalsBurst.
	Arrivals string `json:"arrivals"`
	// Rate is the offered load in multicasts/sec at the start of the run
	// (unused, and may be zero, under ArrivalsBurst).
	Rate float64 `json:"rate,omitempty"`
	// RampTo, when positive, ramps the offered rate linearly from Rate to
	// this value across the run's Count arrivals (the overload-discovery
	// scenario shape).
	RampTo float64 `json:"ramp_to,omitempty"`
	// Count is the total number of arrivals in the stream.
	Count int `json:"count"`
	// ZipfS is the Zipf exponent of destination-group popularity: 0 is
	// uniform, ~1 the classic web skew, higher sharper.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// HotGroup names the group that rank 0 of the Zipf distribution (and
	// the HotShare mass) lands on.
	HotGroup int `json:"hot_group,omitempty"`
	// HotShare, when positive, pins that fraction of all arrivals directly
	// onto HotGroup before the Zipf draw — the hot-group knob.
	HotShare float64 `json:"hot_share,omitempty"`
	// ConflictRate is the fraction of the stream tagged into keyed conflict
	// classes. 1 means every message conflicts with every other (the
	// vanilla total-order run); below 1 the remainder is ClassFree and the
	// driver must run the Generic variant.
	ConflictRate float64 `json:"conflict_rate"`
	// ConflictKeys is the number of keyed classes the conflicting fraction
	// spreads over (default 3).
	ConflictKeys int `json:"conflict_keys,omitempty"`
	// Soak marks a long-haul scenario: campaign runners arm the replog
	// applied-op journal for it and diff journals against paxos decision
	// snapshots on exit (the ROADMAP item-3 flake hunt, run on every
	// campaign).
	Soak bool `json:"soak,omitempty"`

	// ChaosSeed and WAL describe the environment the stream runs in, not the
	// stream: they are part of a row's identity but Digest does not hash
	// them, exactly as one stream runs on mem and on tcp under one digest.

	// ChaosSeed, when non-zero, runs the scenario over a transport wrapped
	// in the seeded nemesis with a fixed mild fault mix, lifted part-way
	// through the run. Such rows are reported but never gated.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// WAL selects the write-ahead-log backing: WALMem (also the meaning of
	// ""), WALFile or WALFileNoSync. File rows measure a post-run replay.
	WAL string `json:"wal,omitempty"`
}

// WALMode is the scenario's WAL backing with the default applied.
func (sc Scenario) WALMode() string {
	if sc.WAL == "" {
		return WALMem
	}
	return sc.WAL
}

// Validate checks the scenario for internal consistency. It does not build
// the topology; TopoSpec.Build reports those errors.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("workload: scenario has no name")
	}
	switch sc.Arrivals {
	case ArrivalsPoisson, ArrivalsFixed:
		if sc.Rate <= 0 {
			return fmt.Errorf("workload: scenario %q: rate %v must be positive", sc.Name, sc.Rate)
		}
	case ArrivalsBurst:
	default:
		return fmt.Errorf("workload: scenario %q: unknown arrival process %q (want %s, %s or %s)",
			sc.Name, sc.Arrivals, ArrivalsPoisson, ArrivalsFixed, ArrivalsBurst)
	}
	if sc.RampTo < 0 {
		return fmt.Errorf("workload: scenario %q: ramp_to %v must be >= 0", sc.Name, sc.RampTo)
	}
	if sc.Count <= 0 {
		return fmt.Errorf("workload: scenario %q: count %d must be positive", sc.Name, sc.Count)
	}
	if sc.ZipfS < 0 {
		return fmt.Errorf("workload: scenario %q: zipf_s %v must be >= 0", sc.Name, sc.ZipfS)
	}
	if sc.HotGroup < 0 || sc.HotGroup >= sc.Topo.Groups {
		return fmt.Errorf("workload: scenario %q: hot_group %d outside [0,%d)", sc.Name, sc.HotGroup, sc.Topo.Groups)
	}
	if sc.HotShare < 0 || sc.HotShare > 1 {
		return fmt.Errorf("workload: scenario %q: hot_share %v outside [0,1]", sc.Name, sc.HotShare)
	}
	if sc.ConflictRate < 0 || sc.ConflictRate > 1 {
		return fmt.Errorf("workload: scenario %q: conflict_rate %v outside [0,1]", sc.Name, sc.ConflictRate)
	}
	if sc.ConflictKeys < 0 {
		return fmt.Errorf("workload: scenario %q: conflict_keys %d must be >= 0", sc.Name, sc.ConflictKeys)
	}
	switch sc.WALMode() {
	case WALMem, WALFile, WALFileNoSync:
	default:
		return fmt.Errorf("workload: scenario %q: unknown wal %q (want %s, %s or %s)",
			sc.Name, sc.WAL, WALMem, WALFile, WALFileNoSync)
	}
	return nil
}

// rateAt is the offered rate at arrival index i: constant, or linearly
// interpolated towards RampTo across the stream.
func (sc Scenario) rateAt(i int) float64 {
	if sc.RampTo <= 0 || sc.Count <= 1 {
		return sc.Rate
	}
	frac := float64(i) / float64(sc.Count-1)
	return sc.Rate + (sc.RampTo-sc.Rate)*frac
}

// conflictKeys is the keyed-class space size with its default applied.
func (sc Scenario) conflictKeys() int {
	if sc.ConflictKeys > 0 {
		return sc.ConflictKeys
	}
	return 3
}

// Scale returns a copy of the scenario with Count multiplied by f (min 1
// arrival) — campaign runners use it to shrink or stretch a catalog without
// editing scenarios. Scaling changes the stream, so the digest of a scaled
// scenario differs from the original's.
func (sc Scenario) Scale(f float64) Scenario {
	if f <= 0 || f == 1 {
		return sc
	}
	n := int(float64(sc.Count) * f)
	if n < 1 {
		n = 1
	}
	sc.Count = n
	return sc
}

// Catalog returns the built-in scenario set — the regimes ROADMAP item 1
// names. Each entry is sized so the whole catalog runs unattended in a CI
// job; Scale stretches it for long soaks.
//
//	steady    — Poisson arrivals, uniform groups, all-conflict: the boring
//	            baseline every other row is read against.
//	hot-group — Zipf 1.1 + 50% of the load pinned on one group: the skew
//	            regime where per-group serialisation becomes the bottleneck.
//	convoy    — fixed-rate metronome on a ring of size-2 groups (one cyclic
//	            family spans every group): stabilisation chains recurse
//	            around the ring and pile into the tail (§6.2).
//	ramp      — offered load ramps 8x across the run: the knee where goodput
//	            stops tracking offered load is the capacity estimate.
//	wide      — 20 groups over 32 processes, a cyclic ring core bridged to
//	            an acyclic chain: the generated-topology regime (dozens of
//	            groups, mixed g∩h overlap) no hand-written spec covered.
//	soak      — long steady run with a 30% keyed-conflict mix under the
//	            Generic variant; campaign runners arm the replog journal and
//	            diff it against decision snapshots on exit.
//
// The burst rows are closed capacity bursts (every arrival due at t = 0) on
// the two smallest chains, the load that keeps the replog batcher and the
// accept window busy:
//
//	burst-n3, burst-n5 — all-conflict, one group over 3 processes and two
//	            over 5: the cost of a longer chain (neighbouring groups
//	            share a pair log).
//	burst-mix — burst-n5 with 90% of the load commuting (Generic variant):
//	            the fast path's packets/delivery win, gated like any row.
//	burst-chaos — burst-n3 under the seeded nemesis (mild drop/dup/delay,
//	            lifted part-way through): retransmission work shows in
//	            packets/delivery. Reported, never gated.
//	burst-file, burst-nosync — burst-n3 on file write-ahead logs with and
//	            without the fsync barrier: the delta against burst-n3 is
//	            the durability tax, recovery_ms a replay of the run's logs.
func Catalog() []Scenario {
	burst := func(name string, groups int) Scenario {
		return Scenario{
			Name:     name,
			Topo:     TopoSpec{Kind: TopoChain, Groups: groups},
			Arrivals: ArrivalsBurst, Count: 600,
			ConflictRate: 1,
		}
	}
	mix, chaos := burst("burst-mix", 2), burst("burst-chaos", 1)
	file, nosync := burst("burst-file", 1), burst("burst-nosync", 1)
	mix.ConflictRate = 0.1
	chaos.ChaosSeed = 3
	file.WAL, nosync.WAL = WALFile, WALFileNoSync
	return []Scenario{
		{
			Name:     "steady",
			Topo:     TopoSpec{Kind: TopoChain, Groups: 4},
			Arrivals: ArrivalsPoisson,
			Rate:     800, Count: 600,
			ConflictRate: 1,
		},
		{
			Name:     "hot-group",
			Topo:     TopoSpec{Kind: TopoChain, Groups: 4},
			Arrivals: ArrivalsPoisson,
			Rate:     800, Count: 600,
			ZipfS: 1.1, HotGroup: 1, HotShare: 0.5,
			ConflictRate: 1,
		},
		{
			Name:     "convoy",
			Topo:     TopoSpec{Kind: TopoRing, Groups: 8},
			Arrivals: ArrivalsFixed,
			Rate:     600, Count: 400,
			ConflictRate: 1,
		},
		{
			Name:     "ramp",
			Topo:     TopoSpec{Kind: TopoChain, Groups: 4},
			Arrivals: ArrivalsPoisson,
			Rate:     200, RampTo: 1600, Count: 600,
			ConflictRate: 1,
		},
		{
			Name:     "wide",
			Topo:     TopoSpec{Kind: TopoWide, Groups: 20},
			Arrivals: ArrivalsPoisson,
			Rate:     400, Count: 240,
			ZipfS:        0.8,
			ConflictRate: 1,
		},
		{
			Name:     "soak",
			Topo:     TopoSpec{Kind: TopoChain, Groups: 4},
			Arrivals: ArrivalsPoisson,
			Rate:     500, Count: 1500,
			ConflictRate: 0.3,
			Soak:         true,
		},
		burst("burst-n3", 1), burst("burst-n5", 2), mix, chaos, file, nosync,
	}
}

// Select resolves a comma-separated scenario-name list ("all" or "" means
// the whole set) against the given catalog, preserving list order.
func Select(catalog []Scenario, names string) ([]Scenario, error) {
	names = strings.TrimSpace(names)
	if names == "" || names == "all" {
		return catalog, nil
	}
	byName := make(map[string]Scenario, len(catalog))
	for _, sc := range catalog {
		byName[sc.Name] = sc
	}
	var out []Scenario
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		sc, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(catalog))
			for _, c := range catalog {
				known = append(known, c.Name)
			}
			return nil, fmt.Errorf("workload: unknown scenario %q (have %s)", name, strings.Join(known, ", "))
		}
		out = append(out, sc)
	}
	return out, nil
}

// Read parses a JSON scenario list (the serialized form of []Scenario) and
// validates every entry.
func Read(r io.Reader) ([]Scenario, error) {
	var scs []Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&scs); err != nil {
		return nil, fmt.Errorf("workload: parsing scenario file: %w", err)
	}
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	return scs, nil
}

// ReadFile loads a scenario file from disk.
func ReadFile(path string) ([]Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
