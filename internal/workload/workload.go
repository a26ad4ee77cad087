// Package workload models large client populations as deterministic,
// seeded streams — the load half of the "millions of users" north star.
//
// Every benchmark before this package hand-picked an (n, groups, seed)
// triple and fired messages in closed loop: the next send waited for the
// previous one, so a stalled system silently throttled its own load and the
// measured latency hid exactly the tail the stall created (coordinated
// omission). A workload here is the opposite shape:
//
//   - arrivals are OPEN-LOOP: a scenario fixes the intended send time of
//     every message up front (Poisson or fixed-rate, optionally ramping),
//     and latency is measured from that intended time — a system that falls
//     behind accrues the backlog in its own tail instead of slowing the
//     clock that measures it;
//   - destination choice is SKEWED: Zipf-distributed group popularity with
//     an optional hot-group knob, the regime where genuineness (pay only
//     for g∩h) and the commuting fast path actually matter;
//   - the CONFLICT MIX is explicit: a configurable fraction of the load
//     lands in keyed conflict classes, the rest commutes with everything;
//   - topologies are GENERATED: chain, ring, disjoint and wide families
//     (dozens of groups, cyclic and acyclic g∩h overlap) rather than
//     hand-written specs.
//
// Everything is derived from (Scenario, seed) through a self-contained
// splitmix64 PRNG, so identical inputs reproduce bit-identical streams on
// any platform — campaigns are replayable by name and seed, and the stream
// digest (Digest) certifies it.
package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/groups"
	"repro/internal/msg"
)

// Arrival is one generated client request: a multicast with an intended
// send time. At is the offset from the start of the run at which an
// open-loop driver must account the message as sent — latency samples
// measured from At are immune to coordinated omission even when the driver
// itself falls behind schedule.
type Arrival struct {
	// At is the intended send time, as an offset from run start.
	At time.Duration
	// Src is the sending process, a member of Dst (closed dissemination).
	Src groups.Process
	// Dst is the destination group.
	Dst groups.GroupID
	// Class is the conflict-class tag: msg.ClassAll under an all-conflict
	// scenario, msg.ClassFree or a keyed class under a generic mix.
	Class msg.Class
}

// Gen is a deterministic arrival-stream generator: the same (Scenario,
// seed) pair yields the same stream, arrival by arrival. A Gen is not safe
// for concurrent use; build one per consumer.
type Gen struct {
	sc   Scenario
	topo *groups.Topology
	rng  rng
	zipf zipfSampler

	i int     // arrivals emitted
	t float64 // current intended time, seconds
}

// NewGen validates the scenario, builds its topology and returns the
// generator positioned before the first arrival.
func NewGen(sc Scenario, seed int64) (*Gen, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	topo, err := sc.Topo.Build()
	if err != nil {
		return nil, err
	}
	g := &Gen{sc: sc, topo: topo, rng: newRNG(uint64(seed))}
	g.zipf = newZipfSampler(topo.NumGroups(), sc.ZipfS)
	return g, nil
}

// Topology returns the scenario's generated topology (shared; do not
// mutate — Topology is immutable by construction).
func (g *Gen) Topology() *groups.Topology { return g.topo }

// Next returns the next arrival of the stream, or ok=false when the
// scenario's Count is exhausted.
func (g *Gen) Next() (Arrival, bool) {
	if g.i >= g.sc.Count {
		return Arrival{}, false
	}
	// Open-loop clock: the inter-arrival gap depends only on the arrival
	// process and the current offered rate, never on the consumer.
	switch g.sc.Arrivals {
	case ArrivalsPoisson:
		// Exponential inter-arrival via inverse CDF. 1-u is in (0,1], so the
		// log argument never hits zero.
		g.t += -math.Log(1-g.rng.float64()) / g.sc.rateAt(g.i)
	case ArrivalsFixed:
		g.t += 1 / g.sc.rateAt(g.i)
	default: // ArrivalsBurst (validated): everything is due at t = 0
	}

	// Destination: hot-group share first, then Zipf rank mapped onto the
	// group space rotated so rank 0 is the hot group (with ZipfS == 0 the
	// rank distribution is uniform and the rotation is harmless).
	k := g.topo.NumGroups()
	var dst groups.GroupID
	if g.sc.HotShare > 0 && g.rng.float64() < g.sc.HotShare {
		dst = groups.GroupID(g.sc.HotGroup)
	} else {
		rank := g.zipf.sample(&g.rng)
		dst = groups.GroupID((g.sc.HotGroup + rank) % k)
	}

	// Sender: uniform over the destination group's members.
	members := g.topo.Group(dst).Members()
	src := members[g.rng.intn(len(members))]

	// Conflict class: all-conflict scenarios tag everything ClassAll; a
	// generic mix splits the stream into keyed classes and ClassFree.
	class := msg.ClassAll
	if g.sc.ConflictRate < 1 {
		if g.rng.float64() < g.sc.ConflictRate {
			class = msg.Class(1 + uint64(g.rng.intn(g.sc.conflictKeys())))
		} else {
			class = msg.ClassFree
		}
	}

	g.i++
	return Arrival{
		At:    time.Duration(g.t * float64(time.Second)),
		Src:   src,
		Dst:   dst,
		Class: class,
	}, true
}

// Digest walks the full stream of (sc, seed) and returns an FNV-1a hash of
// every arrival's fields — the replayability certificate. Two runs whose
// digests match consumed bit-identical workloads; a digest that moves
// without the scenario or seed changing means the generator changed.
func Digest(sc Scenario, seed int64) (string, error) {
	g, err := NewGen(sc, seed)
	if err != nil {
		return "", err
	}
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		mix(uint64(a.At))
		mix(uint64(a.Src))
		mix(uint64(a.Dst))
		mix(uint64(a.Class))
	}
	return fmt.Sprintf("%016x", h), nil
}

// ---------------------------------------------------------------------------
// Deterministic randomness: a self-contained splitmix64. The stdlib PRNG
// would work today, but pinning the algorithm here makes bit-identical
// replay a property of this package rather than of a stdlib compatibility
// promise — the digest column in BENCH_scenarios.json depends on it.

type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	// A zero seed would still work, but mixing the constant in once keeps
	// seed 0 and seed 1 streams unrelated from the first draw.
	return rng{s: seed*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipfSampler draws ranks 0..k-1 with p(j) ∝ 1/(j+1)^s via inverse-CDF
// binary search on the precomputed cumulative weights. s == 0 degenerates
// to the uniform distribution.
type zipfSampler struct{ cdf []float64 }

func newZipfSampler(k int, s float64) zipfSampler {
	cdf := make([]float64, k)
	sum := 0.0
	for j := 0; j < k; j++ {
		sum += 1 / math.Pow(float64(j+1), s)
		cdf[j] = sum
	}
	for j := range cdf {
		cdf[j] /= sum
	}
	return zipfSampler{cdf: cdf}
}

// prob returns the analytic probability of rank j (tests compare empirical
// frequencies against it).
func (z zipfSampler) prob(j int) float64 {
	if j == 0 {
		return z.cdf[0]
	}
	return z.cdf[j] - z.cdf[j-1]
}

func (z zipfSampler) sample(r *rng) int {
	u := r.float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
