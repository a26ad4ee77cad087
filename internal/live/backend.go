// Package live runs Algorithm 1 over the real message-passing stack: every
// shared log is an internal/replog replicated state machine (per-slot paxos
// inside its hosting group), all over a net.Transport — the reliable fabric
// or the adversarial one (internal/chaos). CONS_{m,f} is, as on the Sim
// backend, the first proposal appended to LOG_{dst(m)}: one more op in the
// group log's leased, batched slot stream, which recovers, forwards and
// journals with it. It is the §4.3 composition made concrete: the node logic
// of internal/core is substrate-agnostic, and this package supplies the
// replicated substrate, where the deterministic engine supplies the ideal
// one.
//
// One type does all of it. System is a run — one goroutine per process
// stepping its core.Node when there is work and parked when there is none,
// and a clock nobody ticks: the tick is read off the wall time since Start
// (failure detectors and crash schedules key on ticks) — and it is the run's
// core.Backend, this file: one paxos node per process it embodies and one
// replog replica per log such a process touches, replicated over the log's
// hosting group.
package live

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/replog"
)

var _ core.Backend = (*System)(nil)

// repKey names one process's replica of one pair log.
type repKey struct {
	p    groups.Process
	pair core.PairKey
}

// hosting returns the replication scope of LOG_{g∩h} and the Ω that elects
// its paxos leader. As in the Sim backend, the lower-numbered group hosts
// ("atop some group, say g"); under the strongly genuine variation the
// intersection hosts itself from Ω_{g∩h} ∧ Σ_{g∩h}.
func (s *System) hosting(pair core.PairKey) (groups.ProcSet, fd.Omega) {
	mu := s.Sh.Mu
	if pair.A == pair.B {
		return s.Topo.Group(pair.A), mu.OmegaFor(pair.A)
	}
	if s.Sh.Opt.Variant == core.StronglyGenuine {
		if o, ok := mu.OmegaIntersectionFor(pair.A, pair.B); ok {
			return s.Topo.Intersection(pair.A, pair.B), o
		}
	}
	return s.Topo.Group(pair.A), mu.OmegaFor(pair.A)
}

// leaderFunc adapts Ω_P, P the scope, to the paxos leader interface,
// sampling it at the current tick. With no leader sample yet the process
// trusts itself — safe (quorum intersection), merely contended. The ideal Ω
// (fd.NewOmega) outputs one leader at every member of P from the tick
// pat.Horizon()+Delay on, as long as P has a correct member; a sample that
// has seen that tick caches it, and every later one answers without reading
// the clock.
func (s *System) leaderFunc(scope groups.ProcSet, o fd.Omega) paxos.LeaderFunc {
	stable := s.Pat.Horizon() + s.Sh.Opt.FD.Delay
	settles := !s.Pat.Correct().Intersect(scope).Empty()
	var settled atomic.Int64 // the stable leader + 1; 0 until a sample sees it
	return func(q groups.Process) groups.Process {
		if l := settled.Load(); l != 0 {
			if scope.Has(q) {
				return groups.Process(l - 1)
			}
			return q
		}
		t := s.Now()
		l, ok := o.Leader(q, t)
		if !ok {
			return q
		}
		if settles && t >= stable {
			settled.Store(int64(l) + 1)
		}
		return l
	}
}

// Log implements core.Backend: p's view of its replica of LOG_{g∩h}. It
// carries what coordination recording needs: the pair label and the
// replication scope every mutation coordinates (the live substrate has no
// adopt-commit fast path — every operation is a replicated slot in the
// hosting scope).
func (s *System) Log(p groups.Process, g, h groups.GroupID) core.LogObject {
	pair := core.CanonPair(g, h)
	scope, _ := s.hosting(pair)
	return liveLog{r: s.replica(p, pair), rec: s.Sh.Opt.Rec, pair: obs.Pair{A: pair.A, B: pair.B}, scope: scope}
}

// replica returns p's replica of the pair's log, created on first use (the
// replica starts its apply loop immediately). It counts into the recorder
// and wakes p's stepper whenever it applies decided operations.
func (s *System) replica(p groups.Process, pair core.PairKey) *replog.Replica {
	key := repKey{p: p, pair: pair}
	s.lk.Lock()
	defer s.lk.Unlock()
	if r, ok := s.reps[key]; ok {
		return r
	}
	name := fmt.Sprintf("LOG_g%d", pair.A)
	if pair.A != pair.B {
		name = fmt.Sprintf("LOG_g%d∩g%d", pair.A, pair.B)
	}
	scope, omega := s.hosting(pair)
	// Only the members of g∩h hold a replica of LOG_{g∩h}, but Ω of the
	// hosting group may name any of its members: a leader that has no replica
	// has no batcher to forward to and no use for the lease, so such a sample
	// reads as "lead it yourself". (A group log's g∩g is the whole group.)
	hosts := s.Topo.Intersection(pair.A, pair.B)
	sample := s.leaderFunc(scope, omega)
	leader := func(q groups.Process) groups.Process {
		if l := sample(q); hosts.Has(l) {
			return l
		}
		return q
	}
	r := replog.NewReplica(name, pairRealm(pair), p, s.pax[p], s.Net, scope, leader,
		s.Sh.Opt.Rec.Replog(), func() { s.wake(p) })
	s.reps[key] = r
	return r
}

// pairRealm is a pair log's Multi-Paxos realm on the per-process paxos node:
// it packs the canonical pair, so distinct pair logs get distinct realms.
func pairRealm(pair core.PairKey) uint64 { return uint64(pair.A)<<32 | uint64(uint32(pair.B)) }

// liveLog adapts a replog replica to the core.LogObject surface. Mutators
// enqueue the operation at the replica, which sees it decided and applied
// whether or not the caller waits; reads run against the local copy, which
// may lag the decided prefix — the node guards simply stay false until the
// apply loop catches up.
type liveLog struct {
	r     *replog.Replica
	rec   *obs.Recorder
	pair  obs.Pair
	scope groups.ProcSet
}

func (l liveLog) Append(ctx *engine.Ctx, origin groups.GroupID, d logobj.Datum) core.Started {
	l.rec.Coordination(l.pair, l.scope, false)
	return core.StartedBy(pending(l.r.Append(d)))
}

func (l liveLog) BumpAndLock(ctx *engine.Ctx, origin groups.GroupID, d logobj.Datum, k int) core.Started {
	l.rec.Coordination(l.pair, l.scope, false)
	return core.StartedBy(pending(l.r.BumpAndLock(d, k)))
}

// pending adapts a started replog operation to core.Pending: at shutdown the
// position is the best-effort local answer.
type pending replog.Started

func (p pending) Wait() int {
	pos, _ := replog.Started(p).Wait()
	return pos
}

func (l liveLog) Contains(d logobj.Datum) bool {
	var out bool
	l.r.Read(func(lg *logobj.Log) { out = lg.Contains(d) })
	return out
}

func (l liveLog) Batch(m msg.ID) msg.ID {
	var out msg.ID
	l.r.Read(func(lg *logobj.Log) { out = lg.Batch(m) })
	return out
}

func (l liveLog) MessagesSince(from int) []msg.ID {
	var out []msg.ID
	l.r.Read(func(lg *logobj.Log) { out = lg.MessagesSince(from) })
	return out
}

// ScanBefore runs the whole visit under one replica read lock: fn only reads
// node-local phase state, and the walk is bounded by the messages in flight
// above minPos, so the apply loop waits for a guard no longer than that.
func (l liveLog) ScanBefore(d logobj.Datum, minPos int, fn func(m msg.ID, pos int) bool) {
	l.r.Read(func(lg *logobj.Log) { lg.ScanBefore(d, minPos, fn) })
}

func (l liveLog) HasPosTuple(m msg.ID, h groups.GroupID) bool {
	var out bool
	l.r.Read(func(lg *logobj.Log) { out = lg.HasPosTuple(m, h) })
	return out
}

func (l liveLog) MaxPosTuple(m msg.ID) (int, bool) {
	var out int
	var ok bool
	l.r.Read(func(lg *logobj.Log) { out, ok = lg.MaxPosTuple(m) })
	return out, ok
}

func (l liveLog) Decided(m msg.ID, f groups.GroupSet) (int, bool) {
	var out int
	var ok bool
	l.r.Read(func(lg *logobj.Log) { out, ok = lg.Decided(m, f) })
	return out, ok
}
