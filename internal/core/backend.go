package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/uc"
)

// This file defines the substrate boundary of Algorithm 1. The node logic in
// node.go is written purely against these interfaces, so the same protocol
// code runs over two very different substrates:
//
//   - the deterministic Sim backend below — ideal in-memory shared objects
//     (internal/uc over internal/logobj) stepped by the virtual-time engine,
//     used by the proofs-as-tests and the Table-1 reproductions;
//   - the Live backend (internal/live) — every log a replicated state
//     machine (internal/replog) over paxos inside its hosting group, all of
//     it running over net.Transport (reliable or chaos-wrapped).
//
// The split mirrors §4.3 of the paper: Algorithm 1 is specified against
// shared objects, and the universal construction realises those objects over
// message passing. Here both realisations are first-class. The only object
// is the log: a linearizable log is a consensus object too, so on both
// backends CONS_{m,f} is the first (m, f, k) proposal appended to
// LOG_{dst(m)} (logobj.KindCons), read back with Decided.

// LogObject is the surface of one shared log LOG_{g∩h} (LOG_g when g = h) as
// Algorithm 1 uses it: the two mutators of §4.3 plus the read-side helpers
// the guards evaluate. The mutators start the operation and return; the
// caller waits (Started.Wait) for the results its action reads, so an action
// issues its independent operations together and a replicated backend runs
// them side by side (DESIGN.md §8). The origin argument of the mutators names
// the destination group whose traffic drives the operation (the universal
// construction's contention accounting keys on it; replicated backends may
// ignore it).
type LogObject interface {
	// Append starts LOG.append(d); Wait yields the position of d.
	Append(ctx *engine.Ctx, origin groups.GroupID, d logobj.Datum) Started
	// BumpAndLock starts LOG.bumpAndLock(d, k); Wait yields the position of d.
	BumpAndLock(ctx *engine.Ctx, origin groups.GroupID, d logobj.Datum, k int) Started
	// Contains reports whether d is in the log.
	Contains(d logobj.Datum) bool
	// Batch returns the last request of the batch m heads: the I of m's
	// KindMsg datum, which the first append of m fixed (msg.None when m
	// entered alone or is not in the log).
	Batch(m msg.ID) msg.ID
	// MessagesSince returns the messages appended after the first from
	// message appends, in first-append order — the incremental discovery
	// stream (from is the caller's per-log high-water mark).
	MessagesSince(from int) []msg.ID
	// ScanBefore visits, in ascending log order and without allocating, the
	// messages strictly before d that sit at a position of at least minPos,
	// until fn returns false. The predecessor guards pass their delivered
	// frontier as minPos, so a visit costs the messages in flight, not the
	// log's history. fn must not call back into the log.
	ScanBefore(d logobj.Datum, minPos int, fn func(m msg.ID, pos int) bool)
	// HasPosTuple reports whether some (m, h, -) tuple is in the log.
	HasPosTuple(m msg.ID, h groups.GroupID) bool
	// MaxPosTuple returns max{i : (m,-,i) ∈ L} over position tuples of m.
	MaxPosTuple(m msg.ID) (int, bool)
	// Decided returns the decision of CONS_{m,f}: the k of the first
	// (m, f, k) proposal appended to the log, and whether there is one yet.
	Decided(m msg.ID, f groups.GroupSet) (int, bool)
}

// Started is a mutation of a shared object that has been issued. A backend
// whose objects are ideal completes it at start (Done); a replicated one has
// taken charge of it — it is applied at every replica whether or not anyone
// waits — and hands back the wait (StartedBy).
type Started struct {
	pos     int
	pending Pending // nil: complete, pos is the result
}

// Pending is the unfinished part of a Started operation at a replicated
// backend. Wait blocks until the operation is applied at this process's copy
// of the object (or the backend shut down) and returns the datum's position
// there; it is called at most once.
type Pending interface{ Wait() int }

// Done is an operation that completed when it was started.
func Done(pos int) Started { return Started{pos: pos} }

// StartedBy is an operation whose completion p reports.
func StartedBy(p Pending) Started { return Started{pending: p} }

// Wait blocks until the operation is applied at this process's copy of the
// object and returns the position of its datum.
func (s Started) Wait() int {
	if s.pending != nil {
		return s.pending.Wait()
	}
	return s.pos
}

// Backend supplies the shared objects of a run, from the point of view of
// one process. The Sim backend hands every process the same ideal object;
// replicated backends hand each process its own replica, so reads may lag
// until the replica catches up — exactly the asynchrony Algorithm 1
// tolerates (its guards re-evaluate until they hold).
type Backend interface {
	// Log returns p's handle on LOG_{g∩h} (LOG_g when g == h).
	Log(p groups.Process, g, h groups.GroupID) LogObject
}

// ---------------------------------------------------------------------------
// Sim backend: the deterministic in-memory objects of the engine runs.

// simBackend realises the shared objects as ideal in-memory logs charged per
// the §4.3 universal construction (internal/uc). It is the substrate of every
// deterministic run.
type simBackend struct {
	logs map[PairKey]*uc.Log
}

// newSimBackend builds the ideal objects for a topology: one log per group
// and per intersecting pair, hosted as in §4.3.
func newSimBackend(topo *groups.Topology, opt Options) *simBackend {
	b := &simBackend{logs: make(map[PairKey]*uc.Log)}
	k := topo.NumGroups()
	for g := 0; g < k; g++ {
		gid := groups.GroupID(g)
		for h := g; h < k; h++ {
			hid := groups.GroupID(h)
			inter := topo.Intersection(gid, hid)
			if inter.Empty() {
				continue
			}
			name := fmt.Sprintf("LOG_g%d", g)
			if g != h {
				name = fmt.Sprintf("LOG_g%d∩g%d", g, h)
			}
			// The fallback consensus is hosted by the lower-numbered group
			// ("atop some group, say g"); under StronglyGenuine the
			// intersection hosts itself (Ω_{g∩h} ∧ Σ_{g∩h} are available).
			slow := topo.Group(gid)
			if opt.Variant == StronglyGenuine {
				slow = inter
			}
			l := uc.New(name, inter, slow, opt.ChargeObjects)
			l.Observe(opt.Rec, obs.Pair{A: gid, B: hid})
			b.logs[PairKey{gid, hid}] = l
		}
	}
	return b
}

// ucLog returns the underlying universal-construction log of a pair (the
// ablation tests inspect its fast/slow operation counters).
func (b *simBackend) ucLog(g, h groups.GroupID) *uc.Log {
	l, ok := b.logs[CanonPair(g, h)]
	if !ok {
		panic(fmt.Sprintf("core: no log for g%d∩g%d", g, h))
	}
	return l
}

// Log implements Backend. Every process shares the same ideal object.
func (b *simBackend) Log(p groups.Process, g, h groups.GroupID) LogObject {
	return simLog{b.ucLog(g, h)}
}

// simLog adapts a universal-construction log to the LogObject surface.
type simLog struct{ l *uc.Log }

func (s simLog) Append(ctx *engine.Ctx, origin groups.GroupID, d logobj.Datum) Started {
	return Done(s.l.Append(ctx, origin, d))
}

func (s simLog) BumpAndLock(ctx *engine.Ctx, origin groups.GroupID, d logobj.Datum, k int) Started {
	s.l.BumpAndLock(ctx, origin, d, k)
	return Done(s.l.Inner().Pos(d))
}

func (s simLog) Contains(d logobj.Datum) bool { return s.l.Inner().Contains(d) }
func (s simLog) Batch(m msg.ID) msg.ID        { return s.l.Inner().Batch(m) }
func (s simLog) MessagesSince(from int) []msg.ID {
	return s.l.Inner().MessagesSince(from)
}
func (s simLog) ScanBefore(d logobj.Datum, minPos int, fn func(m msg.ID, pos int) bool) {
	s.l.Inner().ScanBefore(d, minPos, fn)
}
func (s simLog) HasPosTuple(m msg.ID, h groups.GroupID) bool     { return s.l.Inner().HasPosTuple(m, h) }
func (s simLog) MaxPosTuple(m msg.ID) (int, bool)                { return s.l.Inner().MaxPosTuple(m) }
func (s simLog) Decided(m msg.ID, f groups.GroupSet) (int, bool) { return s.l.Inner().Decided(m, f) }
