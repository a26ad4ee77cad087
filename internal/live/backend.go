// Package live runs Algorithm 1 over the real message-passing stack: every
// shared log is an internal/replog replicated state machine (per-slot paxos
// inside its hosting group) and every CONS_{m,f} the first proposal appended
// to LOG_{dst(m)}, all over a net.Transport — the reliable fabric or the
// adversarial one (internal/chaos). It is the §4.3 composition made concrete: the node logic
// of internal/core is substrate-agnostic, and this package supplies the
// replicated substrate, where the deterministic engine supplies the ideal
// one.
//
// The System type in system.go drives a full run: one goroutine per process
// stepping its core.Node against this backend when there is work and parked
// when there is none, a clock nobody ticks — the tick is read off the wall
// time since Start (failure detectors and crash schedules key on ticks) —
// and trace extraction for internal/check.
package live

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/replog"
	"repro/internal/storage"
)

// Backend implements core.Backend over replicated logs; consensus is read
// off the group logs. Each process has one paxos node (acceptor + proposer)
// on the transport and one replog replica per log it touches; replicas of a
// log replicate over the log's hosting group.
type Backend struct {
	topo   *groups.Topology
	reg    *msg.Registry
	nw     net.Transport
	mu     *fd.Mu
	clock  func() failure.Time
	strong bool // StronglyGenuine: host LOG_{g∩h} inside g∩h
	rec    *obs.Recorder

	nodes []*paxos.Node

	// notify, when set, is invoked with the owning process whenever one of
	// its replicas applies decided operations (see SetNotify).
	notify func(groups.Process)

	lk   sync.Mutex
	reps map[repKey]*replog.Replica
}

type repKey struct {
	p    groups.Process
	pair core.PairKey
}

var _ core.Backend = (*Backend)(nil)

// NewBackend builds the replicated substrate: one paxos node per local
// process of the membership descriptor (an empty descriptor means every
// process); replicas are created on demand. clock supplies the current tick for failure-detector queries (leader election
// follows Ω at the current time). rec, when non-nil, receives the
// substrate's counters (paxos work, replog applies, per-pair coordination).
// store supplies each local process's WAL (nil for none — acceptors then
// run memory-only with no recovery). In a multi-process deployment each
// daemon's backend runs acceptors only for the processes it embodies — the
// rest answer from their own OS processes over the transport.
func NewBackend(topo *groups.Topology, reg *msg.Registry, mu *fd.Mu, nw net.Transport, clock func() failure.Time, strong bool, rec *obs.Recorder, mem Membership, store func(groups.Process) storage.WAL) *Backend {
	b := &Backend{
		topo:   topo,
		reg:    reg,
		nw:     nw,
		mu:     mu,
		clock:  clock,
		strong: strong,
		rec:    rec,
		nodes:  make([]*paxos.Node, topo.NumProcesses()),
		reps:   make(map[repKey]*replog.Replica),
	}
	for p := range b.nodes {
		if !mem.Owns(groups.Process(p)) {
			continue
		}
		cfg := paxos.Config{Counters: rec.Paxos()}
		if store != nil {
			cfg.WAL = store(groups.Process(p))
		}
		b.nodes[p] = paxos.StartNodeWithConfig(nw, groups.Process(p), cfg)
	}
	return b
}

// SetNotify installs the change-notification fan-in: fn(p) is called (from
// replica apply paths — it must be cheap and non-blocking) whenever p's copy
// of some log gains decided operations. The live System routes it to the
// per-process wakeup channels so stepping is event-driven rather than
// polled. Call before the first Log — replicas attach the hook at creation.
func (b *Backend) SetNotify(fn func(groups.Process)) { b.notify = fn }

// hosting returns the replication scope of LOG_{g∩h} and the Ω that elects
// its paxos leader. As in the Sim backend, the lower-numbered group hosts
// ("atop some group, say g"); under the strongly genuine variation the
// intersection hosts itself from Ω_{g∩h} ∧ Σ_{g∩h}.
func (b *Backend) hosting(pair core.PairKey) (groups.ProcSet, fd.Omega) {
	if pair.A == pair.B {
		return b.topo.Group(pair.A), b.mu.OmegaFor(pair.A)
	}
	if b.strong {
		if o, ok := b.mu.OmegaIntersectionFor(pair.A, pair.B); ok {
			return b.topo.Intersection(pair.A, pair.B), o
		}
	}
	return b.topo.Group(pair.A), b.mu.OmegaFor(pair.A)
}

// leaderFunc adapts an Ω history to the paxos leader interface, sampling it
// at the backend's current tick. With no leader sample yet the process
// trusts itself — safe (quorum intersection), merely contended.
func (b *Backend) leaderFunc(o fd.Omega) paxos.LeaderFunc {
	return func(q groups.Process) groups.Process {
		if l, ok := o.Leader(q, b.clock()); ok {
			return l
		}
		return q
	}
}

// Log implements core.Backend: p's view of its replica of LOG_{g∩h}. It
// carries what coordination recording needs: the pair label and the
// replication scope every mutation coordinates (the live substrate has no
// adopt-commit fast path — every operation is a replicated slot in the
// hosting scope).
func (b *Backend) Log(p groups.Process, g, h groups.GroupID) core.LogObject {
	pair := core.CanonPair(g, h)
	scope, _ := b.hosting(pair)
	return liveLog{r: b.replica(p, pair), rec: b.rec, pair: obs.Pair{A: pair.A, B: pair.B}, scope: scope}
}

// replica returns p's replica of the pair's log, created on first use (the
// replica starts its apply loop immediately).
func (b *Backend) replica(p groups.Process, pair core.PairKey) *replog.Replica {
	key := repKey{p: p, pair: pair}
	b.lk.Lock()
	defer b.lk.Unlock()
	if r, ok := b.reps[key]; ok {
		return r
	}
	name := fmt.Sprintf("LOG_g%d", pair.A)
	if pair.A != pair.B {
		name = fmt.Sprintf("LOG_g%d∩g%d", pair.A, pair.B)
	}
	// The realm packs the canonical pair: distinct pair logs get distinct
	// Multi-Paxos realms on the shared per-process paxos node.
	realm := uint64(pair.A)<<32 | uint64(uint32(pair.B))
	scope, omega := b.hosting(pair)
	// Only the members of g∩h hold a replica of LOG_{g∩h}, but Ω of the
	// hosting group may name any of its members: a leader that has no replica
	// has no batcher to forward to and no use for the lease, so such a sample
	// reads as "lead it yourself". (A group log's g∩g is the whole group.)
	hosts := b.topo.Intersection(pair.A, pair.B)
	sample := b.leaderFunc(omega)
	leader := func(q groups.Process) groups.Process {
		if l := sample(q); hosts.Has(l) {
			return l
		}
		return q
	}
	r := replog.NewReplica(name, realm, p, b.nodes[p], b.nw, scope, leader)
	r.Observe(b.rec.Replog())
	if b.notify != nil {
		pp := p
		r.OnApply(func() { b.notify(pp) })
	}
	// Conflict-class plumbing: stamp locally enqueued message appends with
	// the registry's tag and adopt tags arriving in decided ops, so every
	// replica — including daemons whose local schedule carried no tag — ends
	// up evaluating the same class-induced relation. Both hooks read only the
	// replicated schedule (message IDs are positional), so they are
	// deterministic across replicas as SetClassHooks requires.
	r.SetClassHooks(
		func(d logobj.Datum) uint64 {
			if d.Kind != logobj.KindMsg {
				return 0
			}
			return uint64(b.reg.ClassOf(d.Msg))
		},
		func(d logobj.Datum, c uint64) {
			if d.Kind != logobj.KindMsg {
				return
			}
			b.reg.LearnClass(d.Msg, msg.Class(c))
		},
	)
	b.reps[key] = r
	return r
}

// Cons implements core.Backend: CONS_{m,fam} is hosted by dst(m) (consensus
// is solvable in each group from Σ_g ∧ Ω_g), and LOG_{dst(m)} is a
// linearizable object that group already hosts — so the decision is the first
// (m, fam, k) proposal appended to it (logobj.KindCons). The proposal is one
// more op in the log's leased, batched slot stream and recovers, forwards and
// journals with it.
func (b *Backend) Cons(p groups.Process, m msg.ID, fam groups.GroupSet) core.Consensus {
	dst := b.reg.Get(m).Dst
	return liveCons{r: b.replica(p, core.PairKey{A: dst, B: dst}), key: logobj.ConsDatum(m, fam, 0)}
}

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

// liveCons is p's handle on one CONS_{m,f}: its replica of LOG_{dst(m)} and
// the (m, f, ·) proposal datum with the value left open.
type liveCons struct {
	r   *replog.Replica
	key logobj.Datum
}

// Propose appends (m, f, v) — a no-op that completes at once if this copy of
// the log already holds a decision — and reads the decision back.
func (c liveCons) Propose(ctx *engine.Ctx, v int) int {
	d := c.key
	d.I = v
	c.r.Append(d).Wait()
	c.r.Read(func(l *logobj.Log) {
		if k, ok := l.Decided(d.Msg, groups.GroupSet(d.H)); ok {
			v = k
		}
	})
	return v // undecided only at shutdown: the value is never observed (trace is frozen)
}
