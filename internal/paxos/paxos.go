// Package paxos implements consensus inside a destination group from
// Ω_g ∧ Σ_g over message passing — the paper's "consensus is wait-free
// solvable in g" (§4). The base protocol is classic synod consensus: a
// proposer that believes itself the leader (per Ω) runs prepare/accept
// phases against quorums (per Σ, realised as majorities); Ω's eventual
// agreement on one correct leader yields termination, quorum intersection
// yields agreement regardless of how many leaders race.
//
// On top of the single-decree core sits a Multi-Paxos steady state for
// slot-structured instance families (the replog substrate): a stable leader
// prepares once for an entire log — a *lease* covering every slot ≥ k of
// the realm — after which each slot costs a single accept round plus a
// decide. Phase 1 is elided until the leader sample changes or a higher
// ballot is observed (a NACK), at which point the proposer falls back to a
// full round. A leased accept asks only the peers that formed the realm's
// last quorum with the leader, and the whole scope when the slot is retried.
// The lease is purely a performance device: acceptors apply the standard
// promise/accept rules (a range promise is just a promise for every covered
// slot at once), so safety is exactly single-decree Paxos's.
//
// Every quorum is gathered the same way: a prepare or accept phase is an
// entry in the node's phase table (launch), the message loop counts the
// votes into it (phaseResp), and it ends exactly once — own quorum, refusal,
// taught decision or deadline (end). Propose launches a phase and waits for
// its result; ProposeWindowed launches a leased accept and does not, so the
// lease holder keeps a *window* of consecutive slots in flight. Decisions
// may land out of slot order; callers (replog) track the decided prefix and
// apply in order. Safety is untouched — every windowed round is an ordinary
// phase 2 under a completed phase 1 — with one extra obligation enforced
// here: at a fixed (slot, ballot) the proposer must never send two different
// values, so the first value fired at a slot under a lease is pinned until
// the slot decides or the lease dies (see proposerLease.used).
package paxos

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

// LeaderFunc is the Ω_g interface: the current leader sample at p.
type LeaderFunc func(p groups.Process) groups.Process

// Value is the opaque consensus value: an immutable byte string. Opaque
// values let one slot carry structured payloads — the replog substrate
// packs an entire batch of log operations into a single Value, so one
// accept round commits many multicasts. Values must not be mutated after
// being handed to the node (they are shared across goroutines and, over
// the in-memory fabric, across processes).
type Value []byte

// I64Value encodes a signed integer as a Value (zigzag varint). The
// inverse is Value.I64.
func I64Value(v int64) Value { return Value(binary.AppendVarint(nil, v)) }

// I64 decodes a Value produced by I64Value; malformed input yields 0.
func (v Value) I64() int64 {
	x, _ := binary.Varint(v)
	return x
}

// Equal reports byte equality of two values.
func (v Value) Equal(o Value) bool { return bytes.Equal(v, o) }

// Instance-ID spaces used by this repository's substrates. Spaces partition
// the instance universe so callers cannot collide; any caller may pick its
// own value.
const (
	// SpaceTest is the default space for tests and ad-hoc instances.
	SpaceTest uint8 = iota
	// SpaceLog is the replog substrate: Realm identifies the log, Slot the
	// position in it. Realms in this space are leasable (Multi-Paxos).
	SpaceLog
)

// InstanceID is the comparable identity of one consensus instance: a slot
// of a realm. Per-slot state is not keyed by it — a node keeps a slot in a
// page of its realm (slotTable).
type InstanceID struct {
	Space uint8
	Realm uint64
	Slot  int64
}

// realmKey identifies an instance family for lease purposes.
type realmKey struct {
	Space uint8
	Realm uint64
}

func (id InstanceID) realm() realmKey { return realmKey{Space: id.Space, Realm: id.Realm} }

// Proposer timing: constants, so that there is one timing to test and
// measure.
const (
	// phaseDeadline bounds one quorum round trip. It must cover not just
	// the fabric's nominal delay but the host's timer granularity (~1ms on
	// common Linux configs), which a delay-injecting fabric pays once per
	// hop: a deadline near 2×granularity makes every round time out and
	// look like a proposer duel when the packets were merely slow.
	phaseDeadline = 10 * time.Millisecond
	// backoffBase is the base of the exponential retry backoff after a
	// failed round (doubles per failure, capped at 16×).
	backoffBase = 100 * time.Microsecond
	// stagger is the per-process skew added to every backoff so dueling
	// proposers desynchronise (p waits p×stagger extra).
	stagger = 137 * time.Microsecond
	// nonLeaderWait is how long a non-leader (per Ω) waits for the
	// leader's decision between checks before it starts hedging rounds of
	// its own.
	nonLeaderWait = 200 * time.Microsecond
	// window is the maximum number of rounds outstanding in a realm for a
	// further leased accept round to be launched (ProposeWindowed's depth).
	window = 8
)

// Config carries what a node is given from outside: where it counts its
// work and where it persists its acceptor state.
type Config struct {
	// Counters is the block the node counts its proposer/acceptor work
	// into for run reports; nil means a private block nobody reads.
	Counters *obs.PaxosCounters
	// WAL is where the acceptor is made durable: every promise, lease grant,
	// accepted value and learnt decision is appended, no phase response
	// leaves the node and no own vote is counted before a group-commit Sync
	// covers the transition it reveals (the durability invariant, wal.go).
	// On construction the node replays the log and serves from the recovered
	// state. nil means a fresh storage.NewMem().
	WAL storage.WAL
}

// Instance is one consensus instance replicated over a scope. The node's
// transport may be the reliable fabric or the adversarial one
// (internal/chaos): prepare and accept are idempotent at a fixed ballot,
// proposers retry rounds under a deadline, and votes are deduplicated by
// acceptor. A node has at most one round outstanding per instance: a second
// caller proposing at it is refused until that round ends (ProposeWindowed
// returns false, Propose backs off and retries).
type Instance struct {
	ID    InstanceID
	Scope groups.ProcSet
	// Net is read by nothing — every packet goes through the transport the
	// node was started on. It stays because amcastbench's paxos probe sets it.
	Net    net.Transport
	Leader LeaderFunc
	// MultiPaxos opts the instance's realm into the leader-lease fast
	// path: the realm's slots form one log proposed at by a stable leader,
	// so a full round doubles as a phase-1 acquisition for all later slots.
	// Single-shot instances (tests) leave it false and get the classic
	// per-instance protocol.
	MultiPaxos bool
}

// leaseGrant is an acceptor's range promise: a grant at (Ballot, FromSlot)
// promises every slot ≥ FromSlot of the realm at once.
type leaseGrant struct {
	Ballot   int64
	FromSlot int64
}

type AcceptedVal struct {
	Ballot int64
	Val    Value
	Has    bool
}

// floorLocked returns the effective promise floor of inst, whose entry is e
// or nil (caller holds mu): the highest of its point promise, its accepted
// ballot — accepting at b is promising b — and any covering range promise.
func (n *Node) floorLocked(inst InstanceID, e *entry) int64 {
	var f int64
	if e != nil {
		f = max(e.promised, e.ballot)
	}
	if lg, ok := n.grants[inst.realm()]; ok && inst.Slot >= lg.FromSlot && lg.Ballot > f {
		f = lg.Ballot
	}
	return f
}

// SlotVal is one (slot, ballot, value) triple of a realm — accepted state
// reported in range grants.
type SlotVal struct {
	Slot   int64
	Ballot int64
	Val    Value
}

type PrepareReq struct {
	Inst   InstanceID
	Ballot int64
	// Range asks for a promise covering every slot ≥ Inst.Slot of the
	// realm — the Multi-Paxos lease acquisition. A plain single-instance
	// prepare leaves it false.
	Range bool
}
type PrepareResp struct {
	Inst     InstanceID
	Ballot   int64
	OK       bool
	Promised int64 // on refusal: the floor that beat us (ballot jump hint)
	Accepted AcceptedVal
	// Range carries, on a range grant, every accepted value of the realm in
	// slots ≥ Inst.Slot: the adoption obligations of the lease.
	Range []SlotVal
	// Decided short-circuits the round: the acceptor already knows the
	// instance's decision and teaches it instead of duelling.
	Decided bool
	DecVal  Value
}
type AcceptReq struct {
	Inst   InstanceID
	Ballot int64
	Val    Value
}
type AcceptResp struct {
	Inst     InstanceID
	Ballot   int64
	OK       bool
	Promised int64 // on refusal: the floor that beat us
	Decided  bool
	DecVal   Value
}
type DecideMsg struct {
	Inst InstanceID
	Val  Value
}

// LearnReq is the anti-entropy probe: "send me your decision for Inst if
// you have one". Passive replicas fall back to it when a decide broadcast
// was dropped by an adversarial fabric; the reply is an ordinary DecideMsg.
type LearnReq struct {
	Inst InstanceID
}

// proposerLease is the proposer side of an acquired lease: the ballot a
// quorum granted for every slot ≥ fromSlot, plus the adoption obligations
// the grant reported (slots some acceptor had already accepted a value in).
type proposerLease struct {
	ballot   int64
	fromSlot int64
	adopt    map[int64]AcceptedVal // slot → highest-ballot reported value
	// used pins the value first fired at a slot under this lease. Phase 1
	// is elided for leased slots, so a retry (after a deadline) that carried
	// a *different* value at the same ballot could get both values accepted
	// at one (slot, ballot) and decide them under distinct quorums — the
	// one safety obligation the lease optimisation adds. Entries are
	// cleared when the slot's decision is learnt; the whole map dies with
	// the lease (a new lease means a new ballot, where phase 1 adoption
	// re-establishes safety the standard way).
	used map[int64]Value
}

// WindowResult is the completion of one windowed accept round. Exactly one
// result is delivered per successful ProposeWindowed call: OK with the
// decided value (ours, an adopted one, or a concurrently learnt decision),
// or !OK when the round ended without a decision (deadline or NACK) — the
// slot may then be a hole the caller must repair via Propose.
type WindowResult struct {
	Inst InstanceID
	Val  Value
	OK   bool
}

// phase is the table entry of one round at an instance: the prepare or the
// accept it is gathering a quorum for. The message loop counts remote votes
// into it, the proposing goroutine the node's own, the node's deadline timer
// ends it if neither a quorum nor a refusal does.
type phase struct {
	inst    Instance
	ballot  int64
	prepare bool  // gathering promises; else acceptances of val
	val     Value // the value of the accept
	// voters are the acceptors counted so far. Votes are deduplicated by
	// acceptor: over an adversarial fabric a packet may be duplicated, and
	// counting the same acceptor twice would fake a quorum and break
	// intersection.
	voters groups.ProcSet
	// open is up while the entry gathers votes; it is down for a full round
	// between its promised quorum and its accept, and for a phase that has
	// ended and is running its effects. A vote that finds it down is late.
	open bool
	// gen counts the entry's launches: the deadline a launch queued ends the
	// phase only while gen is still that launch's (see expire).
	gen uint32
	res chan<- WindowResult
	// fails is the counter a failed ending bumps: WindowFailures or
	// FastRoundFailures for a leased round, nil for the phases of a full
	// round, whose failure Propose's loop counts once.
	fails *int64
	// The harvest of a prepare: the highest-ballot value any promiser had
	// accepted at the instance, and per later slot of the realm the same (the
	// adoption obligations of a range grant).
	best  AcceptedVal
	adopt map[int64]AcceptedVal
}

// pendingResp is a phase response withheld until the durability barrier
// covering its acceptor transition has run (persist-before-reply).
type pendingResp struct {
	to   groups.Process
	t    net.MsgType
	body any
}

// Node bundles the acceptor role and the proposer plumbing of one process.
type Node struct {
	nw       net.Transport
	p        groups.Process
	counters *obs.PaxosCounters
	wal      storage.WAL
	done     chan struct{}

	// outbox holds responses deferred by the message loop until the next
	// group-commit Sync. Only the loop goroutine touches it.
	outbox []pendingResp

	// mu guards every slot's entry, the acceptor's range promises, the
	// Propose calls waiting for a decision — a side table, empty whenever
	// none waits — and rec, the buffer WAL records are encoded into.
	mu      sync.Mutex
	slots   slotTable
	grants  map[realmKey]leaseGrant
	waiters []waiter
	rec     []byte

	// leaseMu guards the proposer-lease table and the refusal-ballot
	// hints. It is taken under phMu (launch) and on its own by the message
	// loop, which ends phases and must drop a NACKed lease.
	leaseMu sync.Mutex
	leases  map[realmKey]*proposerLease
	highest map[realmKey]int64 // highest refusal ballot observed per realm

	// phMu guards the phase table — one entry per instance with a round
	// outstanding — the per-realm entry count, the per-realm voters and the
	// deadline queue; votes come from the message loop and the proposing
	// goroutines, deadlines from the node's one timer.
	phMu   sync.Mutex
	phases map[InstanceID]*phase
	depth  map[realmKey]int
	// voters are, per realm, the peers whose votes with this node's own
	// completed the realm's last accept quorum: where a leased accept is
	// sent first (launch). A realm without an entry asks its whole scope.
	voters map[realmKey]groups.ProcSet
	// deadlines is the phase-deadline FIFO from dlHead on: every launch
	// queues one entry, and since every phase has the same phaseDeadline,
	// launch order is deadline order. dlTimer fires at the first deadline
	// of a phase still open; it is armed exactly while gathering, the number
	// of open phases, is above zero, so an idle node holds no timer.
	deadlines []deadline
	dlHead    int
	dlTimer   *time.Timer
	gathering int

	// hmu guards the extra-handler table (Mount) and serialises writers of
	// the realm-watch list (WatchRealm).
	hmu      sync.RWMutex
	handlers map[net.MsgType]Handler
	// watches is read on every vote and decision: an immutable list behind an
	// atomic pointer (a node hosts a handful of realms, so a scan beats a
	// hash), replaced whole by WatchRealm.
	watches atomic.Pointer[[]realmWatch]

	// propMu guards the proposer's durable ballot high-water mark (see
	// claimBallot): the one piece of proposer state that must survive a
	// crash, because a recovered proposer reusing a (slot, ballot) pair
	// with a different value would break the same-ballot uniqueness the
	// value pin enforces within an incarnation. propMax is the durable
	// mark (every ballot this process ever used is ≤ it), propUsed the last
	// ballot claimed in this incarnation (the durable mark after recovery).
	propMu   sync.Mutex
	propMax  int64
	propUsed int64

	// walAppended counts records appended to the WAL, walSynced is the count
	// a completed barrier is known to cover (see walSync).
	walAppended atomic.Int64
	walSynced   atomic.Int64

	// fenced marks a dead incarnation (see Fence): the proposer side stops
	// claiming ballots and firing rounds, so a power-cycled node's leftover
	// goroutines cannot race its successor.
	fenced atomic.Bool
}

// waiter is a Propose waiting for the decision of inst (await).
type waiter struct {
	inst InstanceID
	ch   chan Value
}

// Fence marks this node as a dead incarnation: Propose and ProposeWindowed
// refuse from now on, and in particular no further ballot is ever claimed.
// A power-cycle harness calls Fence at the moment of the simulated kill -9
// — without it, the old incarnation's still-unwinding proposer goroutines
// could claim a ballot after the successor has already replayed the WAL,
// and two proposers sharing an identity and a ballot can split a quorum
// between two values. Ballots claimed before the fence are durable (claim
// precedes use), so the successor's recovery sees every ballot the old
// incarnation could still be using.
func (n *Node) Fence() { n.fenced.Store(true) }

// Handler is a substrate's receive path for one wire type, mounted on a
// node (see Mount). Dispatch runs on the loop goroutine and must not block.
type Handler interface{ Dispatch(net.Packet) }

// Mount returns the handler mounted for a wire type the node's own dispatch
// does not claim, mounting mk's on first use. The transport delivers one
// inbox per process and this node's loop is its single consumer, so
// substrates sharing the process — replog's op forwarding, for one — mount
// their receive path here; every user of the node reaches the same handler,
// whose state lives exactly as long as the node does. A paxos-owned type is
// a programming error and panics.
func (n *Node) Mount(t net.MsgType, mk func() Handler) Handler {
	switch t {
	case wire.TPaxPrepare, wire.TPaxPrepareResp, wire.TPaxAccept,
		wire.TPaxAcceptResp, wire.TPaxDecide, wire.TPaxLearn:
		panic("paxos: Mount on a paxos-owned wire type")
	}
	n.hmu.Lock()
	defer n.hmu.Unlock()
	if h, ok := n.handlers[t]; ok {
		return h
	}
	if n.handlers == nil {
		n.handlers = make(map[net.MsgType]Handler)
	}
	h := mk()
	n.handlers[t] = h
	return h
}

// WatchRealm registers saw as the observer of one realm: it is called with
// the slot whenever this node's acceptor votes in the realm (decided false)
// or the node learns a decision of it (decided true, once Decided reports
// it) — the two events that tell a passive learner a slot exists, and the
// one that tells it the slot can be applied. It runs on whichever goroutine
// made the transition (the message loop, a proposer), outside the node's
// locks, and must be cheap and non-blocking. One observer per realm; what
// the node already holds for the realm (recovered from the WAL, or voted
// before the caller existed) is reported once, as its highest slot, before
// WatchRealm returns.
func (n *Node) WatchRealm(space uint8, realm uint64, saw func(slot int64, decided bool)) {
	rk := realmKey{Space: space, Realm: realm}
	n.hmu.Lock()
	var ws []realmWatch
	if old := n.watches.Load(); old != nil {
		ws = append(ws, *old...)
	}
	ws = append(ws, realmWatch{realm: rk, saw: saw})
	n.watches.Store(&ws)
	n.hmu.Unlock()
	top, decided := int64(-1), false
	n.mu.Lock()
	n.slots.each(rk, 0, func(slot int64, e *entry) {
		if e.accepted || e.decided {
			top, decided = slot, e.decided
		}
	})
	n.mu.Unlock()
	if top >= 0 {
		saw(top, decided)
	}
}

// realmWatch is one registered realm observer.
type realmWatch struct {
	realm realmKey
	saw   func(slot int64, decided bool)
}

// sawSlot tells the realm's observer, if there is one, that inst exists, and
// whether this is its decision.
func (n *Node) sawSlot(inst InstanceID, decided bool) {
	ws := n.watches.Load()
	if ws == nil {
		return
	}
	rk := inst.realm()
	for _, w := range *ws {
		if w.realm == rk {
			w.saw(inst.Slot, decided)
			return
		}
	}
}

// StartNode launches the node's message loop over a fresh in-memory WAL,
// uncounted.
func StartNode(nw net.Transport, p groups.Process) *Node {
	return StartNodeWithConfig(nw, p, Config{})
}

// StartNodeWithConfig launches the node's message loop with the given
// counters and write-ahead log, recovering acceptor state from the latter.
func StartNodeWithConfig(nw net.Transport, p groups.Process, cfg Config) *Node {
	if cfg.WAL == nil {
		cfg.WAL = storage.NewMem()
	}
	n := &Node{
		nw:       nw,
		p:        p,
		counters: cfg.Counters,
		wal:      cfg.WAL,
		slots:    make(slotTable),
		grants:   make(map[realmKey]leaseGrant),
		done:     make(chan struct{}),
		leases:   make(map[realmKey]*proposerLease),
		highest:  make(map[realmKey]int64),
		phases:   make(map[InstanceID]*phase),
		depth:    make(map[realmKey]int),
		voters:   make(map[realmKey]groups.ProcSet),
	}
	if n.counters == nil {
		n.counters = new(obs.PaxosCounters)
	}
	n.dlTimer = time.AfterFunc(phaseDeadline, n.expire)
	n.dlTimer.Stop()
	n.recover()
	go n.loop()
	return n
}

func (n *Node) loop() {
	defer close(n.done)
	inbox := n.nw.Inbox(n.p)
	for pkt := range inbox {
		n.dispatch(pkt)
		if len(n.outbox) == 0 {
			// A realm's non-voter sends no phase response, so no barrier
			// covers the decisions it learns: they ride one every
			// maxCommitBatch records, and a power cycle costs it fewer
			// re-learns than that.
			if n.walAppended.Load()-n.walSynced.Load() >= maxCommitBatch {
				n.walSync()
			}
			continue
		}
		// Group commit: a dispatch deferred durable phase responses. Absorb
		// whatever burst is already queued so one fsync covers the lot, then
		// run the barrier and flush. Latency is untouched — the drain never
		// waits, it only claims packets that had already arrived.
		more := true
		for more && len(n.outbox) < maxCommitBatch {
			select {
			case pkt2, open := <-inbox:
				if !open {
					more = false // network closed: flush anyway (sends no-op)
					break
				}
				n.dispatch(pkt2)
			default:
				more = false
			}
		}
		n.walSync()
		for _, r := range n.outbox {
			n.nw.Send(n.p, r.to, r.t, r.body)
		}
		n.outbox = n.outbox[:0]
	}
}

// dispatch routes one packet. Dispatch is on the one-byte wire tag, not the
// body's dynamic type: a byte compare per packet instead of an interface
// type switch, and the same switch works whether the body arrived in-memory
// or was decoded from a TCP frame. Runs on the loop goroutine.
func (n *Node) dispatch(pkt net.Packet) {
	switch pkt.Type {
	case wire.TPaxPrepare:
		body, ok := pkt.Body.(PrepareReq)
		if !ok {
			return
		}
		n.reply(pkt.From, wire.TPaxPrepareResp, n.handlePrepare(body))
	case wire.TPaxAccept:
		body, ok := pkt.Body.(AcceptReq)
		if !ok {
			return
		}
		n.reply(pkt.From, wire.TPaxAcceptResp, n.handleAccept(body))
	case wire.TPaxDecide:
		body, ok := pkt.Body.(DecideMsg)
		if !ok {
			return
		}
		n.recordDecision(body.Inst, body.Val)
	case wire.TPaxLearn:
		body, ok := pkt.Body.(LearnReq)
		if !ok {
			return
		}
		if v, ok := n.Decided(body.Inst); ok {
			n.nw.Send(n.p, pkt.From, wire.TPaxDecide, DecideMsg{Inst: body.Inst, Val: v})
		}
	case wire.TPaxPrepareResp:
		// Phases are completed here, in the loop, so a whole window of
		// slots — and the rounds of every realm — make progress concurrently.
		if body, ok := pkt.Body.(PrepareResp); ok {
			n.phaseResp(pkt.From, true, body)
		}
	case wire.TPaxAcceptResp:
		if body, ok := pkt.Body.(AcceptResp); ok {
			n.phaseResp(pkt.From, false, body.vote())
		}
	default:
		n.hmu.RLock()
		h := n.handlers[pkt.Type]
		n.hmu.RUnlock()
		if h != nil {
			h.Dispatch(pkt)
		}
	}
}

// reply defers a phase response to the loop's post-Sync outbox, so the
// acceptor transition it reveals is durable first.
func (n *Node) reply(to groups.Process, t net.MsgType, body any) {
	n.outbox = append(n.outbox, pendingResp{to: to, t: t, body: body})
}

// handlePrepare runs the acceptor's phase-1 rule. A known decision
// short-circuits the round: late proposers get taught instead of duelled.
func (n *Node) handlePrepare(body PrepareReq) PrepareResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.slots.get(body.Inst)
	if e != nil && e.decided {
		return PrepareResp{Inst: body.Inst, Ballot: body.Ballot, Decided: true, DecVal: e.val}
	}
	floor := n.floorLocked(body.Inst, e)
	if body.Ballot <= floor {
		return PrepareResp{Inst: body.Inst, Ballot: body.Ballot, OK: false, Promised: floor}
	}
	resp := PrepareResp{Inst: body.Inst, Ballot: body.Ballot, OK: true}
	if e != nil && e.accepted {
		resp.Accepted = AcceptedVal{Ballot: e.ballot, Val: e.val, Has: true}
	}
	if body.Range {
		// Grant a promise for every slot ≥ Inst.Slot of the realm and
		// report the accepted values the grant must carry (the lease
		// holder's adoption obligations) — a decided slot's as (its
		// accepted ballot, the decision), never skipped (DESIGN.md §11).
		// The scan is acquisition-only cost; the steady state never takes
		// this branch.
		rk := body.Inst.realm()
		n.grants[rk] = leaseGrant{Ballot: body.Ballot, FromSlot: body.Inst.Slot}
		n.walLease(rk, body.Inst.Slot, body.Ballot)
		if body.Inst.Slot < math.MaxInt64 {
			n.slots.each(rk, body.Inst.Slot+1, func(slot int64, e *entry) {
				if e.accepted {
					resp.Range = append(resp.Range, SlotVal{Slot: slot, Ballot: e.ballot, Val: e.val})
				}
			})
		}
	} else {
		n.slots.at(body.Inst).promised = body.Ballot
		n.walVote(walPromise, body.Inst, body.Ballot, nil)
	}
	return resp
}

// handleAccept runs the acceptor's phase-2 rule, teaching a known decision
// instead of voting.
func (n *Node) handleAccept(body AcceptReq) AcceptResp {
	r := AcceptResp{Inst: body.Inst, Ballot: body.Ballot}
	n.mu.Lock()
	if e := n.slots.get(body.Inst); e != nil && e.decided {
		r.Decided, r.DecVal = true, e.val
	} else if r.Promised = n.floorLocked(body.Inst, e); body.Ballot >= r.Promised {
		if e == nil { // a refusal touches no page
			e = n.slots.at(body.Inst)
		}
		r.OK = true
		e.accept(body.Ballot, body.Val)
		n.walVote(walAccept, body.Inst, body.Ballot, body.Val)
	}
	n.mu.Unlock()
	if r.OK {
		n.sawSlot(body.Inst, false)
	}
	return r
}

func (n *Node) recordDecision(inst InstanceID, v Value) {
	n.mu.Lock()
	e := n.slots.at(inst)
	seen := e.decided
	if !seen {
		obs.Inc(&n.counters.Decisions)
		e.decide(v)
		n.walDecide(inst, v)
		if len(n.waiters) > 0 {
			n.waiters = slices.DeleteFunc(n.waiters, func(w waiter) bool {
				if w.inst != inst {
					return false
				}
				w.ch <- v
				return true
			})
		}
	}
	n.mu.Unlock()
	if !seen {
		n.clearPin(inst)
		n.sawSlot(inst, true)
	}
}

// clearPin drops the same-ballot value pin (and any adoption obligation)
// of a slot whose decision is now known — the pin has done its job.
func (n *Node) clearPin(inst InstanceID) {
	n.leaseMu.Lock()
	if lease := n.leases[inst.realm()]; lease != nil {
		delete(lease.used, inst.Slot)
		delete(lease.adopt, inst.Slot)
	}
	n.leaseMu.Unlock()
}

// SnapshotDecisions copies every decision the node has learnt so far —
// the verification hook for tests asserting cross-node agreement (two
// nodes that both decided an instance must hold the same value).
func (n *Node) SnapshotDecisions() map[InstanceID]Value {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[InstanceID]Value)
	for k, pg := range n.slots {
		for i := range pg {
			if e := &pg[i]; e.decided {
				out[InstanceID{Space: k.realm.Space, Realm: k.realm.Realm, Slot: k.page<<pageBits | int64(i)}] = e.val
			}
		}
	}
	return out
}

// Decided reports a locally known decision.
func (n *Node) Decided(inst InstanceID) (Value, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e := n.slots.get(inst); e != nil && e.decided {
		return e.val, true
	}
	return nil, false
}

// await returns a channel that delivers the decision of inst once it is
// learnt locally (immediately if already known) — what Propose waits on.
// The channel never closes; select against Done for shutdown, and unawait
// a channel given up on.
func (n *Node) await(inst InstanceID) <-chan Value {
	ch := make(chan Value, 1)
	n.mu.Lock()
	if e := n.slots.get(inst); e != nil && e.decided {
		ch <- e.val
	} else {
		n.waiters = append(n.waiters, waiter{inst, ch})
	}
	n.mu.Unlock()
	return ch
}

// unawait drops ch from the waiter table, if its decision has not taken it
// out already.
func (n *Node) unawait(ch <-chan Value) {
	n.mu.Lock()
	n.waiters = slices.DeleteFunc(n.waiters, func(w waiter) bool { return w.ch == ch })
	n.mu.Unlock()
}

// Done is closed when the node's message loop exits (network shutdown).
func (n *Node) Done() <-chan struct{} { return n.done }

// WindowLimit returns the maximum number of outstanding windowed
// accept rounds per leased realm. Callers size their result channels with
// it: a channel of at least WindowLimit()+1 can never block a completion.
func (n *Node) WindowLimit() int { return window }

// RequestDecision broadcasts an anti-entropy probe for inst to the scope
// peers: any one that knows the decision replies with it. Safe to call
// repeatedly; used by replicas whose decide broadcast may have been
// dropped.
func (n *Node) RequestDecision(scope groups.ProcSet, inst InstanceID) {
	obs.Inc(&n.counters.Probes)
	n.toPeers(scope, wire.TPaxLearn, LearnReq{Inst: inst})
}

// toPeers sends to every scope member except this process: the node's own
// acceptor/learner state is updated directly, so a loopback packet would
// only burn two trips through the transport.
func (n *Node) toPeers(scope groups.ProcSet, t net.MsgType, body any) {
	scope.Remove(n.p).Each(func(p groups.Process) { n.nw.Send(n.p, p, t, body) })
}

// ownVote makes this node's own promise or accept durable before it is
// counted toward a quorum — rule 2 of the durability invariant (wal.go).
// It runs in the proposing goroutine (the replog submit loop, a Propose
// caller), after the request went out to the peers, so the barrier overlaps
// the round trip; never on the message loop, never under phMu or leaseMu.
func (n *Node) ownVote() { n.walSync() }

// vote widens an accept response to the shape phaseResp counts: a prepare
// response that reports no accepted value.
func (r AcceptResp) vote() PrepareResp {
	return PrepareResp{Inst: r.Inst, Ballot: r.Ballot, OK: r.OK, Promised: r.Promised, Decided: r.Decided, DecVal: r.DecVal}
}

// ---------------------------------------------------------------------------
// The phase table: where every quorum is gathered.

// launch starts one phase of ph's round and reports whether it did: req is
// the PrepareReq or AcceptReq to gather a quorum for, or nil for a leased
// round — the accept is then built from the realm's lease and ph.val
// (leasedAccept), and refused when no lease covers the slot or the realm's
// window is full. A leased accept's first launch goes to the realm's voters
// alone, if any are known; a slot retried under the same lease, a prepare
// and a full round's accept go to the whole scope (DESIGN.md §8, "Thrifty
// accept rounds"). Any launch is refused while another round holds the
// instance: one outstanding round per instance is what keeps two proposers
// at this node from counting each other's votes. The round that owns the
// entry — a full round, back with its accept — relaunches it in place.
//
// Exactly one result per launched phase is delivered on ph.res, possibly
// before launch returns; res must never block, because results are
// delivered by the node's message loop and its deadline timer. launch returns once
// this node's own vote is durable and counted — one WAL barrier, run in the
// caller's goroutine while the request is on the wire.
func (n *Node) launch(ph *phase, req any) bool {
	id := ph.inst.ID
	rk := id.realm()
	n.phMu.Lock()
	cur := n.phases[id]
	leased := req == nil
	if cur != nil && cur != ph || leased && n.depth[rk] >= window {
		n.phMu.Unlock()
		return false
	}
	to := ph.inst.Scope
	if leased {
		lr, retried, ok := n.leasedAccept(id, ph.val)
		if !ok {
			n.phMu.Unlock()
			return false
		}
		req = lr
		if retried {
			obs.Inc(&n.counters.ScopeRetries)
		} else if vs, ok := n.voters[rk]; ok {
			to = vs
		}
	}
	if cur == nil {
		n.phases[id] = ph
		n.depth[rk]++
		if leased {
			obs.Max(&n.counters.WindowDepthPeak, int64(n.depth[rk]))
		}
	}
	acc, accept := req.(AcceptReq)
	prep, prepare := req.(PrepareReq)
	mt := wire.TPaxPrepare
	if accept {
		ph.ballot, ph.val, mt = acc.Ballot, acc.Val, wire.TPaxAccept
	} else {
		ph.ballot = prep.Ballot
	}
	ph.prepare, ph.voters = prepare, 0
	n.openPhase(ph)
	n.phMu.Unlock()

	// The local acceptor is consulted directly — no loopback packets. The
	// vote is appended here and counted after the broadcast (ownVote).
	if !ph.inst.Scope.Has(n.p) {
		n.toPeers(to, mt, req)
		return true
	}
	var own PrepareResp
	if accept {
		own = n.handleAccept(acc).vote()
	} else {
		own = n.handlePrepare(prep)
	}
	if own.OK {
		n.toPeers(to, mt, req)
		// A promise must be durable before it is counted: phase 2's accept
		// leaves on the strength of this quorum, and an acceptor that forgot
		// promise b in a power cycle could promise and accept a lower b'.
		n.ownVote()
	}
	// The own vote takes the path a remote response takes, once durable:
	// in a round asked of the whole scope a quorum of remote acks may have
	// decided the slot meanwhile (then this is a no-op), a singleton scope
	// decides right here; a refusal or a decision known to the local
	// acceptor ends the phase before any packet left.
	n.phaseResp(n.p, prepare, own)
	return true
}

// phaseResp counts one vote — a remote response, on the node's message
// loop, or the node's own, on the proposing goroutine — into the phase it
// answers, and ends the phase on a refusal, a taught decision or a quorum.
func (n *Node) phaseResp(from groups.Process, prepare bool, r PrepareResp) {
	n.phMu.Lock()
	ph := n.phases[r.Inst]
	if ph == nil || !ph.open || ph.ballot != r.Ballot || ph.prepare != prepare ||
		ph.voters.Has(from) || !ph.inst.Scope.Has(from) {
		n.phMu.Unlock()
		// Nobody is waiting for this vote: a duplicate, or the late vote of a
		// phase that ended without it. It may still carry a piggybacked
		// decision, which is absorbed rather than thrown away. It is stale,
		// and counted, only when the instance has neither a round at this
		// node nor a decision: the third ack of a decided slot is not.
		if r.Decided {
			n.recordDecision(r.Inst, r.DecVal)
		} else if _, known := n.Decided(r.Inst); ph == nil && !known {
			obs.Inc(&n.counters.RespStale)
		}
		return
	}
	if r.OK {
		ph.voters = ph.voters.Add(from)
		if r.Accepted.Has && r.Accepted.Ballot > ph.best.Ballot {
			ph.best = r.Accepted
		}
		for _, sv := range r.Range {
			if ph.adopt == nil {
				ph.adopt = make(map[int64]AcceptedVal, len(r.Range))
			}
			if cur, ok := ph.adopt[sv.Slot]; !ok || sv.Ballot > cur.Ballot {
				ph.adopt[sv.Slot] = AcceptedVal{Ballot: sv.Ballot, Val: sv.Val, Has: true}
			}
		}
		if ph.voters.Count() < ph.inst.Scope.Count()/2+1 {
			n.phMu.Unlock()
			return
		}
		if !prepare && ph.voters.Has(n.p) {
			n.voters[r.Inst.realm()] = ph.voters.Remove(n.p)
		}
	}
	n.end(ph, r)
}

// deadline is one entry of the phase-deadline FIFO: the launch numbered gen
// of ph is due to end at at.
type deadline struct {
	ph  *phase
	gen uint32
	at  time.Time
}

// live reports whether d still stands for an open phase: not one that has
// ended, nor one relaunched in place since (a full round's accept leaves its
// prepare's entry queued behind it).
func (d deadline) live() bool { return d.ph.open && d.ph.gen == d.gen }

// openPhase marks ph gathering and queues its deadline (caller holds phMu),
// arming the node's timer if no other phase was open.
func (n *Node) openPhase(ph *phase) {
	ph.open = true
	ph.gen++
	if h := n.dlHead; h > 0 && 2*h >= len(n.deadlines) {
		k := copy(n.deadlines, n.deadlines[h:])
		clear(n.deadlines[k:])
		n.deadlines, n.dlHead = n.deadlines[:k], 0
	}
	n.deadlines = append(n.deadlines, deadline{ph: ph, gen: ph.gen, at: time.Now().Add(phaseDeadline)})
	if n.gathering++; n.gathering == 1 {
		n.dlTimer.Reset(phaseDeadline)
	}
}

// closePhase marks ph no longer gathering (caller holds phMu). When it was
// the last open phase every queued entry is stale: the queue empties and the
// timer is disarmed.
func (n *Node) closePhase(ph *phase) {
	ph.open = false
	if n.gathering--; n.gathering == 0 {
		n.dlTimer.Stop()
		clear(n.deadlines)
		n.deadlines, n.dlHead = n.deadlines[:0], 0
	}
}

// expire is the deadline timer's function. It ends every open phase whose
// deadline has passed, with the zero response, drops the entries of phases
// that ended or were relaunched, and re-arms the timer for the first open
// phase not yet due. The lease survives an expiry — a deadline says nothing
// about higher ballots — so the caller may retry the slot, which the value
// pin keeps safe.
func (n *Node) expire() {
	n.phMu.Lock()
	for n.dlHead < len(n.deadlines) {
		d := n.deadlines[n.dlHead]
		live := d.live()
		if live {
			if wait := time.Until(d.at); wait > 0 {
				n.dlTimer.Reset(wait)
				break
			}
		}
		n.deadlines[n.dlHead] = deadline{}
		n.dlHead++
		if live {
			n.end(d.ph, PrepareResp{}) // releases phMu
			n.phMu.Lock()
		}
	}
	n.phMu.Unlock()
}

// end is where every phase ends, exactly once: r is the vote that completed
// its quorum (OK), refused it or taught it the decision, or the zero
// response of the deadline. The caller holds phMu and has found ph
// gathering; end releases the lock before the phase's effects, which call
// out of the node (realm observers, the transport), and delivers the result
// last, once the instance is free for its next round.
func (n *Node) end(ph *phase, r PrepareResp) {
	n.closePhase(ph)
	n.phMu.Unlock()
	id := ph.inst.ID
	rk := id.realm()
	out := WindowResult{Inst: id, OK: r.OK}
	switch {
	case r.Decided:
		// Taught instead of duelled. The decision ends an accept as well as
		// a quorum would; a prepare's round has failed, and Propose's decided
		// check picks the value up.
		n.recordDecision(id, r.DecVal)
		out.Val, out.OK = r.DecVal, !ph.prepare
	case !r.OK:
		if ph.fails != nil {
			obs.Inc(ph.fails)
		}
		if r.Promised > 0 { // a NACK; the deadline carries no ballot
			n.leaseMu.Lock()
			if r.Promised > n.highest[rk] {
				n.highest[rk] = r.Promised
			}
			// A higher ballot is loose in the realm: a lease below it is
			// stale. The caller falls back to the full protocol, which
			// re-acquires.
			if lease := n.leases[rk]; lease != nil && lease.ballot < r.Promised {
				obs.Inc(&n.counters.LeasesLost)
				delete(n.leases, rk)
			}
			n.leaseMu.Unlock()
		}
	case !ph.prepare:
		// Teach the scope the decision, recording it locally first, without
		// a loopback packet. No barrier: every vote the decision rests on was
		// durable before it was counted (the durability invariant, wal.go).
		n.recordDecision(id, ph.val)
		n.toPeers(ph.inst.Scope, wire.TPaxDecide, DecideMsg{Inst: id, Val: ph.val})
		out.Val = ph.val
	}
	if !(ph.prepare && r.OK) {
		// A promised quorum keeps the entry for the round's accept; every
		// other ending frees the instance. Until here a late vote finds the
		// entry, afterwards the decision if there is one — never neither.
		n.phMu.Lock()
		delete(n.phases, id)
		n.depth[rk]--
		n.phMu.Unlock()
	}
	ph.res <- out
}

// ProposeWindowed fires one phase-1-elided accept round for inst without
// waiting for it to conclude. It returns true when the round was fired (or
// resolved on the spot); exactly one WindowResult for inst will then be
// delivered on res — possibly before ProposeWindowed returns. It returns
// false, firing nothing, when the instance is not a leased Multi-Paxos
// realm at this leader, the realm's window is full, or another round holds
// the instance; the caller falls back to Propose (which acquires the lease)
// or waits for capacity.
//
// Callers must size res so it never blocks (≥ WindowLimit()+1): see launch,
// which this is but for the wait.
func (n *Node) ProposeWindowed(inst *Instance, v Value, res chan<- WindowResult) bool {
	if n.fenced.Load() || !inst.MultiPaxos || inst.Leader(n.p) != n.p {
		return false
	}
	if got, ok := n.Decided(inst.ID); ok {
		res <- WindowResult{Inst: inst.ID, Val: got, OK: true}
		return true
	}
	if !n.launch(&phase{inst: *inst, val: v, res: res, fails: &n.counters.WindowFailures}, nil) {
		return false
	}
	obs.Inc(&n.counters.WindowRounds)
	return true
}

// ---------------------------------------------------------------------------
// Proposals that wait.

// Propose runs the synod protocol for the instance until a decision is
// learnt and returns it. Non-leaders (per Ω) wait for the leader's decision
// and only proposer-race when their leader sample points at themselves.
// Leaders of MultiPaxos realms ride the lease fast path when one is held.
// Propose never returns a wrong value; it returns ok=false only when the
// network shuts down first.
func (n *Node) Propose(inst *Instance, v Value) (_ Value, ok bool) {
	obs.Inc(&n.counters.Proposals)
	if n.fenced.Load() {
		return nil, false
	}
	if got, ok := n.Decided(inst.ID); ok {
		return got, true
	}
	decidedCh := n.await(inst.ID)
	defer func() {
		if !ok { // a decision has not taken the channel out of the table
			n.unawait(decidedCh)
		}
	}()
	ballotRound := n.propRoundFloor()
	// Non-leaders park on the decision channel for one hedge window before
	// proposing themselves. One timer for the whole window, not a polling
	// loop: on hosts with ~1ms timer granularity a loop of N short sleeps
	// costs N×granularity, which dominated follower-side latency.
	hedgeWait := 25 * nonLeaderWait
	mustWait := true
	fails := 0
	for {
		// Fast path: someone decided.
		select {
		case got := <-decidedCh:
			return got, true
		case <-n.done:
			return nil, false
		default:
		}
		isLeader := inst.Leader(n.p) == n.p
		// Steady state: a held lease turns the proposal into a single
		// accept round. Any failure falls through to the full protocol.
		if isLeader && inst.MultiPaxos {
			if val, ok := n.leasedRound(inst, v); ok {
				return val, true
			}
			select {
			case got := <-decidedCh:
				return got, true
			default:
			}
		}
		// Non-leaders wait for the leader's decision, but hedge after the
		// window: the decision broadcast may have been dropped, and running
		// a round is always safe (quorum intersection), only contended.
		if !isLeader && mustWait {
			mustWait = false
			select {
			case got := <-decidedCh:
				return got, true
			case <-n.done:
				return nil, false
			case <-time.After(hedgeWait):
			}
			continue
		}
		// Jump past every refusal ballot observed for the realm, so one
		// NACK is enough to out-ballot an incumbent instead of climbing
		// towards it 64 at a time.
		n.leaseMu.Lock()
		if hb := n.highest[inst.ID.realm()]; hb/64 >= ballotRound {
			ballotRound = hb/64 + 1
		}
		n.leaseMu.Unlock()
		ballotRound++
		ballot := ballotRound*64 + int64(n.p) + 1
		// A fenced (dead-incarnation) proposer must never claim another
		// ballot: its successor has already replayed the claims to date.
		if n.fenced.Load() {
			return nil, false
		}
		n.claimBallot(ballot)
		obs.Inc(&n.counters.Rounds)
		if val, ok := n.round(inst, ballot, v); ok {
			return val, true
		}
		select {
		case got := <-decidedCh:
			return got, true
		default:
		}
		obs.Inc(&n.counters.RoundFailures)
		// The round failed: likely a ballot duel. Over a slow or lossy
		// fabric rounds take long enough to overlap, and symmetric retries
		// livelock (dueling proposers). Back off for a period that grows
		// with the failure count and is skewed per process so contenders
		// desynchronise, and send non-leaders back to waiting on the
		// leader — Ω's boost is what breaks the duel for good.
		fails++
		shift := uint(fails)
		if shift > 4 {
			shift = 4
		}
		backoff := backoffBase<<shift + time.Duration(n.p)*stagger
		select {
		case got := <-decidedCh:
			return got, true
		case <-n.done:
			return nil, false
		case <-time.After(backoff):
		}
		if inst.Leader(n.p) != n.p {
			// Yield to the leader again before the next self-try, with a
			// shorter window than the first (the duel is already on).
			hedgeWait = 10 * nonLeaderWait
			mustWait = true
		}
	}
}

// leasedAccept builds the phase-1-elided accept request for id at the lease
// ballot this node holds, or reports ok=false when no lease covers the slot.
// It is the one place the lease's safety obligation is discharged: the value
// is the one phase 1 obliged the lease to adopt if there is one, else v, and
// a slot retried under the same lease carries the value it was first fired
// with (lease.used) — one ballot never proposes two values. retried reports
// that the slot was fired under this lease before.
func (n *Node) leasedAccept(id InstanceID, v Value) (req AcceptReq, retried, ok bool) {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	lease := n.leases[id.realm()]
	if lease == nil || id.Slot < lease.fromSlot {
		return AcceptReq{}, false, false
	}
	val := v
	if av, ok := lease.adopt[id.Slot]; ok {
		val = av.Val
	}
	if pv, ok := lease.used[id.Slot]; ok {
		val, retried = pv, true
	} else {
		lease.used[id.Slot] = val
	}
	return AcceptReq{Inst: id, Ballot: lease.ballot, Val: val}, retried, true
}

// leasedRound attempts the Multi-Paxos steady-state path: one accept round at
// the held lease ballot, no phase 1, waited for. It reports ok=false when
// there is no covering lease (or the instance is busy) or the round did not
// conclude — the lease is dropped on any refusal (end) and the caller falls
// back to the full protocol. Safety: the lease ballot was granted by a
// quorum for every slot ≥ fromSlot, so this is phase 2 of a completed phase
// 1, with adoption obligations carried in lease.adopt and retried slots
// pinned to their first value (lease.used).
func (n *Node) leasedRound(inst *Instance, v Value) (Value, bool) {
	res := make(chan WindowResult, 1)
	if !n.launch(&phase{inst: *inst, val: v, res: res, fails: &n.counters.FastRoundFailures}, nil) {
		return nil, false
	}
	obs.Inc(&n.counters.FastRounds)
	r := <-res
	return r.Val, r.OK
}

// round runs one full prepare/accept round and reports the value it got
// decided, or false on a refusal, a deadline, or an instance another round
// holds. When the instance is MultiPaxos and this process is the leader
// sample, the prepare is a range acquisition: success both decides this
// slot and installs a proposer lease for every later slot of the realm.
func (n *Node) round(inst *Instance, ballot int64, v Value) (Value, bool) {
	acquire := inst.MultiPaxos && inst.Leader(n.p) == n.p
	res := make(chan WindowResult, 1)
	ph := &phase{inst: *inst, res: res}
	if !n.launch(ph, PrepareReq{Inst: inst.ID, Ballot: ballot, Range: acquire}) || !(<-res).OK {
		return nil, false
	}
	val := v
	if ph.best.Has {
		val = ph.best.Val
	}
	n.launch(ph, AcceptReq{Inst: inst.ID, Ballot: ballot, Val: val}) // the round's own entry: never refused
	r := <-res
	if !r.OK {
		return nil, false
	}
	if acquire {
		// The quorum granted every slot ≥ this one at this ballot: install
		// the lease so subsequent slots elide phase 1. Adoption obligations
		// for this slot are consumed here; the rest ride along.
		if ph.adopt == nil {
			ph.adopt = make(map[int64]AcceptedVal)
		}
		delete(ph.adopt, inst.ID.Slot)
		n.leaseMu.Lock()
		n.leases[inst.ID.realm()] = &proposerLease{
			ballot:   ballot,
			fromSlot: inst.ID.Slot,
			adopt:    ph.adopt,
			used:     make(map[int64]Value),
		}
		n.leaseMu.Unlock()
		obs.Inc(&n.counters.LeasesAcquired)
	}
	return r.Val, true
}

// Wait blocks until the node's loop exits.
func (n *Node) Wait() { <-n.done }
