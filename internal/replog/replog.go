// Package replog is a live universal construction (Herlihy, §4.3 of the
// paper): the shared log object replicated over message passing by funnelling
// operations through an unbounded sequence of consensus instances — solved by
// the paxos substrate (Ω ∧ Σ inside the hosting group). Every replica applies
// the decided operations in slot order to its local copy of the log, so the
// replicated object linearizes to the sequential specification of
// internal/logobj.
//
// Slots carry *batches*: a background submit loop gathers every operation
// pending at this replica into one consensus value (EncodeBatch), so a single
// accept round commits many operations. Under a Multi-Paxos lease the loop
// additionally pipelines — it fires a window of consecutive slots through
// paxos.ProposeWindowed without waiting for each to decide — and the decided
// prefix (slot) tracked here guarantees out-of-order decisions still apply in
// order. A failed windowed round can leave a hole below decided later slots;
// the loop then drains the window and repairs the realm synchronously from
// the decided prefix, which cannot skip the hole.
//
// This is the live counterpart of the in-memory objects the deterministic
// engine uses, but not of their costs: the engine's charge model
// (internal/uc) charges a contention-free operation on LOG_{g∩h} to g∩h
// alone (the adopt-commit fast path of §4.3), while here every operation is
// a consensus slot voted on by the log's whole hosting scope.
package replog

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/wire"
)

// opKind is the operation type funnelled through consensus.
type opKind int64

const (
	opAppend opKind = iota + 1
	opBumpAndLock
)

// Op is one log operation. Class is the conflict-class tag of the datum's
// message (0 for non-message datums and for runs without a conflict
// relation): it rides the consensus value so every replica of the log learns
// the tag from the decided op stream, even when its local schedule never
// registered it. Ops compare with ==, so the class hooks must be
// deterministic — every replica stamping the same datum must produce the
// same tag.
type Op struct {
	Kind  opKind
	Datum logobj.Datum
	K     int
	Class uint64
}

// maxBatchOps caps how many pending operations one slot may carry. The cap
// bounds frame size and the latency cost of replaying one slot; 64 is far
// above the steady-state batch size even under the open-throttle bench.
const maxBatchOps = 64

// Anti-entropy timing. A replica waiting at its frontier slot probes the
// scope for the decision only while it has evidence that the slot exists
// (see evidence); the first such hedge comes hedgeDelay after the evidence
// — twice the evidence→decision interval this replica has been observing,
// no sooner than nudgeEvery and no later than probeCap — and later ones back
// off by doubling up to probeCap. Without evidence the tail of the log is
// quiet, not stalled: the loop parks and sends one probe per idleProbe, the
// backstop for "accept and decide both lost, then the log went idle", which
// bounds the healing time of that case by idleProbe plus a round trip.
const (
	nudgeEvery = 2 * time.Millisecond
	probeCap   = 64 * time.Millisecond
	idleProbe  = time.Second
)

// wstate is the lifecycle of one queued operation.
type wstate int

const (
	statePending  wstate = iota // waiting to be put in a batch
	stateInflight               // part of a fired (or syncing) batch
	stateDone                   // completed; result sent on done
)

// waiter is one caller blocked on an operation. done is buffered so the
// apply path never blocks completing it; it is nil for operations forwarded
// here by another replica (enqueueRemote) — the forwarder's own waiter
// completes at its site when the decided slot applies there. enq and fwd
// drive the follower-side forwarding schedule (see forward.go).
type waiter struct {
	op    Op
	state wstate
	done  chan bool
	enq   time.Time
	fwd   bool
}

// Replica is one process's handle on the replicated log: a local copy of
// the object plus the consensus plumbing to agree on the operation order.
//
// Two background loops drive it: the apply loop follows the decided slots
// in order and applies them to the local copy the moment they are learnt,
// and the submit loop batches queued operations into slots and pipelines
// them through the paxos window. Waiters block on per-operation channels
// completed at apply time, so there is no polling anywhere.
type Replica struct {
	name   string
	realm  uint64
	p      groups.Process
	node   *paxos.Node
	scope  groups.ProcSet
	nw     net.Transport
	leader paxos.LeaderFunc
	mkIns  func(slot int) *paxos.Instance

	// counters starts as a private block and is replaced via Observe after
	// the loops are already running, hence the atomic pointer rather than a
	// constructor argument. Never nil.
	counters atomic.Pointer[obs.ReplogCounters]

	// onApply is the change-notification hook (see OnApply); an atomic
	// pointer for the same reason as counters.
	onApply atomic.Pointer[func()]

	mu      sync.Mutex
	cond    *sync.Cond // signalled on every apply (and on SyncWait timeout)
	slot    int        // decided-prefix length: next unapplied slot
	applied int        // operations applied so far (ops, not slots)
	local   *logobj.Log
	queue   []*waiter // queued operations, arrival order
	closed  bool      // shutdown: no further enqueues complete

	// Conflict-class hooks (see SetClassHooks). Guarded by mu like the
	// queue they stamp.
	classOf    func(logobj.Datum) uint64
	classLearn func(logobj.Datum, uint64)

	// journal records every applied op when journalling is enabled (see
	// journal.go) — debug evidence for diffing a replica's applied sequence
	// against the paxos decision snapshot.
	journal []JournalEntry

	kick   chan struct{} // wakes the submit loop on enqueue (cap 1)
	winRes chan paxos.WindowResult

	// Evidence plumbing of the apply loop (see awaitDecision). horizon is the
	// highest slot of the realm this process's acceptor voted in or its node
	// learnt a decision of, -1 before any. timer is the loop's one timer;
	// idle is up while it waits on no evidence, and whoever produces evidence
	// then lowers the flag and re-arms the timer to the hedge delay itself
	// (armHedge) — no goroutine is woken for it — stamping evidentAt, the
	// monotonic time of the evidence the wait in progress rests on (0: none,
	// or not timed). srtt is the smoothed evidence→decision interval in
	// nanoseconds (0: no sample yet).
	horizon   atomic.Int64
	timer     *time.Timer
	idle      atomic.Bool
	evidentAt atomic.Int64
	srtt      atomic.Int64

	loops sync.WaitGroup // the apply and submit loops
}

// Observe makes the replica count into c (non-nil). Safe to call while the
// loops are running.
func (r *Replica) Observe(c *obs.ReplogCounters) { r.counters.Store(c) }

// countBatch counts one batch of n operations fired at a consensus slot.
func (r *Replica) countBatch(n int) {
	c := r.counters.Load()
	obs.Inc(&c.Batches)
	obs.Add(&c.BatchedOps, int64(n))
}

// OnApply installs a change-notification hook, fired (outside the replica
// lock) whenever a decided slot applies operations to the local copy — the
// moment a guard evaluated against this replica may newly hold. The hook
// must be cheap and non-blocking (wakeup-channel sends, not work); it may be
// invoked concurrently from the apply, submit and sync paths. Safe to call
// while the loops are running.
func (r *Replica) OnApply(fn func()) { r.onApply.Store(&fn) }

// SetClassHooks installs the conflict-class plumbing: of stamps each locally
// enqueued op with its datum's class tag (return 0 for untagged data), learn
// consumes the tag of every applied op, letting the caller's registry adopt
// classes carried by the decided op stream. Both hooks MUST be deterministic
// functions of the replicated schedule — every replica stamps the same datum
// with the same tag, or op identity across replicas breaks. Install before
// the replica sees traffic.
func (r *Replica) SetClassHooks(of func(logobj.Datum) uint64, learn func(logobj.Datum, uint64)) {
	r.mu.Lock()
	r.classOf = of
	r.classLearn = learn
	r.mu.Unlock()
}

// NewReplica builds the replica of process p and starts its apply and
// submit loops. All replicas of a log must share the name, realm, scope and
// network; realm is the log's identity in the paxos instance space
// (paxos.SpaceLog), so distinct logs on a shared paxos node MUST use
// distinct realms — a collision would merge their slot sequences, which is
// a safety violation, not a performance bug. The slots of a realm form one
// Multi-Paxos log: a stable leader acquires a lease over the whole realm
// and streams batched slots through a window of accept rounds. The loops
// stop when the paxos node's message loop exits (network shutdown).
func NewReplica(name string, realm uint64, p groups.Process, node *paxos.Node, nw net.Transport, scope groups.ProcSet, leader paxos.LeaderFunc) *Replica {
	r := &Replica{
		name:   name,
		realm:  realm,
		p:      p,
		node:   node,
		scope:  scope,
		nw:     nw,
		leader: leader,
		local:  logobj.New(name),
		kick:   make(chan struct{}, 1),
		timer:  time.NewTimer(time.Hour),
		// One result per outstanding windowed round, plus the immediate
		// resolutions ProposeWindowed may deliver inline: a channel this
		// deep never blocks the node's message loop.
		winRes: make(chan paxos.WindowResult, node.WindowLimit()+2),
	}
	r.cond = sync.NewCond(&r.mu)
	r.counters.Store(new(obs.ReplogCounters))
	r.mkIns = func(slot int) *paxos.Instance {
		return &paxos.Instance{
			ID:         r.instID(slot),
			Scope:      scope,
			Net:        nw,
			Leader:     leader,
			MultiPaxos: true,
		}
	}
	muxFor(node).add(realm, r)
	r.horizon.Store(-1)
	node.WatchRealm(paxos.SpaceLog, realm, r.sawSlot)
	r.loops.Add(2)
	go r.applyLoop()
	go r.submitLoop()
	return r
}

// Wait blocks until the replica's loops have exited, which they do once the
// paxos node's message loop has (network shutdown).
func (r *Replica) Wait() { r.loops.Wait() }

// instID is the consensus-instance identity of a slot.
func (r *Replica) instID(slot int) paxos.InstanceID {
	return paxos.InstanceID{Space: paxos.SpaceLog, Realm: r.realm, Slot: int64(slot)}
}

// applyLoop drives the replica forward: await the decision of the next
// unapplied slot, apply it, repeat. A slot whose decision does not come is
// probed for (anti-entropy) only on evidence — see awaitDecision.
func (r *Replica) applyLoop() {
	defer r.loops.Done()
	defer r.timer.Stop()
	// behind: the previous slot had to be probed for, so this replica was
	// lagging a moment ago — evidence enough for one hedge on the next slot,
	// which keeps a catch-up moving at hedge pace instead of idleProbe's.
	behind := false
	for {
		slot := r.Slot()
		ch := r.node.Await(r.instID(slot))
		select {
		case v := <-ch: // already known: catching up, nothing to wait for
			r.applyAt(slot, v)
			continue
		default:
		}
		var ok bool
		if behind, ok = r.awaitDecision(slot, ch, behind); !ok {
			return
		}
	}
}

// awaitDecision blocks until the decision of the frontier slot is learnt,
// and applies it, or until some other path (the submit loop) has moved the
// replica past the slot; ok is false at shutdown. probed reports whether the
// decision came after a probe had gone out for it.
//
// The loop sleeps on one timer and asks itself what it is waiting for when
// the timer runs out. While the replica has evidence that the slot exists it
// hedges: a probe hedgeDelay after the evidence, then doubling up to
// probeCap. Without evidence it runs the quiet wait, one probe per
// idleProbe. Evidence is pulled here, when a wait begins and when the timer
// expires; a producer pushes only to a loop on the quiet wait, and what it
// pushes is the timer (armHedge) — the loop itself wakes for decisions and
// expiries, nothing else, so a busy stream pays an atomic load per accept and
// enqueue and one timer reset per idle→busy transition.
func (r *Replica) awaitDecision(slot int, ch <-chan paxos.Value, behind bool) (probed, ok bool) {
	inst := r.instID(slot)
	wait := r.hedgeDelay()
	switch {
	case r.evidence(slot):
		r.evidentAt.Store(mono())
		resetTimer(r.timer, wait)
	case behind:
		r.goQuiet(slot, wait) // one hedge on lag alone, unless evidence re-bases it
	default:
		r.goQuiet(slot, idleProbe)
	}
	// hedged: a probe went out on evidence; asked: one went out on none (the
	// trickle, or the one hedge lagging buys).
	hedged, asked := false, false
	for {
		select {
		case v := <-ch:
			r.idle.Store(false)
			at := r.evidentAt.Swap(0)
			if at != 0 {
				r.observe(time.Duration(mono() - at))
			}
			r.applyAt(slot, v)
			// A probe on no evidence that evidence then followed went
			// unanswered: the decision came the ordinary way.
			return hedged || (asked && at == 0), true
		case <-r.node.Done():
			return false, false
		case <-r.timer.C:
			if r.Slot() > slot {
				r.idle.Store(false)
				return false, true
			}
			c := r.counters.Load()
			if r.idle.CompareAndSwap(true, false) {
				// The quiet wait ran out, and the timer is ours again.
				if behind {
					obs.Inc(&c.Hedges)
					behind = false
				} else {
					obs.Inc(&c.IdleProbes)
				}
				r.node.RequestDecision(r.scope, inst)
				asked = true
				r.goQuiet(slot, idleProbe)
				continue
			}
			// The flag is down: there is evidence, and it is wait old.
			obs.Inc(&c.Hedges)
			r.node.RequestDecision(r.scope, inst)
			hedged = true
			if wait *= 2; wait > probeCap {
				wait = probeCap
			}
			resetTimer(r.timer, wait)
		}
	}
}

// goQuiet starts a wait of d on no evidence: arm the timer, then raise the
// flag, then look again — evidence produced before the flag was up found
// nobody to tell. From the flag on, the timer belongs to whoever lowers it.
func (r *Replica) goQuiet(slot int, d time.Duration) {
	resetTimer(r.timer, d)
	r.evidentAt.Store(0)
	r.idle.Store(true)
	if r.evidence(slot) {
		r.armHedge()
	}
}

// evidence reports whether this replica has a reason to believe the frontier
// slot exists: its acceptor voted for that slot or a later one of the realm,
// a decision for a later slot is recorded (a gap) — both read off horizon —
// or an operation is queued here, its own or one forwarded to it, which
// only a further slot can satisfy.
func (r *Replica) evidence(slot int) bool {
	if r.horizon.Load() >= int64(slot) {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queue) > 0
}

// sawSlot is the paxos node's realm observer (paxos.Node.WatchRealm): a vote
// or a decision for slot. Every slot below the frontier is decided here, so
// a horizon that rises has risen to the frontier or beyond.
func (r *Replica) sawSlot(slot int64) {
	for {
		cur := r.horizon.Load()
		if slot <= cur {
			return
		}
		if r.horizon.CompareAndSwap(cur, slot) {
			r.armHedge()
			return
		}
	}
}

// armHedge turns a quiet wait into a hedging one: whoever lowers the flag
// stamps the evidence and re-arms the loop's timer to the hedge delay. The
// loop is not woken; it finds out when the timer expires, if no decision
// came first. Callers have already made their evidence visible (horizon,
// queue). A claim that races the loop moving to its next slot re-arms that
// slot's timer early, which costs it one probe ahead of time.
func (r *Replica) armHedge() {
	if r.idle.Load() && r.idle.CompareAndSwap(true, false) {
		r.evidentAt.Store(mono())
		r.timer.Reset(r.hedgeDelay())
	}
}

// epoch anchors mono.
var epoch = time.Now()

// mono is a monotonic clock reading in nanoseconds (never 0).
func mono() int64 { return int64(time.Since(epoch)) + 1 }

// observe folds one evidence→decision interval into the smoothed estimate
// (gain 1/8). Slots that were hedged for count too: were they left out, an
// estimate that has fallen below half the true interval would hedge every
// slot and never see a sample again. A sample is capped at probeCap: beyond
// it the hedge delay is pinned anyway, and one stall should not take eight
// slots to forget.
func (r *Replica) observe(d time.Duration) {
	if d > probeCap {
		d = probeCap
	}
	s := r.srtt.Load()
	if s == 0 {
		s = int64(d)
	} else {
		s += (int64(d) - s) / 8
	}
	r.srtt.Store(s)
}

// hedgeDelay is how long this replica waits on evidence before it asks:
// twice the smoothed evidence→decision interval, within [nudgeEvery,
// probeCap]. A slot that decides on time is never probed for.
func (r *Replica) hedgeDelay() time.Duration {
	d := 2 * time.Duration(r.srtt.Load())
	if d < nudgeEvery {
		return nudgeEvery
	}
	if d > probeCap {
		return probeCap
	}
	return d
}

// resetTimer re-arms a timer whose channel may hold an unread expiry.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// Started is an operation the replica has taken charge of: it is queued, and
// the submit loop forwards, resends and in the end proposes it until some
// decided slot satisfies it, whether or not anyone waits.
type Started struct {
	r *Replica
	w *waiter // nil: settled at start, pos and ok are the result
	// pos and ok are what Wait returns for an operation that needed no
	// waiter: satisfied by the replicated state already (ok), or refused by
	// a replica that has shut down (!ok).
	pos int
	ok  bool
}

// Wait blocks until the operation is applied to this replica's copy and
// returns the position of its datum there (0 for a KindCons proposal that
// lost), or false at shutdown. It may be called once.
func (s Started) Wait() (int, bool) {
	if s.w == nil {
		return s.pos, s.ok
	}
	ok := <-s.w.done
	return s.r.Pos(s.w.op.Datum), ok
}

// Append starts LOG.append(d) on its way through consensus.
//
// Helping fast path: append is idempotent, so when the local copy already
// contains d some decided slot appended it — the operation's effect is in
// the replicated state and re-submitting it would only grow a no-op batch.
// Algorithm 1's members all execute the same steps (helping), so in the
// steady state every follower takes this read-only exit and the log's slot
// stream carries each operation exactly once, proposed by whoever got
// there first (usually the paxos leader). A KindCons proposal takes the exit
// as soon as any proposal for its (m, f) is in (logobj.Log.Appended).
func (r *Replica) Append(d logobj.Datum) Started {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.local.Appended(d) {
		return Started{pos: r.local.Pos(d), ok: true}
	}
	return r.enqueueLocked(Op{Kind: opAppend, Datum: d})
}

// BumpAndLock starts LOG.bumpAndLock(d, k) on its way through consensus.
// Once d is locked locally a decided slot locked it and any further
// bumpAndLock is a no-op on the sequential specification, so the helping
// submit is skipped the same way as Append's.
func (r *Replica) BumpAndLock(d logobj.Datum, k int) Started {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.local.Locked(d) {
		return Started{pos: r.local.Pos(d), ok: true}
	}
	return r.enqueueLocked(Op{Kind: opBumpAndLock, Datum: d, K: k})
}

// enqueueLocked queues an operation for the submit loop and hands back its
// waiter (caller holds mu); a replica that has shut down refuses it.
func (r *Replica) enqueueLocked(o Op) Started {
	if r.closed {
		return Started{}
	}
	if r.classOf != nil {
		o.Class = r.classOf(o.Datum)
	}
	w := &waiter{op: o, done: make(chan bool, 1), enq: time.Now()}
	r.queue = append(r.queue, w)
	obs.Inc(&r.counters.Load().Submits)
	select {
	case r.kick <- struct{}{}:
	default:
	}
	r.armHedge()
	return Started{r: r, w: w}
}

// submitLoop turns the pending queue into decided slots. It prefers the
// pipelined path — fire a batch at the next free slot of the paxos window
// and immediately gather more operations — and falls back to a synchronous
// Propose when no lease is held (which acquires one) or at a non-leader
// (which hedges on the leader inside Propose). A window failure switches
// the loop into repair: drain every outstanding round, then drive the
// decided prefix synchronously up to the highest fired slot so no hole
// survives, then resume pipelining.
func (r *Replica) submitLoop() {
	defer r.loops.Done()
	fired := make(map[int64]firedBatch)
	next := 0
	retry := time.NewTimer(time.Hour)
	if !retry.Stop() {
		<-retry.C
	}
	defer retry.Stop()
	var lastFwd time.Time
	for {
		if len(fired) == 0 {
			next = r.Slot()
		}
		var ws []*waiter
		armRetry := false
		if lead := r.leader(r.p); lead != r.p {
			// Follower: hand pending ops to the leaseholder's batcher (see
			// forward.go) and keep them queued; only ops whose patience
			// expired are proposed from here.
			now := time.Now()
			overdue, fwd, pending := r.splitPending(now, now.Sub(lastFwd) >= r.resendEvery())
			if len(fwd) > 0 {
				obs.Add(&r.counters.Load().FwdOps, int64(len(fwd)))
				r.nw.Send(r.p, lead, wire.TReplogFwd, FwdBatch{Realm: r.realm, Ops: fwd})
				lastFwd = now
			}
			ws = overdue
			armRetry = pending
		} else {
			ws = r.takePending(maxBatchOps)
		}
		if len(ws) > 0 {
			val := EncodeBatch(opsOf(ws))
			if r.node.ProposeWindowed(r.mkIns(next), val, r.winRes) {
				r.countBatch(len(ws))
				fired[int64(next)] = firedBatch{val: val, ws: ws}
				next++
				continue
			}
			if len(fired) == 0 {
				// No pipeline in flight and no usable lease: the classic
				// synchronous path. On a leader this acquires the lease the
				// next iteration pipelines under.
				slot := r.Slot()
				r.countBatch(len(ws))
				decided, ok := r.node.Propose(r.mkIns(slot), val)
				if !ok {
					r.shutdown()
					return
				}
				r.applyAt(slot, decided)
				r.requeue(ws)
				continue
			}
			// Window full (or the lease just died): park the ops until the
			// pipeline drains a slot.
			r.requeue(ws)
		}
		if armRetry {
			resetTimer(retry, r.resendEvery())
		}
		select {
		case res := <-r.winRes:
			fb, had := fired[res.Inst.Slot]
			delete(fired, res.Inst.Slot)
			if res.OK {
				// Apply the decided slot inline rather than waiting for the
				// apply loop. Slot() only advances on apply, and
				// ProposeWindowed short-circuits already-decided slots, so a
				// loop that merely requeued here would re-fire the same
				// stale slot in a tight spin until the apply goroutine got
				// scheduled — on a loaded (or single-core) machine that
				// starves the very goroutine it is waiting on for a full
				// timeslice per slot. applyAt is a no-op unless this slot is
				// exactly the next unapplied one, so the call is safe out of
				// order and doubles as catch-up when the frontier lags.
				r.applyAt(int(res.Inst.Slot), res.Val)
				if had && !res.Val.Equal(fb.val) {
					// An adopted or foreign value decided this slot; our
					// batch did not land — its unsatisfied ops go again.
					r.requeue(fb.ws)
				}
				continue
			}
			// Pipeline break: this slot did not decide, but later fired
			// slots may have — a hole. Drain and repair.
			if had {
				r.requeue(fb.ws)
			}
			maxSlot := res.Inst.Slot
			for s := range fired {
				if s > maxSlot {
					maxSlot = s
				}
			}
			if !r.drainWindow(fired) || !r.repair(int(maxSlot)) {
				r.shutdown()
				return
			}
			clear(fired)
		case <-r.kick:
		case <-retry.C:
		case <-r.node.Done():
			r.shutdown()
			return
		}
	}
}

// firedBatch is one batch in flight through the paxos window.
type firedBatch struct {
	val paxos.Value
	ws  []*waiter
}

// drainWindow collects the outstanding window results after a failure
// (every fired round delivers exactly one result — quorum, NACK, or its
// deadline timer — so this terminates within a phase deadline).
func (r *Replica) drainWindow(fired map[int64]firedBatch) bool {
	for len(fired) > 0 {
		select {
		case res := <-r.winRes:
			fb, had := fired[res.Inst.Slot]
			if !had {
				continue
			}
			delete(fired, res.Inst.Slot)
			if !res.OK || !res.Val.Equal(fb.val) {
				r.requeue(fb.ws)
			}
		case <-r.node.Done():
			return false
		}
	}
	return true
}

// repair drives the decided prefix synchronously up to and including
// maxSlot, filling holes with whatever is pending (or an empty batch).
// Propose returns instantly for already-decided slots, so the cost is one
// full round per genuine hole.
func (r *Replica) repair(maxSlot int) bool {
	for {
		slot := r.Slot()
		if slot > maxSlot {
			return true
		}
		ws := r.takePending(maxBatchOps)
		decided, ok := r.node.Propose(r.mkIns(slot), EncodeBatch(opsOf(ws)))
		if !ok {
			return false
		}
		r.applyAt(slot, decided)
		r.requeue(ws)
	}
}

// takePending collects up to max pending operations, marking them inflight.
func (r *Replica) takePending(max int) []*waiter {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*waiter
	for _, w := range r.queue {
		if w.state != statePending {
			continue
		}
		w.state = stateInflight
		out = append(out, w)
		if len(out) == max {
			break
		}
	}
	return out
}

// requeue returns not-yet-completed inflight waiters to pending.
func (r *Replica) requeue(ws []*waiter) {
	if len(ws) == 0 {
		return
	}
	r.mu.Lock()
	for _, w := range ws {
		if w.state == stateInflight {
			w.state = statePending
		}
	}
	r.mu.Unlock()
}

// opsOf projects the operations out of a waiter batch.
func opsOf(ws []*waiter) []Op {
	ops := make([]Op, len(ws))
	for i, w := range ws {
		ops[i] = w.op
	}
	return ops
}

// shutdown fails every queued waiter and refuses further enqueues.
func (r *Replica) shutdown() {
	r.mu.Lock()
	r.closed = true
	for _, w := range r.queue {
		if w.state != stateDone {
			w.state = stateDone
			if w.done != nil {
				w.done <- false
			}
		}
	}
	r.queue = nil
	r.cond.Broadcast()
	r.mu.Unlock()
}

// SyncWait blocks until at least n operations are applied or the timeout
// elapses, and reports success. Decide broadcasts are asynchronous, so a
// passive replica may learn a decision a moment after the proposer returns;
// the apply loop wakes this waiter the moment the slot lands.
func (r *Replica) SyncWait(n int, timeout time.Duration) bool {
	r.Sync() // pick up anything already decided locally
	timedOut := false
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		timedOut = true
		r.mu.Unlock()
		r.cond.Broadcast()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.applied < n && !timedOut {
		r.cond.Wait()
	}
	return r.applied >= n
}

// Sync applies every slot decided up to the replica's current horizon
// (catch-up for replicas that did not propose).
func (r *Replica) Sync() {
	for {
		slot := r.Slot()
		v, ok := r.node.Decided(r.instID(slot))
		if !ok {
			return
		}
		r.applyAt(slot, v)
	}
}

// applyAt applies the decided batch of a slot exactly once, in order, and
// completes every queued waiter whose operation is now satisfied.
func (r *Replica) applyAt(slot int, v paxos.Value) {
	ops, err := DecodeBatch(v)
	if err != nil {
		// Only valid batches are ever proposed (and adoption re-proposes
		// other replicas' batches verbatim), so a decided value that does
		// not decode is state corruption, not input error.
		panic(fmt.Sprintf("replog %s: decided value of slot %d does not decode: %v", r.name, slot, err))
	}
	r.mu.Lock()
	if slot != r.slot {
		r.mu.Unlock()
		return // already applied (or a future slot the prefix hasn't reached)
	}
	jr := journalOn.Load()
	for _, o := range ops {
		if jr {
			r.journal = append(r.journal, JournalEntry{Slot: slot, Op: o})
		}
		if o.Class != 0 && r.classLearn != nil {
			r.classLearn(o.Datum, o.Class)
		}
		switch o.Kind {
		case opAppend:
			r.local.Append(o.Datum)
		case opBumpAndLock:
			if r.local.Contains(o.Datum) {
				r.local.BumpAndLock(o.Datum, o.K)
			}
		}
		r.applied++
		obs.Inc(&r.counters.Load().Applies)
	}
	r.slot++
	r.completeLocked(ops)
	r.cond.Broadcast()
	r.mu.Unlock()
	// Notify outside the lock: the hook may fan out to scheduler wakeups,
	// and nothing it needs is guarded by mu. Empty slots (hole repairs)
	// change no state, so they wake nobody.
	if len(ops) > 0 {
		if fn := r.onApply.Load(); fn != nil {
			(*fn)()
		}
	}
}

// completeLocked finishes every waiter whose operation is satisfied by the
// local state after an apply (caller holds mu). Satisfaction is judged on
// the replicated state, not on which slot carried the op — helping means a
// foreign batch may have done our work: an append is done once the datum
// has a position (or, a KindCons proposal, once its CONS_{m,f} is decided
// by anyone's), a bumpAndLock once the datum is locked OR the exact op was
// in the applied batch (covering the no-op bump on an absent datum).
func (r *Replica) completeLocked(ops []Op) {
	keep := r.queue[:0]
	for _, w := range r.queue {
		sat := false
		switch w.op.Kind {
		case opAppend:
			sat = r.local.Appended(w.op.Datum)
		case opBumpAndLock:
			sat = r.local.Locked(w.op.Datum)
		}
		if !sat {
			for _, o := range ops {
				if o == w.op {
					sat = true
					break
				}
			}
		}
		if sat {
			w.state = stateDone
			if w.done != nil {
				w.done <- true
			}
		} else {
			keep = append(keep, w)
		}
	}
	r.queue = keep
}

// Snapshot returns the datum order of the local copy.
func (r *Replica) Snapshot() []logobj.Datum {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.local.Items()
}

// Read runs fn against the local copy under the replica's lock. fn must not
// retain the log or call back into the replica. The live backend's guard
// evaluations go through here.
func (r *Replica) Read(fn func(l *logobj.Log)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.local)
}

// Pos returns the local position of d.
func (r *Replica) Pos(d logobj.Datum) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.local.Pos(d)
}

// Locked reports whether d is locked locally.
func (r *Replica) Locked(d logobj.Datum) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.local.Locked(d)
}

// Applied returns how many operations this replica has applied.
func (r *Replica) Applied() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Slot returns the decided-prefix length: the next unapplied slot.
func (r *Replica) Slot() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slot
}
