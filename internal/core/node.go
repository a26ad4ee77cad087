package core

import (
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/obs"
)

// Node runs Algorithm 1 at one process. It is an engine.Automaton: each Step
// attempts to fire one enabled action — multicast (line 5), pending
// (line 8), commit (line 16), stabilize (line 25), stable (line 30) or
// deliver (line 34) — scanning the undelivered messages it knows about in ID
// order.
//
// The scan is ready-set based: discovery is incremental (a per-group-log
// high-water mark into the log's first-append message stream, never a
// re-listing), delivered messages are retired from the scan set, and a pass
// ends at the action it fires.
//
// The node touches the shared objects only through the Backend interfaces
// (backend.go), so the same code runs over the deterministic in-memory
// substrate and over the live replicated one. Under the live backend Step is
// called from a per-process goroutine and reads may lag the replicas; every
// guard simply stays false until the local replica catches up.
type Node struct {
	p  groups.Process
	sh *Shared

	phase     map[msg.ID]Phase
	active    []msg.ID // undelivered discovered messages, ascending ID
	delivered []msg.ID

	// hw is the per-group-log discovery high-water mark: how many messages
	// of LOG_g's first-append stream this node has already ingested. Each
	// message lands in exactly one group log (its destination's), so there
	// is no cross-log dedup to do.
	hw map[groups.GroupID]int

	// quiet records that the last pass fired nothing and saw no message in
	// a time-gated phase (see Quiescent).
	quiet bool

	// outbox holds client multicast requests not yet handed to Algorithm 1
	// (waiting behind their L_g predecessors), per destination group. The
	// mutex covers it: clients enqueue from outside the stepping goroutine.
	boxMu  sync.Mutex
	outbox map[groups.GroupID][]request

	// seqFront is the delivered frontier of each L_g: every entry of L_g
	// below the index is delivered here, so tryMulticast starts there.
	seqFront map[groups.GroupID]int

	// myGroups caches G(p); myPairs the log keys of this process; logs the
	// backend handles for those keys (including the group logs {g,g}), each
	// with its delivered frontier.
	myGroups []groups.GroupID
	myPairs  []PairKey
	logs     map[PairKey]*nodeLog

	// scan is the state of the predecessor walk in progress and visit the
	// visitor that reads it, built once: a closure made per guard would
	// escape through the LogObject interface and allocate on every guard.
	scan  predScan
	visit func(prev msg.ID, pos int) bool

	// visits counts the predecessor entries the guards of the current pass
	// examined; Step hands the sum to the recorder once per pass.
	visits int64

	// fastMemo caches the fast-track eligibility of each known message
	// (Generic variant): whether it commutes with every message and so
	// skips the ordering phases. The answer is a pure function of the
	// message, so memoising it keeps the relation off the guard hot paths.
	fastMemo map[msg.ID]bool

	// stabIssued holds, per message in the commit phase, the groups h whose
	// (m,h) tuple this node has started on LOG_g (line 29). tryStabilize does
	// not wait for that append, so the log cannot yet say it was issued; the
	// entry goes when the message is delivered.
	stabIssued map[msg.ID]groups.GroupSet

	// passed is seqGate's scratch list: the undelivered predecessors the walk
	// in progress has passed over.
	passed []msg.ID

	// ops is the scratch list of the operations the action in progress has
	// started and not yet waited for (tryPending, tryCommit).
	ops []startedOp
}

// startedOp is one started log operation of an action: the group h whose
// log (or tuple) it concerns and, once waited for, the position it yielded.
type startedOp struct {
	h   groups.GroupID
	st  Started
	pos int
}

// request is one queued client multicast: the message and its index in
// L_{dst(m)}.
type request struct {
	id  msg.ID
	seq int
}

// nodeLog is this process's handle on one log together with its delivered
// frontier: every message at a position below front is delivered here. The
// predecessor guards start their walk at front instead of at the log's first
// entry. That is sound for all three guards (lines 11, 28, 35) because local
// phases only grow and deliver is the top phase, and it stays true because
// nothing undelivered can appear below front later: positions only grow, an
// append lands above every occupied slot, and a delivered message is locked
// (this process bumped it itself at commit). front is a position, not a rank,
// so messages tied at front are re-examined. See DESIGN.md §12.
type nodeLog struct {
	LogObject
	front int
}

// predScan is the state of one predsAtLeast walk.
type predScan struct {
	log       *nodeLog // the log walked; the walk moves its frontier
	id        msg.ID   // the message whose guard is evaluated
	min       Phase    // the phase every predecessor must have reached
	ok        bool     // no predecessor below min so far
	advancing bool     // every predecessor so far is delivered
}

// NewNode builds the automaton for process p.
func NewNode(p groups.Process, sh *Shared) *Node {
	n := &Node{
		p:        p,
		sh:       sh,
		phase:    make(map[msg.ID]Phase),
		hw:       make(map[groups.GroupID]int),
		outbox:   make(map[groups.GroupID][]request),
		seqFront: make(map[groups.GroupID]int),
		logs:     make(map[PairKey]*nodeLog),
		fastMemo: make(map[msg.ID]bool),

		stabIssued: make(map[msg.ID]groups.GroupSet),
	}
	n.visit = n.visitPred
	gs := sh.Topo.GroupsOf(p).Members()
	n.myGroups = gs
	for i, g := range gs {
		n.myPairs = append(n.myPairs, PairKey{g, g})
		for _, h := range gs[i+1:] {
			if sh.Topo.Intersecting(g, h) {
				n.myPairs = append(n.myPairs, CanonPair(g, h))
			}
		}
	}
	for _, key := range n.myPairs {
		n.logs[key] = &nodeLog{LogObject: sh.Backend().Log(p, key.A, key.B)}
	}
	return n
}

// log returns this process's handle on LOG_{g∩h}.
func (n *Node) log(g, h groups.GroupID) *nodeLog { return n.logs[CanonPair(g, h)] }

// groupLog returns this process's handle on LOG_g.
func (n *Node) groupLog(g groups.GroupID) *nodeLog { return n.logs[PairKey{g, g}] }

// Proc implements engine.Automaton.
func (n *Node) Proc() groups.Process { return n.p }

// Multicast enqueues a client request at this node. The message must have
// been registered through Shared.Request by the driver.
func (n *Node) Multicast(m *msg.Message) {
	if m.Src != n.p {
		panic("core: Multicast called at a node other than the source")
	}
	req := request{id: m.ID, seq: n.sh.seqIndex(m.Dst, m.ID)}
	n.boxMu.Lock()
	n.outbox[m.Dst] = append(n.outbox[m.Dst], req)
	n.boxMu.Unlock()
}

// Phase returns the local phase of m.
func (n *Node) Phase(m msg.ID) Phase {
	if ph, ok := n.phase[m]; ok {
		return ph
	}
	return PhaseStart
}

// Delivered returns the local delivery order.
func (n *Node) Delivered() []msg.ID { return append([]msg.ID(nil), n.delivered...) }

// HasDelivered reports whether m was delivered locally.
func (n *Node) HasDelivered(m msg.ID) bool { return n.Phase(m) == PhaseDeliver }

// gateOK implements the quorum-responsiveness gate: operations on the
// shared objects of group g complete only when the current Σ_g quorum can
// take steps.
func (n *Node) gateOK(ctx *engine.Ctx, g groups.GroupID) bool {
	if !n.sh.Opt.QuorumGate {
		return true
	}
	sig, ok := n.sh.Mu.SigmaFor(g, g)
	if !ok {
		return false
	}
	q, ok := sig.Quorum(n.p, ctx.Now)
	if !ok {
		return false
	}
	return q.SubsetOf(ctx.E.ActiveParticipants(ctx.Now))
}

// Step implements engine.Automaton: one guard pass, which discovers new
// messages, retires delivered ones from the active set as it walks it and
// fires at most one action (the deterministic engine's accounting and
// interleaving control rely on that granularity; the live runner calls Step
// until it returns false).
func (n *Node) Step(ctx *engine.Ctx) bool {
	sched := n.sh.Opt.Rec.Sched()
	obs.Inc(&sched.Scans)
	fired := n.scanPass(ctx)
	obs.Add(&sched.GuardVisits, n.visits)
	n.visits = 0
	if fired {
		obs.Inc(&sched.Actions)
	}
	return fired
}

// scanPass is one guard pass of Step: it reports whether an action fired,
// and records whether the node is quiet.
func (n *Node) scanPass(ctx *engine.Ctx) bool {
	n.discover()
	if n.tryMulticast(ctx) {
		n.quiet = false
		return true
	}
	fired := false
	timeGated := false
	w := 0
	for i := 0; i < len(n.active); i++ {
		id := n.active[i]
		ph := n.phase[id]
		if ph == PhaseDeliver {
			continue // retired: delivered messages leave the scan set
		}
		n.active[w] = id
		w++
		if ph == PhasePending || ph == PhaseCommit {
			// tryCommit and tryStable consult γ(g) (and the Strict variant
			// the 1^{g∩h} indicator) at the current time: these guards can
			// open with no object mutating, so their presence keeps the node
			// from being quiet.
			timeGated = true
		}
		if !n.gateOK(ctx, n.sh.Reg.Get(id).Dst) {
			continue
		}
		switch ph {
		case PhaseStart:
			if n.fastTrack(id) {
				fired = n.tryFastDeliver(ctx, id)
			} else {
				fired = n.tryPending(ctx, id)
			}
		case PhasePending:
			fired = n.tryCommit(ctx, id)
		case PhaseCommit:
			fired = n.tryStabilize(ctx, id) || n.tryStable(ctx, id)
		case PhaseStable:
			fired = n.tryDeliver(ctx, id)
		}
		if fired {
			// One action per pass, and it is done: the rest of the set moves
			// down unexamined (a delivered straggler in it is retired by a
			// later pass). Walking it would make every pass of a process that
			// has fallen behind cost its whole backlog.
			w += copy(n.active[w:], n.active[i+1:])
			break
		}
	}
	n.active = n.active[:w]
	n.quiet = !fired && !timeGated
	return fired
}

// Quiescent reports whether the node's last pass fired nothing and saw no
// message in a time-gated phase. Such a node has nothing to do until one of
// its logs applies an operation, a request is enqueued or registered, or a
// process crashes — each of which wakes it — so the live runner parks it
// without a timer. Call from the stepping goroutine only.
func (n *Node) Quiescent() bool { return n.quiet }

// discover ingests the new suffix of each group log's message stream. Newly
// seen messages enter the phase map at PhaseStart and join the active scan
// set, which stays sorted by ID (the scan order of Step).
func (n *Node) discover() {
	unsorted := false
	for _, g := range n.myGroups {
		from := n.hw[g]
		ids := n.groupLog(g).MessagesSince(from)
		if len(ids) == 0 {
			continue
		}
		n.hw[g] = from + len(ids)
		for _, id := range ids {
			if _, seen := n.phase[id]; seen {
				continue
			}
			n.phase[id] = PhaseStart
			// IDs mostly arrive in order; sorting a long backlog on every
			// arrival is what a process that has fallen behind cannot afford.
			if k := len(n.active); k > 0 && id < n.active[k-1] {
				unsorted = true
			}
			n.active = append(n.active, id)
		}
	}
	if unsorted {
		sort.Slice(n.active, func(i, j int) bool { return n.active[i] < n.active[j] })
	}
}

// ScanSetSize returns how many messages the scheduler still scans, after
// retiring any delivered stragglers. Not safe concurrently with stepping —
// call it between steps (or after a live System stopped).
func (n *Node) ScanSetSize() int {
	w := 0
	for _, id := range n.active {
		if n.phase[id] != PhaseDeliver {
			n.active[w] = id
			w++
		}
	}
	n.active = n.active[:w]
	return w
}

// outboxHead returns the first queued request of group g, if any.
func (n *Node) outboxHead(g groups.GroupID) (request, bool) {
	n.boxMu.Lock()
	defer n.boxMu.Unlock()
	box := n.outbox[g]
	if len(box) == 0 {
		return request{}, false
	}
	return box[0], true
}

// outboxPop removes the head request of group g.
func (n *Node) outboxPop(g groups.GroupID) {
	n.boxMu.Lock()
	n.outbox[g] = n.outbox[g][1:]
	n.boxMu.Unlock()
}

// tryMulticast implements the Proposition 1 group-sequential gate plus
// line 5-7 of Algorithm 1: the head of the outbox is appended to LOG_g once
// every predecessor in L_g is delivered locally; helping appends a stalled
// predecessor on the sender's behalf.
func (n *Node) tryMulticast(ctx *engine.Ctx) bool {
	for _, g := range n.myGroups {
		head, ok := n.outboxHead(g)
		if !ok || !n.gateOK(ctx, g) {
			continue
		}
		if head.seq < n.seqFront[g] {
			// The head and all its predecessors are delivered here (someone
			// appended it on this sender's behalf): only the pop is left.
			n.outboxPop(g)
			return true
		}
		log := n.groupLog(g)
		help, blocked := n.seqGate(g, head)
		if blocked {
			continue
		}
		if help != msg.None {
			// Help: make sure the predecessor entered Algorithm 1.
			v := log.Append(ctx, g, logobj.MsgDatum(help)).Wait()
			n.sh.Opt.Rec.Append(n.p, help, g, g, uint8(logobj.KindMsg), v, ctx.Now)
			return true
		}
		// Every predecessor is delivered: multicast(head), unless someone (or
		// a previous step) already appended it.
		if n.Phase(head.id) == PhaseStart && !log.Contains(logobj.MsgDatum(head.id)) {
			v := log.Append(ctx, g, logobj.MsgDatum(head.id)).Wait()
			n.sh.Opt.Rec.Append(n.p, head.id, g, g, uint8(logobj.KindMsg), v, ctx.Now)
		}
		n.outboxPop(g)
		return true
	}
	return false
}

// seqGate walks the predecessors of head in L_g, from the list's delivered
// frontier, and moves the frontier up over the delivered run it finds. It
// returns the first predecessor that has not entered Algorithm 1 yet and may
// (the one to help), or blocked when head must wait for one that is in flight
// or may not enter yet.
func (n *Node) seqGate(g groups.GroupID, head request) (help msg.ID, blocked bool) {
	base := n.seqFront[g]
	front := base
	preds := n.sh.SeqListFrom(g, base)[:head.seq-base]
	log := n.groupLog(g)
	i := 0
	for ; i < len(preds); i++ {
		prev := preds[i]
		if n.Phase(prev) == PhaseDeliver {
			if front == base+i {
				front++
			}
			continue
		}
		if !log.Contains(logobj.MsgDatum(prev)) && n.gateOpen(prev) {
			help = prev
			break
		}
		// The predecessor is in flight, or may not enter yet. Under the
		// Generic variant L_g only orders conflicting requests — a commuting
		// predecessor need not be awaited.
		if !n.skipOrder(prev, head.id) {
			blocked = true
			break
		}
		n.passed = append(n.passed, prev)
	}
	n.passed = n.passed[:0]
	n.seqFront[g] = front
	if i < len(preds) {
		i++ // the entry the walk stopped at was examined too
	}
	n.visits += int64(i)
	return help, blocked
}

// gateOpen reports whether a predecessor that has not entered Algorithm 1 may
// be helped in: the Proposition-1 gate is the predecessor's as much as the
// head's, so every request before it in L_g that it conflicts with must be
// delivered here. The walk has passed over undelivered requests only under
// the Generic variant (they commute with the head, which says nothing about
// the predecessor); letting the predecessor in beside one it conflicts with
// puts two conflicting messages of one group in flight at once, the logs of
// an intersection process can then order them differently — CONS takes the
// max over the tuples a proposer happens to see — and both wait for the other
// for ever.
func (n *Node) gateOpen(prev msg.ID) bool {
	for _, q := range n.passed {
		if n.sh.Conflicts(q, prev) {
			return false
		}
	}
	return true
}

// predsAtLeast evaluates the predecessor guard shared by lines 11, 28 and 35:
// ∀m' <_L m: PHASE[m'] ≥ min, restricted under the Generic variant to the
// predecessors m conflicts with (commuting ones impose no relative order).
// It holds vacuously when m is not in l. The walk starts at l's delivered
// frontier — everything below it is delivered, hence at or above any min —
// and moves the frontier up over the delivered run it finds.
func (n *Node) predsAtLeast(l *nodeLog, id msg.ID, min Phase) bool {
	n.scan = predScan{log: l, id: id, min: min, ok: true, advancing: true}
	l.ScanBefore(logobj.MsgDatum(id), l.front, n.visit)
	if n.sh.guardOracle != nil {
		n.sh.guardOracle(n, l, id, min, n.scan.ok)
	}
	return n.scan.ok
}

// visitPred is the ScanBefore visitor of predsAtLeast. Every message below
// pos was visited by this walk or lies under the old frontier, so while the
// run of delivered predecessors lasts, pos itself is a valid frontier.
func (n *Node) visitPred(prev msg.ID, pos int) bool {
	sc := &n.scan
	n.visits++
	ph := n.Phase(prev)
	if sc.advancing {
		sc.log.front = pos
		sc.advancing = ph == PhaseDeliver
	}
	if ph >= sc.min || n.skipOrder(prev, sc.id) {
		return true
	}
	sc.ok = false
	return false
}

// tryPending implements lines 8-15.
func (n *Node) tryPending(ctx *engine.Ctx, id msg.ID) bool {
	g := n.sh.Reg.Get(id).Dst
	glog := n.groupLog(g)
	if !glog.Contains(logobj.MsgDatum(id)) {
		return false
	}
	// ∀m' <_{LOG_g} m: PHASE[m'] ≥ commit (line 11); fast-tracked
	// predecessors never reach commit at all, and never gate.
	if !n.predsAtLeast(glog, id, PhaseCommit) {
		return false
	}
	// eff (lines 12-15), in two rounds: every LOG_{g∩h}.append(m) is started
	// before any is waited for, and so is every (m,h,i) tuple on LOG_g — the
	// operations of a round touch different logs, or commute on one.
	d := logobj.MsgDatum(id)
	n.ops = n.ops[:0]
	for _, h := range n.myGroups {
		if n.sh.Topo.Intersecting(g, h) {
			n.ops = append(n.ops, startedOp{h: h, st: n.log(g, h).Append(ctx, g, d)})
		}
	}
	for i := range n.ops {
		op := &n.ops[i]
		op.pos = op.st.Wait()
		n.sh.Opt.Rec.Append(n.p, id, g, op.h, uint8(logobj.KindMsg), op.pos, ctx.Now)
	}
	for i := range n.ops {
		op := &n.ops[i]
		op.st = glog.Append(ctx, g, logobj.PosDatum(id, op.h, op.pos))
	}
	for _, op := range n.ops {
		op.st.Wait()
		n.sh.Opt.Rec.Append(n.p, id, g, g, uint8(logobj.KindPos), op.pos, ctx.Now)
	}
	n.phase[id] = PhasePending
	return true
}

// gammaGroups returns γ(g) at (p, now) per the variant.
func (n *Node) gammaGroups(g groups.GroupID, now failure.Time) groups.GroupSet {
	switch n.sh.Opt.Variant {
	case Pairwise:
		// Pairwise ordering is computably equivalent to F = ∅ (§7): no
		// cyclic coordination.
		return 0
	default:
		return fd.GammaGroups(n.sh.Topo, n.sh.Gamma(), n.p, g, now)
	}
}

// consensusFamily returns the family f of line 20 per the variant.
func (n *Node) consensusFamily(g groups.GroupID) groups.GroupSet {
	if n.sh.Opt.Variant == Pairwise {
		return 0
	}
	return n.sh.Topo.ConsensusFamily(n.p, g)
}

// tryCommit implements lines 16-24.
func (n *Node) tryCommit(ctx *engine.Ctx, id msg.ID) bool {
	g := n.sh.Reg.Get(id).Dst
	glog := n.groupLog(g)
	// ∀h ∈ γ(g): (m,h,-) ∈ LOG_g (line 18).
	for _, h := range n.gammaGroups(g, ctx.Now).Members() {
		if !glog.HasPosTuple(id, h) {
			return false
		}
	}
	// eff (lines 19-24).
	k, ok := glog.MaxPosTuple(id)
	if !ok {
		// p records its own tuples at pending time, so they reach the log
		// before the commit guard can pass; a replicated backend may simply
		// not have caught up yet.
		return false
	}
	fam := n.consensusFamily(g)
	n.sh.Opt.Rec.Propose(n.p, id, g, k, ctx.Now)
	k = n.sh.Backend().Cons(n.p, id, fam).Propose(ctx, k)
	n.sh.Opt.Rec.Decide(n.p, id, g, k, ctx.Now)
	// The bumps touch one log each: start them all, then wait for all.
	n.ops = n.ops[:0]
	for _, h := range n.myGroups {
		if n.sh.Topo.Intersecting(g, h) {
			n.ops = append(n.ops, startedOp{h: h, st: n.log(g, h).BumpAndLock(ctx, g, logobj.MsgDatum(id), k)})
		}
	}
	for _, op := range n.ops {
		op.st.Wait()
		n.sh.Opt.Rec.Bump(n.p, id, g, op.h, k, ctx.Now)
	}
	n.phase[id] = PhaseCommit
	return true
}

// tryStabilize implements lines 25-29 for the first group h that is ready.
// It starts LOG_g.append((m,h)) and does not wait: the action reads nothing
// of the result, and tryStable reads LOG_g for exactly the tuples it needs —
// so where γ(g) (or the Strict rule) demands (m,h) the stable guard opens
// when this process's copy of LOG_g has applied it, and where nothing does
// the process goes on at once. That is sound because phases only grow — line
// 28's guard, true when the append is issued, is still true when it
// linearises — and because an operation a backend has started is applied at
// every replica whatever this process does next, short of crashing, and a
// crash after the start is a crash before the action (DESIGN.md §8).
func (n *Node) tryStabilize(ctx *engine.Ctx, id msg.ID) bool {
	g := n.sh.Reg.Get(id).Dst
	glog := n.groupLog(g)
	for _, h := range n.myGroups {
		if h == g || !n.sh.Topo.Intersecting(g, h) {
			continue
		}
		if n.stabIssued[id].Has(h) || glog.Contains(logobj.StableDatum(id, h)) {
			continue
		}
		// ∀m' <_{LOG_{g∩h}} m: PHASE[m'] ≥ stable (line 28).
		if !n.predsAtLeast(n.log(g, h), id, PhaseStable) {
			continue
		}
		glog.Append(ctx, g, logobj.StableDatum(id, h))
		n.stabIssued[id] = n.stabIssued[id].Add(h)
		n.sh.Opt.Rec.Append(n.p, id, g, h, uint8(logobj.KindStable), 0, ctx.Now)
		return true
	}
	return false
}

// tryStable implements lines 30-33 (and the §6.1 strengthening for the
// strict variant).
func (n *Node) tryStable(ctx *engine.Ctx, id msg.ID) bool {
	g := n.sh.Reg.Get(id).Dst
	glog := n.groupLog(g)
	if n.sh.Opt.Variant == Strict {
		// Strict variation: wait, for every intersecting group h, either
		// the tuple (m,h) or the indicator 1^{g∩h} (§6.1, Sufficiency).
		for _, h := range n.sh.Topo.IntersectingGroups(g) {
			if glog.Contains(logobj.StableDatum(id, h)) {
				continue
			}
			ind, ok := n.sh.Mu.IndicatorFor(g, h)
			if ok && ind.Faulty(n.p, ctx.Now) {
				continue
			}
			return false
		}
	} else {
		// ∀h ∈ γ(g): (m,h) ∈ LOG_g (line 32).
		for _, h := range n.gammaGroups(g, ctx.Now).Members() {
			if !glog.Contains(logobj.StableDatum(id, h)) {
				return false
			}
		}
	}
	n.phase[id] = PhaseStable
	return true
}

// tryDeliver implements lines 34-37: every message preceding m in any log of
// this process must already be delivered here — restricted, under the
// Generic variant, to the predecessors m conflicts with. The restriction is
// sound because conflicting messages only reach this guard with final
// (locked) positions, so the per-log order the guard enforces is the same
// at every replica.
func (n *Node) tryDeliver(ctx *engine.Ctx, id msg.ID) bool {
	for _, key := range n.myPairs {
		if !n.predsAtLeast(n.logs[key], id, PhaseDeliver) {
			return false
		}
	}
	n.deliver(ctx, id, false)
	return true
}

// fastTrack reports whether id skips the ordering phases entirely: under
// the Generic variant a message that commutes with every message needs no
// relative order, so the pairwise g∩h coordination is never consulted.
func (n *Node) fastTrack(id msg.ID) bool {
	if n.sh.Opt.Variant != Generic {
		return false
	}
	if v, ok := n.fastMemo[id]; ok {
		return v
	}
	v := n.sh.Commutative(id)
	n.fastMemo[id] = v
	return v
}

// skipOrder reports whether prev may be ignored by id's predecessor guards:
// under the Generic variant a non-conflicting predecessor imposes no
// relative order on id. Every other variant orders unconditionally.
func (n *Node) skipOrder(prev, id msg.ID) bool {
	return n.sh.Opt.Variant == Generic && !n.sh.Conflicts(prev, id)
}

// tryFastDeliver delivers a commuting message directly: it is in LOG_g (its
// replicated group-log append is what made discover see it — the local
// acknowledgment), and it needs no relative order with anything, so the
// pending/commit/stabilize machinery and the g∩h coordination it pays for
// are skipped entirely.
func (n *Node) tryFastDeliver(ctx *engine.Ctx, id msg.ID) bool {
	n.deliver(ctx, id, true)
	return true
}

// deliver finalises a local delivery (fast marks a skipped-coordination
// fast-path delivery for the observability layer).
func (n *Node) deliver(ctx *engine.Ctx, id msg.ID, fast bool) {
	n.phase[id] = PhaseDeliver
	n.delivered = append(n.delivered, id)
	delete(n.fastMemo, id) // delivered: neither memo will be consulted again
	delete(n.stabIssued, id)
	n.sh.RecordDelivery(n.p, id, ctx.Now)
	if fast {
		n.sh.Opt.Rec.FastDelivery()
	}
	if n.sh.Opt.OnDeliver != nil {
		n.sh.Opt.OnDeliver(n.p, n.sh.Reg.Get(id), ctx.Now)
	}
}
