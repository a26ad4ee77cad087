package live

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Stepping cadence.
const (
	// tickEvery maps wall time to failure.Time: one tick per interval since
	// Start. Detector stabilisation and crash schedules key on ticks.
	tickEvery = time.Millisecond
	// heartbeat is the rescan interval of a node that is waiting for time.
	// Stepping is wakeup-driven — replica applies and local enqueues wake
	// the owning node — so the timer covers only guards gated on time
	// alone: γ(g) and the §6.1 indicators move with the failure pattern,
	// never with a shared object, so nothing else re-opens them. It is armed
	// while the node is not quiescent (core.Node.Quiescent), which a message
	// in a time-gated phase denies it, and at no other time.
	heartbeat = 5 * time.Millisecond
)

// Config describes a live run.
type Config struct {
	// Opt configures the protocol (variant, detector options). QuorumGate
	// must stay false: the live substrate enforces quorum responsiveness
	// physically (paxos blocks without a majority), not via the engine.
	Opt core.Options
	// Membership describes the deployment: which replicas exist (with their
	// daemons' addresses in multi-process deployments) and which of them
	// this instance embodies. Nil means the single-OS-process default —
	// every process is local. Only local processes get stepping goroutines
	// and paxos/replog state, and delivery obligations are checked for
	// local processes only; the rest of the topology lives in peer OS
	// processes reachable over the transport. Non-local multicasts must
	// still be announced in the same global order at every daemon via
	// Announce (message IDs are positional).
	Membership *Membership
	// Storage supplies each local process's write-ahead log. Nil defaults
	// to a fresh in-memory WAL per process (storage.NewMem) — group-commit
	// semantics with no disk. Multi-process deployments (cmd/amcastd
	// -data-dir) pass file-backed logs here for crash recovery.
	Storage func(groups.Process) storage.WAL
}

// membership resolves the deployment descriptor: nil means the
// single-OS-process default (every process local, no addresses).
func (cfg Config) membership() Membership {
	if cfg.Membership != nil {
		return *cfg.Membership
	}
	return Membership{}
}

// System is a live run: Algorithm 1 nodes stepped by goroutines over the
// replicated backend, with crash injection driven by the failure pattern.
//
//	nw := net.New(topo.NumProcesses())       // or chaos.Wrap(...)
//	sys := live.NewSystem(topo, pat, nw, live.Config{})
//	sys.Start()
//	m := sys.Multicast(0, 1, []byte("x"))
//	ok := sys.AwaitDelivery(10 * time.Second)
//	sys.Stop()
//	violations := sys.Check()
type System struct {
	Topo  *groups.Topology
	Pat   *failure.Pattern
	Sh    *core.Shared
	Nodes []*core.Node
	Net   net.Transport

	be  *Backend
	cfg Config
	mem Membership
	// started is when Start ran, nil before. Nobody advances the clock:
	// now() divides the time since.
	started atomic.Pointer[time.Time]
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	// wakeCh holds one capacity-1 wakeup channel per owned process (nil for
	// the rest). A send is level-triggered: a wakeup arriving while the node
	// drains parks in the buffer and re-runs the drain, so notifications
	// racing a going-to-sleep node are never lost.
	wakeCh []chan struct{}

	// dch broadcasts local deliveries to AwaitDelivery waiters: closed and
	// replaced under dmu on every delivery (fetch the channel BEFORE
	// re-checking the predicate).
	dmu sync.Mutex
	dch chan struct{}
}

// NewSystem assembles a live system over the transport. The transport must
// span topo.NumProcesses() processes; wrap it in chaos.Wrap for fault
// injection. Call Start to launch it.
func NewSystem(topo *groups.Topology, pat *failure.Pattern, nw net.Transport, cfg Config) *System {
	if cfg.Opt.QuorumGate {
		panic("live: QuorumGate is an engine-run construct; the live substrate gates on real quorums")
	}
	if cfg.Storage == nil {
		// The default in-memory WALs still feed the recorder's counter block
		// (the discard block when no recorder is attached), so the bench can
		// report WAL bytes/op on the mem path too.
		rec := cfg.Opt.Rec
		cfg.Storage = func(groups.Process) storage.WAL { return storage.NewMem().Observe(rec.WAL()) }
	}
	s := &System{
		Topo: topo,
		Pat:  pat,
		Net:  nw,
		mem:  cfg.membership(),
		stop: make(chan struct{}),
		dch:  make(chan struct{}),
	}
	// Every local delivery pings the AwaitDelivery broadcast; the caller's
	// hook (if any) still runs, after ours.
	userOnDeliver := cfg.Opt.OnDeliver
	cfg.Opt.OnDeliver = func(p groups.Process, m *msg.Message, t failure.Time) {
		s.notifyDelivery()
		if userOnDeliver != nil {
			userOnDeliver(p, m, t)
		}
	}
	s.cfg = cfg
	s.Sh = core.NewSharedWithBackend(topo, pat, cfg.Opt, func(sh *core.Shared) core.Backend {
		s.be = NewBackend(topo, sh.Reg, sh.Mu, nw, s.now, cfg.Opt.Variant == core.StronglyGenuine, cfg.Opt.Rec, s.mem, cfg.Storage)
		return s.be
	})
	// Wake plumbing must exist before the nodes: building a core.Node
	// eagerly creates its backend log replicas, and replica creation is
	// when the apply-notification hook is attached.
	s.wakeCh = make([]chan struct{}, topo.NumProcesses())
	for p := range s.wakeCh {
		if s.owns(groups.Process(p)) {
			s.wakeCh[p] = make(chan struct{}, 1)
		}
	}
	s.be.SetNotify(s.wake)
	// Only owned processes get automatons: a non-owned process's replicas
	// live in the daemon that owns it. Slots for non-owned processes stay
	// nil (Multicast and runNode only ever touch owned ones).
	s.Nodes = make([]*core.Node, topo.NumProcesses())
	for p := range s.Nodes {
		if s.owns(groups.Process(p)) {
			s.Nodes[p] = core.NewNode(groups.Process(p), s.Sh)
		}
	}
	return s
}

// wake nudges p's stepping goroutine: something p observes may have changed
// (a replica applied decided operations, or a client enqueued a request).
// Non-blocking — a full buffer means a wakeup is already pending.
func (s *System) wake(p groups.Process) {
	if int(p) >= len(s.wakeCh) {
		return
	}
	ch := s.wakeCh[p]
	if ch == nil {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// notifyDelivery closes-and-replaces the delivery broadcast channel.
func (s *System) notifyDelivery() {
	s.dmu.Lock()
	close(s.dch)
	s.dch = make(chan struct{})
	s.dmu.Unlock()
}

// deliveryCh returns the current broadcast channel. Waiters must fetch it
// before evaluating their predicate: any delivery after the fetch closes
// this very channel, so the sleep cannot miss it.
func (s *System) deliveryCh() <-chan struct{} {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.dch
}

// now is the backend's clock: the current tick, 0 until Start.
func (s *System) now() failure.Time {
	at := s.started.Load()
	if at == nil {
		return 0
	}
	return failure.Time(time.Since(*at) / tickEvery)
}

// Now returns the current tick (drivers use it to schedule multicasts
// relative to the crash schedule).
func (s *System) Now() failure.Time { return s.now() }

// owns reports whether this System instance embodies p (all processes in
// the single-OS-process default).
func (s *System) owns(p groups.Process) bool {
	return s.mem.Owns(p)
}

// Start starts the clock and launches one stepping goroutine per owned
// process, plus one that enacts the crash schedule if there is one.
func (s *System) Start() {
	// A crash scheduled at tick 0 means failed-from-the-beginning: enact it
	// before any stepper runs. Any life at all would be enough for the
	// batched hot path to commit a whole run before the "initial" crash
	// lands.
	var crashes []groups.Process
	for p := 0; p < s.Topo.NumProcesses(); p++ {
		pp := groups.Process(p)
		switch ct := s.Pat.CrashTime(pp); {
		case ct == failure.Never:
		case ct <= 0:
			s.Net.Crash(pp)
		default:
			crashes = append(crashes, pp)
		}
	}
	start := time.Now()
	s.started.Store(&start)
	if len(crashes) > 0 {
		sort.Slice(crashes, func(i, j int) bool { return s.Pat.CrashTime(crashes[i]) < s.Pat.CrashTime(crashes[j]) })
		s.wg.Add(1)
		go s.runCrashes(start, crashes)
	}
	for p := range s.Nodes {
		if !s.owns(groups.Process(p)) {
			continue
		}
		s.wg.Add(1)
		go s.runNode(groups.Process(p))
	}
}

// runCrashes applies the failure pattern's crash schedule (processes in
// crash-time order) to the transport: at its crash tick a process goes
// silent (fail-stop), exactly what the detectors' histories assume. One
// timer per scheduled crash, and every owned node is woken when it fires:
// γ and the §6.1 indicators move with the pattern, so a node waiting on them
// re-evaluates at once instead of at its next heartbeat, and the crashed
// process's own stepper, which may be parked without a timer, sees the crash
// and exits.
func (s *System) runCrashes(start time.Time, crashes []groups.Process) {
	defer s.wg.Done()
	for _, p := range crashes {
		timer := time.NewTimer(time.Until(start.Add(time.Duration(s.Pat.CrashTime(p)) * tickEvery)))
		select {
		case <-s.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		s.Net.Crash(p)
		for q := range s.wakeCh {
			s.wake(groups.Process(q))
		}
	}
}

// runNode steps one node until shutdown (or its crash). Stepping is
// wakeup-driven: every wakeup runs passes until one fires nothing, then the
// node sleeps until a replica apply, a client enqueue or registration or a
// scheduled crash wakes it. A quiescent node parks without a timer — every
// input of its guards that can move wakes it (DESIGN.md §12); one that is
// not, because a message sits in a time-gated phase, rescans every
// heartbeat. A step that blocks inside a shared-object operation is
// unblocked by Net.Close at Stop.
func (s *System) runNode(p groups.Process) {
	defer s.wg.Done()
	n := s.Nodes[p]
	sched := s.cfg.Opt.Rec.Sched()
	wake := s.wakeCh[p]
	timer := time.NewTimer(heartbeat)
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if s.Net.Crashed(p) {
			return
		}
		// Drain: fire until no guard holds, re-sampling the tick each step
		// (γ queries must see time advance across a long chain). The stop
		// check inside the loop matters: after Stop closes the transport,
		// shared-object operations complete degraded and a guard can stay
		// enabled forever — the drain must not outlive the run.
		for n.Step(&engine.Ctx{Now: s.now()}) {
			select {
			case <-s.stop:
				return
			default:
			}
			if s.Net.Crashed(p) {
				return
			}
		}
		var beat <-chan time.Time
		if !n.Quiescent() {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(heartbeat)
			beat = timer.C
		}
		select {
		case <-s.stop:
			return
		case <-wake:
			obs.Inc(&sched.NotifyWakeups)
		case <-beat:
			obs.Inc(&sched.TimerWakeups)
		}
	}
}

// Multicast issues a client multicast from src to group dst. The sender
// must belong to dst (closed dissemination model, enforced by Shared).
func (s *System) Multicast(src groups.Process, dst groups.GroupID, payload []byte) *msg.Message {
	return s.MulticastClassed(src, dst, payload, msg.ClassAll)
}

// MulticastClassed is Multicast with an explicit conflict-class tag
// (Generic-variant runs driven by class-tagged schedules).
func (s *System) MulticastClassed(src groups.Process, dst groups.GroupID, payload []byte, class msg.Class) *msg.Message {
	m := s.Sh.RequestClassed(src, dst, payload, class, s.now())
	s.Nodes[src].Multicast(m)
	s.wake(src)
	return m
}

// Announce registers a multicast issued by a process another daemon
// embodies. Message IDs are positional in the registry, so every daemon
// must see the same multicast schedule in the same order — the owning
// daemon calls Multicast, every other daemon calls Announce with identical
// arguments, and both paths register the message and append it to the
// relevant logs' obligations without enqueueing it at a local (non-owned)
// sender node.
func (s *System) Announce(src groups.Process, dst groups.GroupID, payload []byte) *msg.Message {
	return s.AnnounceClassed(src, dst, payload, msg.ClassAll)
}

// AnnounceClassed is Announce with an explicit conflict-class tag; peer
// daemons must pass the same tag as the owning daemon's MulticastClassed.
//
// The registration grows L_dst, which the senders' group-sequential gate
// reads and no replica apply announces, so the owned members of dst are
// woken: a parked node has no timer that would rescan later.
func (s *System) AnnounceClassed(src groups.Process, dst groups.GroupID, payload []byte, class msg.Class) *msg.Message {
	m := s.Sh.RequestClassed(src, dst, payload, class, s.now())
	for _, p := range s.Topo.Group(dst).Members() {
		if s.owns(p) {
			s.wake(p)
		}
	}
	return m
}

// allDelivered mirrors the Termination checker's obligation: every
// multicast message is delivered by every correct member of its
// destination group.
func (s *System) allDelivered() bool {
	type ev struct {
		p groups.Process
		m msg.ID
	}
	got := make(map[ev]bool)
	for _, d := range s.Sh.Deliveries() {
		got[ev{d.P, d.M}] = true
	}
	for _, m := range s.Sh.Reg.All() {
		for _, p := range s.Topo.Group(m.Dst).Members() {
			// Only owned processes can be checked locally: a peer daemon's
			// deliveries are not visible in this Shared instance.
			if !s.Pat.IsCorrect(p) || !s.owns(p) {
				continue
			}
			if !got[ev{p, m.ID}] {
				return false
			}
		}
	}
	return true
}

// AwaitDelivery blocks until every issued multicast is delivered at every
// correct destination member, or the timeout elapses; it reports success.
func (s *System) AwaitDelivery(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.AwaitDeliveryCtx(ctx)
}

// AwaitDeliveryCtx is AwaitDelivery under a caller-supplied context: it
// blocks until full delivery, context cancellation, or Stop, and reports
// whether full delivery was reached.
//
// The wait is broadcast-driven, not a poll: every local delivery closes the
// broadcast channel, and the channel is fetched before the predicate is
// evaluated, so a delivery landing between the check and the sleep still
// wakes the waiter. Nothing else can make the predicate true — it inspects
// owned processes only, and a registration can only make it false — so
// there is no timer.
func (s *System) AwaitDeliveryCtx(ctx context.Context) bool {
	for {
		ch := s.deliveryCh()
		if s.allDelivered() {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-s.stop:
			return s.allDelivered()
		case <-ch:
		}
	}
}

// Stop freezes the trace and tears the run down: the trace freeze comes
// first so operations completing degraded during shutdown cannot corrupt
// the evidence; closing the transport then unblocks every node parked
// inside a consensus operation.
func (s *System) Stop() {
	s.once.Do(func() {
		s.Sh.Freeze()
		close(s.stop)
		s.Net.Close()
		s.wg.Wait()
	})
}

// Trace exports the run evidence for the checkers. TookSteps is nil — wall
// clock runs have no step ledger, so the Minimality checker is skipped
// (genuineness is an engine-run property; see internal/check).
func (s *System) Trace() *check.Trace {
	local := make(map[groups.Process][]msg.ID)
	for _, d := range s.Sh.Deliveries() {
		local[d.P] = append(local[d.P], d.M)
	}
	multicast := make(map[msg.ID]failure.Time, s.Sh.Reg.Len())
	first := make(map[msg.ID]failure.Time)
	for _, m := range s.Sh.Reg.All() {
		multicast[m.ID] = s.Sh.RequestedAt(m.ID)
		if t, ok := s.Sh.FirstDeliveredAt(m.ID); ok {
			first[m.ID] = t
		}
	}
	tr := &check.Trace{
		Topo:           s.Topo,
		Pat:            s.Pat,
		Reg:            s.Sh.Reg,
		LocalOrder:     local,
		Multicast:      multicast,
		FirstDelivered: first,
	}
	if s.Sh.Opt.Variant == core.Generic {
		tr.Conflicts = s.Sh.Conflicts
	}
	return tr
}

// Report assembles the run's observability: the recorder's view (timeline,
// latency, coordination, paxos/replog counters) decorated with what only
// this layer knows — the tick clock, the transport's traffic counters, and
// the nemesis injection counters when the transport is chaos-wrapped. The
// live substrate keeps no per-process step ledger, so StepsAccounted stays
// false (steps are an engine-run quantity).
func (s *System) Report() obs.RunReport {
	rep := s.Sh.Rec().Report()
	rep.Backend = "live"
	rep.Processes = s.Topo.NumProcesses()
	rep.Groups = s.Topo.NumGroups()
	rep.Ticks = int64(s.now())
	if nr, ok := s.Net.(obs.NetReporter); ok {
		rep.Net = nr.NetReport()
	}
	if wr, ok := s.Net.(obs.WireReporter); ok {
		rep.Wire = wr.WireReport()
	}
	if cr, ok := s.Net.(obs.ChaosReporter); ok {
		rep.Chaos = cr.InjectionReport()
	}
	return rep
}

// Check validates the completed run against the specification and returns
// the violations (empty means the run satisfied it). Call after Stop, or
// at a quiescent point.
func (s *System) Check() []*check.Violation {
	strict := s.Sh.Opt.Variant == core.Strict
	pairwise := s.Sh.Opt.Variant == core.Pairwise
	generic := s.Sh.Opt.Variant == core.Generic
	return check.All(s.Trace(), strict, pairwise, generic)
}
