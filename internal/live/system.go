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
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/replog"
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
	// Local is the set of processes this instance embodies; empty means
	// every process of the topology. Only local processes get stepping
	// goroutines and paxos/replog state, and delivery obligations are
	// checked for local processes only; the rest of the topology lives in
	// peer OS processes reachable over the transport. Every daemon must still
	// call MulticastClassed for every multicast, local or not, in the same
	// global order (message IDs are positional).
	Local groups.ProcSet
	// Storage supplies each local process's write-ahead log. Nil defaults
	// to a fresh in-memory WAL per process (storage.NewMem) — group-commit
	// semantics with no disk. Multi-process deployments (cmd/amcastd
	// -data-dir) pass file-backed logs here for crash recovery.
	Storage func(groups.Process) storage.WAL
}

// System is a live run: Algorithm 1 nodes stepped by goroutines over the
// replicated logs it hands them as their core.Backend (backend.go), with
// crash injection driven by the failure pattern.
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

	cfg Config
	// started is when Start ran, nil before; ended is when Stop ran, nil
	// before. Nobody advances the clock: Now divides the time between.
	started atomic.Pointer[time.Time]
	ended   atomic.Pointer[time.Time]
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	// wakeCh holds one capacity-1 wakeup channel per owned process (nil for
	// the rest). A send is level-triggered: a wakeup arriving while the node
	// drains parks in the buffer and re-runs the drain, so notifications
	// racing a going-to-sleep node are never lost.
	wakeCh []chan struct{}

	// dch broadcasts local deliveries to AwaitDelivery waiters: closed and
	// replaced under dmu on every delivery that finds a waiter registered
	// in waiters (fetch the channel BEFORE re-checking the predicate; see
	// notifyDelivery for why a delivery that finds none may skip it).
	dmu     sync.Mutex
	dch     chan struct{}
	waiters atomic.Int32

	// pax holds the paxos node (acceptor + proposer) of each embodied
	// process, nil for the rest; reps, under lk, every replica created.
	pax  []*paxos.Node
	lk   sync.Mutex
	reps map[repKey]*replog.Replica
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
	if cfg.Local.Empty() {
		for p := 0; p < topo.NumProcesses(); p++ {
			cfg.Local = cfg.Local.Add(groups.Process(p))
		}
	}
	s := &System{
		Topo: topo,
		Pat:  pat,
		Net:  nw,
		stop: make(chan struct{}),
		dch:  make(chan struct{}),
		pax:  make([]*paxos.Node, topo.NumProcesses()),
		reps: make(map[repKey]*replog.Replica),
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
	s.Sh = core.NewSharedWithBackend(topo, pat, cfg.Opt, s)
	// AwaitDelivery's obligation: only owned processes can be checked
	// locally (a peer daemon's deliveries are not visible in this Shared),
	// and only correct ones must deliver.
	s.Sh.Watch(cfg.Local.Intersect(pat.Correct()))
	// In a multi-process deployment each daemon runs acceptors only for the
	// processes it embodies — the rest answer from their own OS processes
	// over the transport.
	for _, p := range cfg.Local.Members() {
		s.pax[p] = paxos.StartNodeWithConfig(nw, p, paxos.Config{Counters: cfg.Opt.Rec.Paxos(), WAL: cfg.Storage(p)})
	}
	// Only owned processes get a wakeup channel and an automaton: a
	// non-owned process's replicas live in the daemon that owns it. Slots
	// for non-owned processes stay nil (MulticastClassed and runNode only
	// ever touch owned ones). The channel comes first: building p's node
	// eagerly creates p's log replicas, and each wakes p from the moment it
	// is built.
	s.wakeCh = make([]chan struct{}, topo.NumProcesses())
	s.Nodes = make([]*core.Node, topo.NumProcesses())
	for _, p := range cfg.Local.Members() {
		s.wakeCh[p] = make(chan struct{}, 1)
		s.Nodes[p] = core.NewNode(p, s.Sh)
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

// notifyDelivery closes-and-replaces the delivery broadcast channel, unless
// no AwaitDelivery waiter is registered. Skipping it then cannot lose a
// wakeup. It runs from OnDeliver, after core.Shared lowered Outstanding
// under its mutex, and a waiter registers in waiters before it fetches the
// channel and reads Outstanding under that same mutex. So either the
// waiter's read comes after the decrement, and sees it, or it comes before:
// then the waiter's registration happens before its unlock, which happens
// before the decrement's lock, which happens before the load below, so the
// load sees the waiter and the channel it fetched is closed.
func (s *System) notifyDelivery() {
	if s.waiters.Load() == 0 {
		return
	}
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

// Now is the run's clock: the current tick, 0 until Start and where Stop
// left it afterwards. Failure detectors and crash schedules key on it, and
// drivers schedule multicasts relative to the crash schedule with it.
func (s *System) Now() failure.Time {
	at := s.started.Load()
	if at == nil {
		return 0
	}
	end := time.Now()
	if e := s.ended.Load(); e != nil {
		end = *e
	}
	return failure.Time(end.Sub(*at) / tickEvery)
}

// owns reports whether this System instance embodies p.
func (s *System) owns(p groups.Process) bool { return s.cfg.Local.Has(p) }

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
	for _, p := range s.cfg.Local.Members() {
		s.wg.Add(1)
		go s.runNode(p)
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
		for n.Step(&engine.Ctx{Now: s.Now()}) {
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
// (Generic-variant runs driven by class-tagged schedules). Message IDs are
// positional in the registry, so every daemon calls it for every multicast
// of the schedule, in the same order and with the same arguments. The
// daemon that embodies src enqueues the message at src's node and wakes it.
// Every other daemon only registers it: the registration grows L_dst, which
// the senders' group-sequential gate reads and no replica apply announces,
// and lets a member ingest the message where a peer's op already put it in
// a log, so the owned members of dst are woken — a parked node has no timer
// that would rescan later.
func (s *System) MulticastClassed(src groups.Process, dst groups.GroupID, payload []byte, class msg.Class) *msg.Message {
	m := s.Sh.RequestClassed(src, dst, payload, class, s.Now())
	if s.owns(src) {
		s.Nodes[src].Multicast(m)
		s.wake(src)
		return m
	}
	for _, p := range s.Topo.Group(dst).Members() {
		s.wake(p)
	}
	return m
}

// allDelivered mirrors the Termination checker's obligation: every
// multicast message is delivered by every correct member of its
// destination group that this instance owns. Shared keeps the count of
// pairs outstanding, so a wake costs O(1) however long the run.
func (s *System) allDelivered() bool { return s.Sh.Outstanding() == 0 }

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
// The wait is broadcast-driven, not a poll: the waiter registers, every
// local delivery that finds a waiter registered closes the broadcast
// channel, and the channel is fetched before the predicate is evaluated, so
// a delivery landing between the check and the sleep still wakes the waiter
// (notifyDelivery states the ordering argument). Nothing else can make the
// predicate true — it inspects owned processes only, and a registration can
// only make it false — so there is no timer.
func (s *System) AwaitDeliveryCtx(ctx context.Context) bool {
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
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

// Stop stops the clock, freezes the trace and tears the run down: the
// clock and the trace freeze first so operations completing degraded during
// shutdown can neither corrupt the evidence nor count as run time; closing
// the transport then unblocks every node parked inside a consensus
// operation.
func (s *System) Stop() {
	s.once.Do(func() {
		end := time.Now()
		s.ended.Store(&end)
		s.Sh.Freeze()
		close(s.stop)
		s.Net.Close()
		s.wg.Wait()
	})
}

// Batches returns the batches p's copy of LOG_g holds, each head that
// carries more than itself mapped to its last request (DESIGN.md §13). p
// must be an owned member of g. Call after Stop, or at a quiescent point.
func (s *System) Batches(p groups.Process, g groups.GroupID) map[msg.ID]msg.ID {
	out := make(map[msg.ID]msg.ID)
	s.replica(p, core.PairKey{A: g, B: g}).Read(func(l *logobj.Log) {
		for _, h := range l.Messages() {
			if t := l.Batch(h); t != msg.None {
				out[h] = t
			}
		}
	})
	return out
}

// Trace exports the run evidence for the checkers. It has no step ledger
// — a wall-clock run keeps none — so the Minimality checker is skipped
// (genuineness is an engine-run property; see internal/check).
func (s *System) Trace() *check.Trace { return s.Sh.Trace(nil) }

// Report assembles the run's observability: the recorder's view (timeline,
// latency, coordination, paxos/replog counters) decorated with what only
// this layer knows — the transport's traffic counters, and the nemesis
// injection counters when the transport is chaos-wrapped. The live
// substrate keeps no per-process step ledger, so StepsAccounted stays false
// (steps are an engine-run quantity).
func (s *System) Report() obs.RunReport {
	rep := s.Sh.Report("live", s.Now())
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
func (s *System) Check() []*check.Violation { return s.Sh.Check(s.Trace()) }
