package live

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/replog"
)

// TestLiveLeaseFailover crashes the stable Multi-Paxos leader of g0 while
// multicasts stream through its logs and asserts, across chaos seeds:
//
//	(a) the surviving leader holds the group log's lease, won by a full
//	    phase-1 range round — observed on the wire, per process and tick
//	    (leaseTap): the newest range phase 1 won in LOG_g0's realm is p1's,
//	    whether p1 won it after the crash or before it and was never
//	    out-balloted by p0 since;
//	(b) no decided slot ever changes value — every pair of paxos nodes
//	    agrees on every instance both decided, compared bit-for-bit over
//	    the nodes' full decision maps;
//
// plus the standing obligations: full delivery and a clean specification
// trace. Ω stabilises on the lowest-ID correct process, so crashing p0
// moves the leader sample of g0 = {0,1,2} (and of the pair logs g0 hosts)
// to p1 — the fast path must fail over, not just fall back forever.
func TestLiveLeaseFailover(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runLeaseFailover(t, seed)
		})
	}
}

func runLeaseFailover(t *testing.T, seed int64) {
	topo := chainTopo(t)
	const crashTick = 120
	pat := failure.NewPattern(7).WithCrash(0, crashTick)
	c := chaos.Wrap(net.New(7), seed)
	tap := &leaseTap{Transport: c, realm: pairRealm(core.CanonPair(0, 0))}
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	sys := NewSystem(topo, pat, tap, Config{Opt: core.Options{Rec: rec}})
	tap.now = sys.Now
	sys.Start()
	defer sys.Stop()

	plan := chaos.NewPlan(seed, 7, 300*time.Millisecond)
	nm := &chaos.Nemesis{C: c, Plan: plan}
	nmDone := nm.Go()

	// Phase 1: stream multicasts into g0 (and the neighbouring groups, so
	// the pair logs g0 hosts see traffic) until the crash tick has passed.
	senders := []struct {
		p groups.Process
		g groups.GroupID
	}{{1, 0}, {2, 1}, {2, 0}, {4, 1}}
	i := 0
	for sys.Now() < crashTick+20 {
		s := senders[i%len(senders)]
		sys.Multicast(s.p, s.g, []byte{byte(i)})
		i++
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: more traffic through g0's logs — the new leader p1 cannot
	// serve these slots without acquiring its own lease (any lease p1 held
	// from before was out-balloted by p0's acquisition on a quorum that
	// survives p0's crash).
	for j := 0; j < 6; j++ {
		sys.Multicast(1, 0, []byte{byte(100 + j)})
		time.Sleep(5 * time.Millisecond)
	}
	<-nmDone

	if !sys.AwaitDelivery(90 * time.Second) {
		sys.Stop()
		t.Fatalf("seed %d: no full delivery after leader crash (%d multicasts, %d deliveries, stats %+v)",
			seed, sys.Sh.Reg.Len(), len(sys.Sh.Deliveries()), c.Stats())
	}
	sys.Stop()

	// (a) The survivor holds LOG_g0's lease: the newest range phase 1 won
	// in the realm — the only path that installs a lease — is p1's. Ω
	// rotates over g0 until it stabilises, so p1 may have won it before
	// the crash, and then it only re-acquires if p0 out-balloted it since.
	won := tap.acquisitions()
	var newest acquisition
	for _, a := range won {
		if a.ballot > newest.ballot {
			newest = a
		}
	}
	if newest.p != 1 || newest.ballot == 0 {
		t.Errorf("seed %d: LOG_g0's newest lease is not p1's after p0 crashed at tick %d; wins (p, ballot, tick): %v",
			seed, crashTick, won)
	}

	// (b) Agreement at the paxos layer: any instance decided by two nodes
	// carries the same value at both. This is stronger than the delivery
	// checker — it catches a slot silently re-decided with a different
	// value even if the damage never surfaces in a delivery order.
	snaps := make([]map[paxos.InstanceID]paxos.Value, len(sys.pax))
	for p, node := range sys.pax {
		snaps[p] = node.SnapshotDecisions()
	}
	for p := range snaps {
		for q := p + 1; q < len(snaps); q++ {
			for inst, v := range snaps[p] {
				if w, ok := snaps[q][inst]; ok && !w.Equal(v) {
					t.Fatalf("seed %d: decided slot changed value: %+v = %x at p%d but %x at p%d",
						seed, inst, v, p, w, q)
				}
			}
		}
	}

	for _, v := range sys.Check() {
		t.Errorf("seed %d: specification violation: %v", seed, v)
	}
}

// TestLiveFailoverMidWindow crashes the stable leader while the replog
// submit loops have windows of accept rounds outstanding (burst load, no
// pacing between multicasts) and asserts the survivors agree on every
// realm's decided prefix: a failed windowed round can leave a hole below
// later decided slots, and the drain-and-repair path must reconcile it
// without forking any log. Agreement is checked twice — bit-for-bit on the
// paxos decision maps, and on the applied operation order of every replica
// pair sharing a log.
func TestLiveFailoverMidWindow(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailoverMidWindow(t, seed)
		})
	}
}

func runFailoverMidWindow(t *testing.T, seed int64) {
	// Journal every applied op (replog debug flag) so a fork can be pinned
	// on decide delivery vs consensus after the fact — see the diff below.
	replog.SetJournal(true)
	defer replog.SetJournal(false)

	topo := chainTopo(t)
	const crashTick = 60
	pat := failure.NewPattern(7).WithCrash(0, crashTick)
	c := chaos.Wrap(net.New(7), seed)
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	sys := NewSystem(topo, pat, c, Config{Opt: core.Options{Rec: rec}})
	sys.Start()
	defer sys.Stop()

	plan := chaos.NewPlan(seed, 7, 200*time.Millisecond)
	nm := &chaos.Nemesis{C: c, Plan: plan}
	nmDone := nm.Go()

	// Burst half the load immediately so the pipelines are multi-slot deep
	// when the crash tick arrives, then the rest after it so the repaired
	// logs keep extending under the new leader.
	senders := []struct {
		p groups.Process
		g groups.GroupID
	}{{1, 0}, {2, 1}, {2, 0}, {4, 1}}
	for i := 0; i < 16; i++ {
		s := senders[i%len(senders)]
		sys.Multicast(s.p, s.g, []byte{byte(i)})
	}
	for sys.Now() < crashTick+20 {
		time.Sleep(5 * time.Millisecond)
	}
	for i := 16; i < 28; i++ {
		s := senders[i%len(senders)]
		sys.Multicast(s.p, s.g, []byte{byte(i)})
	}
	<-nmDone

	if !sys.AwaitDelivery(90 * time.Second) {
		sys.Stop()
		t.Fatalf("seed %d: no full delivery after mid-window crash (%d multicasts, %d deliveries)",
			seed, sys.Sh.Reg.Len(), len(sys.Sh.Deliveries()))
	}
	sys.Stop()

	// The scenario only means something if the window actually opened.
	if obs.Snapshot(rec.Paxos()).WindowRounds == 0 {
		t.Errorf("seed %d: no windowed rounds fired — burst did not engage the pipeline", seed)
	}

	// Paxos-level agreement, bit-for-bit.
	snaps := make([]map[paxos.InstanceID]paxos.Value, len(sys.pax))
	for p, node := range sys.pax {
		snaps[p] = node.SnapshotDecisions()
	}
	for p := range snaps {
		for q := p + 1; q < len(snaps); q++ {
			for inst, v := range snaps[p] {
				if w, ok := snaps[q][inst]; ok && !w.Equal(v) {
					t.Fatalf("seed %d: decided slot changed value: %+v = %x at p%d but %x at p%d",
						seed, inst, v, p, w, q)
				}
			}
		}
	}

	// Replog-level agreement: every pair of replicas of the same log agrees
	// on the common prefix of the applied operations. p0's replicas stop
	// applying at the crash, so the check compares journals, not item orders.
	byPair := make(map[core.PairKey][]*replog.Replica)
	sys.lk.Lock()
	for key, rep := range sys.reps {
		byPair[key.pair] = append(byPair[key.pair], rep)
	}
	sys.lk.Unlock()
	applied := 0
	for pair, reps := range byPair {
		ref := reps[0].Journal()
		applied += len(ref)
		for _, rep := range reps[1:] {
			if err := replog.JournalFork(ref, rep.Journal()); err != nil {
				t.Fatalf("seed %d: log %v: %v", seed, pair, err)
			}
		}
	}
	if applied == 0 {
		t.Fatalf("seed %d: no applied op journalled", seed)
	}

	// Journal vs decision diff (the ROADMAP item 3 flake hunt): every op a
	// replica journalled at apply time must be exactly the op sequence the
	// decided batch of that slot carries in the same node's own decision
	// snapshot. If this diff fires while the bit-for-bit snapshot agreement
	// above held, the fork is in decide *delivery* (applyAt was fed a value
	// the acceptor never recorded); if both fire, it is a consensus fork.
	// The same check guards every loadsim soak scenario via JournalDiff.
	for _, err := range sys.JournalDiff() {
		t.Fatalf("seed %d: journal/decision diff: %v", seed, err)
	}

	for _, v := range sys.Check() {
		t.Errorf("seed %d: specification violation: %v", seed, v)
	}
}

// leaseTap is a transport that logs, per process, the lease acquisitions
// in one realm by the phase 1 each wins: a proposer sends a range prepare at
// a ballot, and sends an accept at that ballot only once a quorum has
// granted the range — so the first accept of a ballot that a range prepare
// opened marks its phase 1 won. Each is logged with the tick its prepare was
// sent at, read off now.
type leaseTap struct {
	net.Transport
	realm uint64
	now   func() failure.Time

	mu   sync.Mutex
	open map[int64]failure.Time // range prepares not yet won: ballot → tick sent
	won  []acquisition
}

// acquisition is a range phase 1 won by p at a ballot, prepared at tick at.
type acquisition struct {
	p      groups.Process
	ballot int64
	at     failure.Time
}

func (l *leaseTap) Send(from, to groups.Process, t net.MsgType, body any) {
	switch b := body.(type) {
	case paxos.PrepareReq:
		if b.Range && l.watched(b.Inst) {
			at := l.now()
			l.mu.Lock()
			if _, ok := l.open[b.Ballot]; !ok {
				if l.open == nil {
					l.open = make(map[int64]failure.Time)
				}
				l.open[b.Ballot] = at
			}
			l.mu.Unlock()
		}
	case paxos.AcceptReq:
		if l.watched(b.Inst) {
			l.mu.Lock()
			if at, ok := l.open[b.Ballot]; ok {
				delete(l.open, b.Ballot)
				l.won = append(l.won, acquisition{p: from, ballot: b.Ballot, at: at})
			}
			l.mu.Unlock()
		}
	}
	l.Transport.Send(from, to, t, body)
}

// acquisitions returns the phase-1 wins logged so far.
func (l *leaseTap) acquisitions() []acquisition {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.won)
}

// watched reports whether id is a log slot of the tapped realm.
func (l *leaseTap) watched(id paxos.InstanceID) bool {
	return id.Space == paxos.SpaceLog && id.Realm == l.realm
}

// consKiller is a transport that fail-stops a process at the moment it would
// send its first accept request for a slot carrying a CONS proposal: its pos
// tuples are in LOG_g, its consensus proposal reaches nobody.
type consKiller struct {
	net.Transport
	victim groups.Process
	armed  atomic.Bool
	fired  atomic.Bool
}

func (k *consKiller) Send(from, to groups.Process, t net.MsgType, body any) {
	if req, ok := body.(paxos.AcceptReq); ok && from == k.victim && k.armed.Load() && carriesCons(req.Val) {
		if k.fired.CompareAndSwap(false, true) {
			k.Transport.Crash(k.victim)
		}
		return
	}
	k.Transport.Send(from, to, t, body)
}

func carriesCons(v paxos.Value) bool {
	ops, err := replog.DecodeBatch(v)
	if err != nil {
		return false
	}
	for _, o := range ops {
		if o.Datum.Kind == logobj.KindCons {
			return true
		}
	}
	return false
}

// TestLiveLeaseFailoverBeforeCons crashes g0's stable leader between the two
// halves of a commit: after its (m,h,i) tuples are decided in LOG_g0 and
// before its CONS_{m,f} proposal — one more op in the same leased slot stream
// — reaches any acceptor. Consensus has no liveness mechanism of its own any
// more, so this is the log's failover doing consensus's job: the survivors'
// forwarded proposals run out of patience, they propose in LOG_g0 themselves
// (duelling until Ω settles on p1), the first proposal appended decides, and
// everything is delivered.
func TestLiveLeaseFailoverBeforeCons(t *testing.T) {
	topo := chainTopo(t)
	const crashTick = 1000
	pat := failure.NewPattern(7).WithCrash(0, crashTick)
	nw := &consKiller{Transport: net.New(7), victim: 0}
	sys := NewSystem(topo, pat, nw, Config{})
	sys.Start()
	defer sys.Stop()

	// Warm up: p0 acquires the leases of g0's logs.
	for i := 0; i < 4; i++ {
		sys.Multicast(1, 0, []byte{byte(i)})
		sys.Multicast(2, 1, []byte{byte(i)})
	}
	if !sys.AwaitDelivery(30 * time.Second) {
		t.Fatalf("warm-up not delivered: %d deliveries", len(sys.Sh.Deliveries()))
	}
	// The detectors learn of the crash at crashTick; the process goes silent
	// a little earlier, mid-commit — for a while it is merely suspected of
	// nothing, which is the case the patience fallback exists for.
	for sys.Now() < crashTick-30 {
		time.Sleep(time.Millisecond)
	}
	nw.armed.Store(true)
	m := sys.Multicast(1, 0, []byte("mid-commit"))
	for i := 0; i < 4; i++ {
		time.Sleep(5 * time.Millisecond)
		sys.Multicast(2, 0, []byte{byte(10 + i)})
	}
	if !sys.AwaitDelivery(90 * time.Second) {
		sys.Stop()
		t.Fatalf("no full delivery after the leader died mid-commit (%d multicasts, %d deliveries)",
			sys.Sh.Reg.Len(), len(sys.Sh.Deliveries()))
	}
	sys.Stop()
	if !nw.fired.Load() {
		t.Fatal("the leader never proposed to CONS while armed: the scenario did not happen")
	}
	decided := false
	for _, d := range sys.replica(1, core.PairKey{A: 0, B: 0}).Snapshot() {
		decided = decided || (d.Kind == logobj.KindCons && d.Msg == m.ID)
	}
	if !decided {
		t.Errorf("m%d was delivered but LOG_g0 at p1 holds no CONS decision for it", m.ID)
	}
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
}

// TestLeaderSamplerMatchesOmega holds the leader sampler a replica is given
// against the Ω history it adapts, sampled at the same tick, on both sides
// of the stabilisation tick: on the failover test's pattern (p0 crashes at
// tick 120), where the sampler stops reading the clock once it has seen the
// stable leader, and on one where every member of g0 crashes, where Ω never
// settles and neither may the sampler. Processes outside g0 trust themselves
// throughout.
func TestLeaderSamplerMatchesOmega(t *testing.T) {
	topo := chainTopo(t)
	for _, pat := range []*failure.Pattern{
		failure.NewPattern(7).WithCrash(0, 120),
		failure.NewPattern(7).WithCrash(0, 20).WithCrash(1, 40).WithCrash(2, 60),
	} {
		sys := NewSystem(topo, pat, net.New(7), Config{})
		scope, omega := sys.hosting(core.CanonPair(0, 0))
		sample := sys.leaderFunc(scope, omega)
		stable := pat.Horizon() + sys.Sh.Opt.FD.Delay
		sys.Start()
		var before, after int
		for sys.Now() < stable+40 {
			for q := groups.Process(0); q < 7; q++ {
				at := sys.Now()
				got := sample(q)
				if sys.Now() != at {
					continue // the tick moved under the sample
				}
				want, ok := omega.Leader(q, at)
				if !ok {
					want = q
				}
				if got != want {
					sys.Stop()
					t.Fatalf("crashes at %v: sampler says p%d leads for p%d at tick %d, Ω says p%d",
						pat, got, q, at, want)
				}
				if at < stable {
					before++
				} else {
					after++
				}
			}
			time.Sleep(time.Millisecond)
		}
		sys.Stop()
		if before == 0 || after == 0 {
			t.Fatalf("crashes at %v: %d samples before tick %d, %d after: the test saw one side only", pat, before, stable, after)
		}
	}
}
