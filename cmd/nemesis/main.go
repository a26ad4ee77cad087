// Command nemesis replays a seeded fault schedule against a live quorum
// substrate and checks its safety and post-quiesce liveness obligations.
// It is the one-line repro for the chaos tests: a failing seed reported as
//
//	go run ./cmd/nemesis -seed 7
//
// rebuilds the exact per-link fault schedule of the failing run — every
// drop, delay, duplicate, partition and down/up cycle derives from the
// seed alone (see internal/chaos) — so the failure replays outside the
// test harness.
//
// Usage:
//
//	nemesis -seed 7 -n 5 -duration 2s -workload register
//	nemesis -seed 7 -print          # print the fault schedule and exit
//
// Workloads (see -h for the list): "register" runs a single-writer ABD
// workload and checks monotone reads; "replog" runs concurrent appends on
// the replicated log and checks pairwise ordering across replicas;
// "multicast" runs the full Algorithm 1 protocol on the live backend over
// a chain of overlapping groups and checks the atomic-multicast
// specification; "powercycle" kill -9s processes of a durable replicated
// log mid-run and checks that the rebooted incarnations recover from their
// write-ahead logs without forking the decided prefix. Exit status 1 means
// a safety or liveness violation, 2 a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/live"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/register"
	"repro/internal/replog"
	"repro/internal/storage"
	wl "repro/internal/workload"
)

// workload is one named nemesis target: a run function driven by the
// seeded fault plan plus the one-line description shown in -h. A workload
// with a plan generator of its own (powercycle) overrides the default
// drop/delay/partition schedule.
type workload struct {
	name string
	desc string
	run  func(seed int64, n int, plan chaos.Plan) error
	plan func(seed int64, n int, d time.Duration) chaos.Plan
}

// workloads is the registry, in display order.
var workloads = []workload{
	{"register", "single-writer ABD register; checks monotone reads and post-quiesce convergence", runRegister, nil},
	{"replog", "concurrent appends on one replicated log; checks pairwise ordering across replicas", runReplog, nil},
	{"multicast", "Algorithm 1 over the live backend on a chain of overlapping groups; checks the full specification", chainWorkload(nil), nil},
	{"commute", "generic multicast with mixed conflicting/commuting traffic under chaos; checks the conflict-aware specification", chainWorkload(commuteMix), nil},
	{"powercycle", "kill -9 and reboot durable log replicas mid-run; checks WAL recovery keeps the decided prefix intact", runPowerCycle, chaos.NewPowerPlan},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	cc := cliconf.Bind(flag.CommandLine, cliconf.ToolNemesis)
	var (
		nFlag        = flag.Int("n", 5, "number of processes")
		durationFlag = flag.Duration("duration", 2*time.Second, "nemesis run length")
		workloadFlag = flag.String("workload", "register", "workload name (see list below)")
		printFlag    = flag.Bool("print", false, "print the fault schedule and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: nemesis [flags]\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", w.name, w.desc)
		}
	}
	flag.Parse()

	if *nFlag < 2 {
		fmt.Fprintf(os.Stderr, "nemesis: -n %d: a quorum workload needs at least 2 processes\n", *nFlag)
		os.Exit(2)
	}
	w, ok := lookupWorkload(*workloadFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "nemesis: unknown workload %q\n", *workloadFlag)
		flag.Usage()
		os.Exit(2)
	}

	newPlan := chaos.NewPlan
	if w.plan != nil {
		newPlan = w.plan
	}
	plan := newPlan(cc.Seed, *nFlag, *durationFlag)
	fmt.Print(plan)
	if *printFlag {
		return
	}

	if err := w.run(cc.Seed, *nFlag, plan); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL seed=%d: %v\n", cc.Seed, err)
		os.Exit(1)
	}
	fmt.Printf("OK seed=%d\n", cc.Seed)
}

// runRegister drives a single-writer / two-reader ABD workload under the
// plan. Safety: readers never see values regress and never see a value the
// writer has not written. Liveness after quiesce: every node reads the
// final written value.
func runRegister(seed int64, n int, plan chaos.Plan) error {
	c := chaos.Wrap(net.New(n), seed)
	defer c.Close()
	var scope groups.ProcSet
	nodes := make([]*register.Node, n)
	for p := 0; p < n; p++ {
		nodes[p] = register.StartNode(c, groups.Process(p))
		scope = scope.Add(groups.Process(p))
	}
	reg := &register.Register{
		Name: "r", Scope: scope, Net: c,
		Quorum: register.Majority{Scope: scope},
	}

	nm := &chaos.Nemesis{C: c, Plan: plan}
	nmDone := nm.Go()

	var lastWritten int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := nodes[0].Client(reg)
		for v := int64(1); ; v++ {
			if !w.Write(v) {
				return
			}
			lastWritten = v
			select {
			case <-nmDone:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	readers := 2
	if n < 3 {
		readers = n - 1
	}
	seqs := make([][]int64, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := nodes[1+i].Client(reg)
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				v, ok := r.Read()
				if !ok {
					return
				}
				seqs[i] = append(seqs[i], v)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	<-nmDone
	<-writerDone
	wg.Wait()

	fmt.Printf("workload: %d writes, readers saw %d reads, stats %+v\n",
		lastWritten, len(seqs[0]), c.Stats())

	for i, seq := range seqs {
		for j := 1; j < len(seq); j++ {
			if seq[j] < seq[j-1] {
				return fmt.Errorf("reader %d regressed: %d after %d", i, seq[j], seq[j-1])
			}
		}
		for _, v := range seq {
			if v < 0 || v > lastWritten {
				return fmt.Errorf("reader %d saw invented value %d (last written %d)", i, v, lastWritten)
			}
		}
	}
	for p := 0; p < n; p++ {
		v, ok := nodes[p].Client(reg).Read()
		if !ok || v != lastWritten {
			return fmt.Errorf("p%d post-quiesce read = %d,%v; want %d", p, v, ok, lastWritten)
		}
	}
	return nil
}

// runReplog drives concurrent appends on the replicated log under the
// plan. Safety: the pairwise-ordering checker over the replicas' local
// apply orders (the paper's Ordering property restricted to one scope).
// Liveness after quiesce: every replica applies the full history.
func runReplog(seed int64, n int, plan chaos.Plan) error {
	c := chaos.Wrap(net.New(n), seed)
	defer c.Close()
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		scope = scope.Add(groups.Process(p))
	}
	leader := func(groups.Process) groups.Process { return 0 }
	reps := make([]*replog.Replica, n)
	for p := 0; p < n; p++ {
		node := paxos.StartNode(c, groups.Process(p))
		reps[p] = replog.NewReplica("LOG", 1, groups.Process(p), node, c, scope, leader)
	}

	nm := &chaos.Nemesis{C: c, Plan: plan}
	nmDone := nm.Go()

	// Each replica appends distinct ids until the nemesis quiesces. An
	// append may stall inside a partition window; it must complete after.
	var total int64
	var totalMu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				id := msg.ID(i*n + p + 1)
				if _, ok := reps[p].Append(logobj.MsgDatum(id)).Wait(); !ok {
					return
				}
				totalMu.Lock()
				total++
				totalMu.Unlock()
				select {
				case <-nmDone:
					return
				case <-time.After(500 * time.Microsecond):
				}
			}
		}()
	}
	<-nmDone
	wg.Wait()

	// Fence: one more append per replica walks it through every decided
	// slot, then every replica must reach the full history.
	for p := 0; p < n; p++ {
		if _, ok := reps[p].Append(logobj.MsgDatum(msg.ID(60000 + p))).Wait(); !ok {
			return fmt.Errorf("fence append failed at replica %d", p)
		}
		total++
	}
	for p := 0; p < n; p++ {
		if !reps[p].SyncWait(int(total), 10*time.Second) {
			return fmt.Errorf("replica %d applied %d of %d after quiesce", p, reps[p].Applied(), total)
		}
	}
	fmt.Printf("workload: %d appends, stats %+v\n", total, c.Stats())

	orders := make(map[groups.Process][]msg.ID, n)
	for p, r := range reps {
		for _, d := range r.Snapshot() {
			orders[groups.Process(p)] = append(orders[groups.Process(p)], d.Msg)
		}
	}
	if v := check.PairwiseOrdering(&check.Trace{LocalOrder: orders}); v != nil {
		return fmt.Errorf("log order violation: %v", v)
	}
	return nil
}

// pcCluster is a replicated log whose processes can be power-cycled: each
// paxos node writes a Mem WAL, and the chaos power hooks kill -9 a process
// (fence the old incarnation, drop its unsynced WAL tail) and reboot it
// (rebuild node and replica from the durable log). It is the command-line
// twin of the harness in internal/replog's power-cycle test.
type pcCluster struct {
	c      *chaos.Chaos
	scope  groups.ProcSet
	leader paxos.LeaderFunc

	mu       sync.Mutex
	wals     []*storage.Mem
	nodes    []*paxos.Node
	reps     []*replog.Replica
	restarts int
}

func newPCCluster(n int, seed int64) *pcCluster {
	cl := &pcCluster{
		c:      chaos.Wrap(net.New(n), seed),
		leader: func(groups.Process) groups.Process { return 0 },
		wals:   make([]*storage.Mem, n),
		nodes:  make([]*paxos.Node, n),
		reps:   make([]*replog.Replica, n),
	}
	for p := 0; p < n; p++ {
		cl.scope = cl.scope.Add(groups.Process(p))
	}
	for p := 0; p < n; p++ {
		cl.wals[p] = storage.NewMem()
		cl.boot(groups.Process(p))
	}
	cl.c.OnPowerCycle(cl.powerOff, cl.powerOn)
	return cl
}

func (cl *pcCluster) boot(p groups.Process) {
	node := paxos.StartNodeWithConfig(cl.c, p, paxos.Config{WAL: cl.wals[p]})
	cl.nodes[p] = node
	cl.reps[p] = replog.NewReplica("LOG", 1, p, node, cl.c, cl.scope, cl.leader)
}

func (cl *pcCluster) powerOff(p groups.Process) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.nodes[p].Fence()
	cl.wals[p].PowerCycle()
}

func (cl *pcCluster) powerOn(p groups.Process) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.boot(p)
	cl.restarts++
}

func (cl *pcCluster) rep(p int) *replog.Replica {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.reps[p]
}

// runPowerCycle drives concurrent appends on a durable replicated log while
// the power plan kill -9s and reboots processes. Safety: after the final
// reboot, the paxos decision maps agree bit-for-bit across every pair of
// nodes (recovered incarnations included) and the applied logs agree on
// their common prefix. Liveness after quiesce: a fence append lands at
// every replica.
func runPowerCycle(seed int64, n int, plan chaos.Plan) error {
	cl := newPCCluster(n, seed)
	defer cl.c.Close()

	nm := &chaos.Nemesis{C: cl.c, Plan: plan}
	nmDone := nm.Go()

	// Fire-and-forget appenders: an append caught on a power-cycled
	// incarnation blocks forever (a client talking to a dead server), so
	// nothing waits on these goroutines.
	var landed int64
	var landedMu sync.Mutex
	for p := 0; p < n; p++ {
		go func(p int) {
			for i := 0; i < 8; i++ {
				if _, ok := cl.rep(p).Append(logobj.MsgDatum(msg.ID(100*p + i + 1))).Wait(); ok {
					landedMu.Lock()
					landed++
					landedMu.Unlock()
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(p)
	}
	<-nmDone

	cl.mu.Lock()
	restarts := cl.restarts
	cl.mu.Unlock()
	if restarts == 0 {
		return fmt.Errorf("plan power-cycled nobody")
	}

	// Fence appends: with every process back up these must all land, and
	// completing one walks that replica through every decided slot below it.
	fenced := make(chan bool, n)
	for p := 0; p < n; p++ {
		go func(p int) {
			_, ok := cl.rep(p).Append(logobj.MsgDatum(msg.ID(1000 + p))).Wait()
			fenced <- ok
		}(p)
	}
	deadline := time.After(60 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case ok := <-fenced:
			if !ok {
				return fmt.Errorf("fence append failed after recovery")
			}
		case <-deadline:
			return fmt.Errorf("fence append still blocked 60s after quiesce (restarts=%d, stats=%+v)",
				restarts, cl.c.Stats())
		}
	}

	cl.mu.Lock()
	nodes := append([]*paxos.Node(nil), cl.nodes...)
	reps := append([]*replog.Replica(nil), cl.reps...)
	cl.mu.Unlock()

	landedMu.Lock()
	fmt.Printf("workload: %d appends landed, %d restarts, stats %+v\n", landed, restarts, cl.c.Stats())
	landedMu.Unlock()

	// Paxos-level agreement, bit-for-bit across recovered nodes.
	snaps := make([]map[paxos.InstanceID]paxos.Value, n)
	for p, node := range nodes {
		snaps[p] = node.SnapshotDecisions()
	}
	for p := range snaps {
		for q := p + 1; q < len(snaps); q++ {
			for inst, v := range snaps[p] {
				if w, ok := snaps[q][inst]; ok && !w.Equal(v) {
					return fmt.Errorf("decided slot changed value across a power cycle: %+v = %x at p%d but %x at p%d",
						inst, v, p, w, q)
				}
			}
		}
	}

	// Applied-log agreement: common prefix bit-for-bit, plus the pairwise
	// ordering checker over the full local orders.
	ref := reps[0].Snapshot()
	orders := make(map[groups.Process][]msg.ID, n)
	for p, r := range reps {
		snap := r.Snapshot()
		if p > 0 {
			m := len(ref)
			if len(snap) < m {
				m = len(snap)
			}
			for i := 0; i < m; i++ {
				if snap[i] != ref[i] {
					return fmt.Errorf("applied log forked at position %d: %v at p0 vs %v at p%d",
						i, ref[i], snap[i], p)
				}
			}
		}
		for _, d := range snap {
			orders[groups.Process(p)] = append(orders[groups.Process(p)], d.Msg)
		}
	}
	if v := check.PairwiseOrdering(&check.Trace{LocalOrder: orders}); v != nil {
		return fmt.Errorf("log order violation: %v", v)
	}
	return nil
}

// chainScenario builds the shared multicast chaos scenario: a chain of
// overlapping 3-member groups {0,1,2},{2,3,4},... over n processes, with
// the unique middle member of every group crashing on a staggered schedule
// (the shared members stay up, so every group and every pairwise
// intersection keeps a majority).
func chainScenario(n int) (*groups.Topology, *failure.Pattern, error) {
	if n < 3 || n%2 == 0 {
		return nil, nil, fmt.Errorf("this workload needs an odd -n >= 3 (chain of overlapping 3-member groups), got %d", n)
	}
	topo, err := wl.TopoSpec{Kind: wl.TopoChain, Groups: (n - 1) / 2}.Build()
	if err != nil {
		return nil, nil, err
	}
	pat := failure.NewPattern(n)
	ct := failure.Time(120)
	for p := 1; p < n; p += 2 {
		pat = pat.WithCrash(groups.Process(p), ct)
		ct += 60
	}
	return topo, pat, nil
}

// commuteMix is the commute workload's class function: 7 multicasts in 10
// commute with everything (ClassFree, the coordination-free fast path), the
// rest cycle through 3 keyed conflict classes that must stay totally ordered.
func commuteMix(i int) msg.Class {
	if i%10 >= 7 {
		return msg.Class(1 + i%3)
	}
	return msg.ClassFree
}

// chainWorkload returns the run function of a multicast workload: the full
// protocol on the live backend under the plan over the chain scenario.
// classOf gives the i-th multicast its conflict class; nil is the vanilla
// protocol (every message conflicts with every other), anything else runs
// the Generic variant and the conflict-aware checkers — total order within
// conflicting pairs, free divergence elsewhere. Correct members multicast
// until the nemesis quiesces; then every multicast must be delivered at
// every correct destination member, the whole trace must pass the
// specification checkers, and a run that sent commuting messages must have
// fast-delivered some.
func chainWorkload(classOf func(i int) msg.Class) func(seed int64, n int, plan chaos.Plan) error {
	return func(seed int64, n int, plan chaos.Plan) error {
		topo, pat, err := chainScenario(n)
		if err != nil {
			return err
		}
		opt := core.Options{Rec: obs.NewRecorder(obs.Options{WallClock: true})}
		if classOf != nil {
			opt.Variant = core.Generic
			opt.Conflict = msg.ClassesConflict
		}
		c := chaos.Wrap(net.New(n), seed)
		sys := live.NewSystem(topo, pat, c, live.Config{Opt: opt})
		sys.Start()
		defer sys.Stop()

		// On failure, ship the run report with the error: the counters say
		// where the work went (paxos rounds, probes, chaos injections) and the
		// timeline tail says what the protocol was doing when it stalled.
		fail := func(format string, args ...any) error {
			sys.Stop()
			rep := sys.Report()
			fmt.Fprintf(os.Stderr, "%s\n", rep.String())
			if len(rep.Events) > 0 {
				fmt.Fprintln(os.Stderr, "event timeline (tail):")
				rep.WriteTimeline(os.Stderr, 60)
			}
			return fmt.Errorf(format, args...)
		}

		nm := &chaos.Nemesis{C: c, Plan: plan}
		nmDone := nm.Go()

		// Round-robin multicasts from the correct (even-numbered) members of
		// each group until the fault schedule quiesces.
		sent, free := 0, 0
	loop:
		for i := 0; ; i++ {
			k := i % topo.NumGroups()
			src := groups.Process(2 * k)
			if i%2 == 1 {
				src = groups.Process(2*k + 2)
			}
			class := msg.ClassAll
			if classOf != nil {
				class = classOf(i)
			}
			if class == msg.ClassFree {
				free++
			}
			sys.MulticastClassed(src, groups.GroupID(k), nil, class)
			sent++
			select {
			case <-nmDone:
				break loop
			case <-time.After(35 * time.Millisecond):
			}
		}

		if !sys.AwaitDelivery(90 * time.Second) {
			return fail("post-quiesce delivery incomplete: %d multicasts sent", sent)
		}
		sys.Stop()
		var fast int64
		if rep := sys.Report(); rep.Conflict != nil {
			fast = rep.Conflict.FastDeliveries
		}
		fmt.Printf("workload: %d multicasts (%d commuting), %d fast deliveries, stats %+v\n",
			sent, free, fast, c.Stats())
		if free > 0 && fast == 0 {
			return fail("commuting messages were sent but no delivery skipped coordination")
		}
		if vs := sys.Check(); len(vs) > 0 {
			return fail("specification violated: %v", vs)
		}
		return nil
	}
}
