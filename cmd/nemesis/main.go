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
//	nemesis -seed 7 -n 5 -duration 2s -workload replog
//	nemesis -seed 7 -print          # print the fault schedule and exit
//
// Two harnesses, two parameterisations each (see -h for the list). The log
// harness runs concurrent appends on one replicated log and checks that
// decisions and applied orders agree across replicas: "replog" under the
// link-fault schedule, "powercycle" on WAL-backed replicas that a power
// schedule kill -9s and reboots mid-run. The chain workloads run
// live.ChainUnderPlan's scenario through live.Run, loadsim's driver:
// Algorithm 1 on a chain of overlapping groups whose middle members crash,
// checked against the atomic-multicast specification — "multicast" the
// vanilla protocol, "commute" the Generic variant on mixed traffic.
//
// The last line on stdout is the verdict, one JSON object:
//
//	{"workload":"replog","seed":7,"n":5,"ok":true,"error":""}
//
// Exit status 1 means a safety or liveness violation (a chain workload
// ships its run report on stderr first), 2 a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/cliconf"
	"repro/internal/groups"
	"repro/internal/live"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/paxos"
	"repro/internal/replog"
	"repro/internal/storage"
)

// workload is one named nemesis target: the generator of its seeded fault
// plan, the run function the plan drives, and the one-line description shown
// in -h.
type workload struct {
	name string
	desc string
	plan func(seed int64, n int, d time.Duration) chaos.Plan
	run  func(plan chaos.Plan) error
}

// workloads is the registry, in display order.
var workloads = []workload{
	{"replog", "concurrent appends on one replicated log under link faults; checks decisions and applied orders agree across replicas",
		chaos.NewPlan, logWorkload(false)},
	{"powercycle", "the same on WAL-backed replicas that are kill -9ed and rebooted mid-run; checks recovery keeps the decided prefix intact",
		chaos.NewPowerPlan, logWorkload(true)},
	{"multicast", "Algorithm 1 over the live backend on a chain of overlapping groups; checks the full specification",
		chaos.NewPlan, runChain(1)},
	{"commute", "generic multicast with mixed conflicting/commuting traffic under chaos; checks the conflict-aware specification",
		chaos.NewPlan, runChain(0.3)},
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
		workloadFlag = flag.String("workload", "replog", "workload name (see list below)")
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

	plan := w.plan(cc.Seed, *nFlag, *durationFlag)
	fmt.Print(plan)
	if *printFlag {
		return
	}
	if !execute(os.Stdout, w, plan) {
		os.Exit(1)
	}
}

// verdict is the one machine-readable line a run ends with, so a soak is a
// loop a script can tally.
type verdict struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	N        int    `json:"n"`
	OK       bool   `json:"ok"`
	Error    string `json:"error"`
}

// execute runs w under the plan, writes the verdict line to out and reports
// whether the run passed.
func execute(out io.Writer, w workload, plan chaos.Plan) bool {
	v := verdict{Workload: w.name, Seed: plan.Seed, N: plan.N, OK: true}
	if err := w.run(plan); err != nil {
		v.OK, v.Error = false, err.Error()
	}
	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false) // "-n >= 3", not "\u003e="
	_ = enc.Encode(v)        // a closed stdout still leaves the exit status
	return v.OK
}

// logCluster is one replicated log over a chaos fabric, a replica per
// process, p0 the stable leader. A durable cluster can be power-cycled: each
// paxos node writes a Mem WAL, and the chaos power hooks kill -9 a process
// (fence the old incarnation, drop its unsynced WAL tail) and reboot it
// (rebuild node and replica from the durable log). It is the command-line
// twin of the harness in internal/replog's power-cycle test.
type logCluster struct {
	c     *chaos.Chaos
	scope groups.ProcSet
	wals  []*storage.Mem // nil: not durable

	mu       sync.Mutex
	nodes    []*paxos.Node
	reps     []*replog.Replica
	restarts int
}

func newLogCluster(n int, seed int64, durable bool) *logCluster {
	cl := &logCluster{
		c:     chaos.Wrap(net.New(n), seed),
		nodes: make([]*paxos.Node, n),
		reps:  make([]*replog.Replica, n),
	}
	if durable {
		cl.wals = make([]*storage.Mem, n)
		for p := range cl.wals {
			cl.wals[p] = storage.NewMem()
		}
		cl.c.OnPowerCycle(cl.powerOff, cl.powerOn)
	}
	for p := 0; p < n; p++ {
		cl.scope = cl.scope.Add(groups.Process(p))
	}
	for p := 0; p < n; p++ {
		cl.boot(groups.Process(p))
	}
	return cl
}

func (cl *logCluster) boot(p groups.Process) {
	var cfg paxos.Config
	if cl.wals != nil {
		cfg.WAL = cl.wals[p]
	}
	leader := func(groups.Process) groups.Process { return 0 }
	cl.nodes[p] = paxos.StartNodeWithConfig(cl.c, p, cfg)
	cl.reps[p] = replog.NewReplica("LOG", 1, p, cl.nodes[p], cl.c, cl.scope, leader, nil, nil)
}

func (cl *logCluster) powerOff(p groups.Process) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.nodes[p].Fence()
	cl.wals[p].PowerCycle()
}

func (cl *logCluster) powerOn(p groups.Process) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.boot(p)
	cl.restarts++
}

func (cl *logCluster) rep(p int) *replog.Replica {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.reps[p]
}

// logWorkload returns the run function of a log workload: concurrent appends
// on one replicated log — WAL-backed and power-cycled by the plan when
// durable — until the nemesis quiesces. Liveness after quiesce: a fence
// append lands at every replica (the rebooted incarnations included). Safety:
// the paxos decision maps agree bit-for-bit across every pair of nodes, the
// applied-op journals agree on their common prefix, and the replicas' local
// apply orders pass the pairwise-ordering checker (the paper's Ordering
// property restricted to one scope).
func logWorkload(durable bool) func(chaos.Plan) error {
	return func(plan chaos.Plan) error {
		n := plan.N
		replog.SetJournal(true)
		defer replog.SetJournal(false)
		cl := newLogCluster(n, plan.Seed, durable)
		defer cl.c.Close()

		nm := &chaos.Nemesis{C: cl.c, Plan: plan}
		nmDone := nm.Go()

		// Fire-and-forget appenders, distinct ids per replica. An append may
		// stall inside a partition window and must complete after; one caught
		// on a power-cycled incarnation blocks forever (a client talking to a
		// dead server), so nothing waits on these goroutines.
		var landed atomic.Int64
		for p := 0; p < n; p++ {
			go func(p int) {
				for i := 0; ; i++ {
					if _, ok := cl.rep(p).Append(logobj.MsgDatum(msg.ID(i*n + p + 1))).Wait(); !ok {
						return
					}
					landed.Add(1)
					select {
					case <-nmDone:
						return
					case <-time.After(500 * time.Microsecond):
					}
				}
			}(p)
		}
		<-nmDone

		// The schedule is over: no hook fires any more, these incarnations
		// are the final ones.
		cl.mu.Lock()
		nodes, reps, restarts := cl.nodes, cl.reps, cl.restarts
		cl.mu.Unlock()
		if durable && restarts == 0 {
			return fmt.Errorf("plan power-cycled nobody")
		}

		// Fence appends: with the fabric whole and every process up these must
		// all land, and completing one walks that replica through every
		// decided slot below it.
		fenced := make(chan bool, n)
		for p := range reps {
			go func(p int) {
				_, ok := reps[p].Append(logobj.MsgDatum(fenceID + msg.ID(p))).Wait()
				fenced <- ok
			}(p)
		}
		deadline := time.After(60 * time.Second)
		for range reps {
			select {
			case ok := <-fenced:
				if !ok {
					return fmt.Errorf("fence append failed after quiesce")
				}
			case <-deadline:
				return fmt.Errorf("fence append still blocked 60s after quiesce (restarts=%d, stats=%+v)",
					restarts, cl.c.Stats())
			}
		}
		fmt.Printf("workload: %d appends landed, %d restarts, stats %+v\n", landed.Load(), restarts, cl.c.Stats())

		// Paxos-level agreement, bit-for-bit across (recovered) nodes.
		snaps := make([]map[paxos.InstanceID]paxos.Value, n)
		for p, node := range nodes {
			snaps[p] = node.SnapshotDecisions()
		}
		for p := range snaps {
			for q := p + 1; q < len(snaps); q++ {
				for inst, v := range snaps[p] {
					if w, ok := snaps[q][inst]; ok && !w.Equal(v) {
						return fmt.Errorf("decided slot differs across nodes: %+v = %x at p%d but %x at p%d",
							inst, v, p, w, q)
					}
				}
			}
		}

		// Applied-log agreement: the applied journals' common prefix
		// bit-for-bit, plus the pairwise ordering checker over the full local
		// orders.
		orders := make(map[groups.Process][]msg.ID, n)
		for p, r := range reps {
			if err := replog.JournalFork(reps[0].Journal(), r.Journal()); err != nil {
				return fmt.Errorf("p0 vs p%d: %v", p, err)
			}
			for _, d := range r.Snapshot() {
				orders[groups.Process(p)] = append(orders[groups.Process(p)], d.Msg)
			}
		}
		if v := check.PairwiseOrdering(&check.Trace{LocalOrder: orders}); v != nil {
			return fmt.Errorf("log order violation: %v", v)
		}
		return nil
	}
}

// fenceID is the first id of the post-quiesce fence appends, far above
// anything an appender reaches.
const fenceID msg.ID = 1 << 40

// runChain returns the run function of a chain workload: the plan over
// live.ChainUnderPlan's chain at conflictRate, judged by live.Run. A failed
// verdict ships its run report on stderr: the counters say where the work
// went, the timeline tail what the protocol was doing when it stalled.
func runChain(conflictRate float64) func(chaos.Plan) error {
	return func(plan chaos.Plan) error {
		sc, env, err := live.ChainUnderPlan(plan, conflictRate)
		if err != nil {
			return err
		}
		row, err := live.Run(sc, env)
		var f *live.Failure
		if errors.As(err, &f) {
			fmt.Fprintf(os.Stderr, "%s\nevent timeline (tail):\n", f.Report.String())
			f.Report.WriteTimeline(os.Stderr, 60)
		}
		if err == nil {
			fmt.Printf("workload: %d multicasts, %d deliveries (%d fast), %d chaos injections\n",
				row.Multicasts, row.Deliveries, row.FastDeliveries, row.ChaosInjections)
		}
		return err
	}
}
