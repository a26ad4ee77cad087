package live

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/chaos"
	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Env is what a scenario runs in besides its stream: the inputs of a run
// that workload.Digest does not hash (one stream runs on mem and on tcp).
type Env struct {
	Seed      int64  // the workload seed: (scenario, Seed) names the stream
	Transport string // "mem" (in-memory channels) or "tcp" (loopback sockets)
	// Plan, when set, is a seeded fault schedule chaos.Nemesis replays over
	// the fabric from the first arrival on; the run waits for its quiesce
	// before it waits for delivery. A run under a plan is a verdict, not a
	// measurement: it records the event timeline and skips the idle linger.
	Plan *chaos.Plan
	// Crashes is the declared crash schedule (nil: nobody crashes). No
	// multicast is sent from its processes: an arrival whose sender it
	// crashes is sent by a correct member of the destination instead.
	Crashes *failure.Pattern
}

// Failure is a failed verdict with the report of the run it judged.
type Failure struct {
	Err    error
	Report obs.RunReport
}

func (f *Failure) Error() string { return f.Err.Error() }

const (
	// deliveryTimeout bounds the wait for full delivery after the stream.
	deliveryTimeout = 90 * time.Second
	// IdleLinger is how long a delivered run is held in silence, to read what
	// an idle stack costs (idle_packets_per_s, idle_cpu_ms_per_s).
	IdleLinger = time.Second
	// MinTailSamples is the sample floor of a tail percentile column: with
	// fewer beyond it the percentile is the maximum renamed, and is left out.
	MinTailSamples = 10
)

// mildFaults is the fault mix of a chaos_seed row: enough loss, duplication
// and delay (each ~1ms of timer granularity) that retries show in pkts/dlv.
var mildFaults = chaos.Faults{Drop: 0.005, Dup: 0.01, DelayMax: 300 * time.Microsecond}

// runEnv is what openEnv builds: the fabric (wrapped in the nemesis under a
// chaos_seed or a plan) and the write-ahead logs under it.
type runEnv struct {
	nw      net.Transport
	chaos   *chaos.Chaos                     // non-nil under a chaos_seed or a plan
	nemesis *chaos.Nemesis                   // non-nil under a plan
	dir     string                           // file WALs live here; "" on the mem backing
	wals    []storage.WAL                    // file WALs by process; nil on the mem backing
	storage func(groups.Process) storage.WAL // hands out wals; nil on mem
}

// openEnv builds the environment of sc over n processes. File WALs are
// opened in a fresh temporary directory and count into wc; the caller
// releases the environment with close.
func openEnv(sc workload.Scenario, env Env, n int, wc *obs.WALCounters) (*runEnv, error) {
	e := &runEnv{}
	switch env.Transport {
	case "mem":
		e.nw = net.New(n)
	case "tcp":
		f, err := wire.NewFabric(n)
		if err != nil {
			return nil, err
		}
		e.nw = f
	default:
		return nil, fmt.Errorf("unknown transport %q (want mem or tcp)", env.Transport)
	}
	switch {
	case sc.ChaosSeed != 0:
		e.chaos = chaos.Wrap(e.nw, sc.ChaosSeed)
		e.chaos.SetFaults(mildFaults)
		e.nw = e.chaos
	case env.Plan != nil:
		e.chaos = chaos.Wrap(e.nw, env.Plan.Seed)
		e.nemesis = &chaos.Nemesis{C: e.chaos, Plan: *env.Plan}
		e.nw = e.chaos
	}
	if sc.WALMode() == workload.WALMem {
		return e, nil
	}
	dir, err := os.MkdirTemp("", "loadsim-wal-")
	if err != nil {
		e.close()
		return nil, err
	}
	e.dir = dir
	fsync := "sync"
	if sc.WALMode() == workload.WALFileNoSync {
		fsync = "none"
	}
	for p := 0; p < n; p++ {
		w, err := cliconf.OpenWAL(dir, fsync, groups.Process(p), wc)
		if err != nil {
			e.close()
			return nil, err
		}
		e.wals = append(e.wals, w)
	}
	e.storage = func(p groups.Process) storage.WAL { return e.wals[p] }
	return e, nil
}

// liftFaults ends a chaos_seed's mild fault mix, so the rest of the run's
// liveness depends on the protocol and not on the schedule being kind. A
// plan lifts its own faults with its final quiesce.
func (e *runEnv) liftFaults() {
	if e.chaos != nil && e.nemesis == nil {
		e.chaos.SetFaults(chaos.Faults{})
	}
}

// replayWALs closes the stopped system's file WALs and replays each as a
// restarting process would; the replay time lands in wc (recovery_ms).
func (e *runEnv) replayWALs(wc *obs.WALCounters) error {
	for p, w := range e.wals {
		if err := w.Close(); err != nil {
			return fmt.Errorf("wal close p%d: %w", p, err)
		}
	}
	for p := range e.wals {
		w, err := cliconf.OpenWAL(e.dir, "sync", groups.Process(p), wc)
		if err != nil {
			return fmt.Errorf("wal reopen p%d: %w", p, err)
		}
		err = w.Replay(func(storage.Record) error { return nil })
		w.Close() // only read from
		if err != nil {
			return fmt.Errorf("wal replay p%d: %w", p, err)
		}
	}
	return nil
}

// close releases everything openEnv acquired. Every Close below is
// idempotent, so it is safe after System.Stop and after replayWALs.
func (e *runEnv) close() {
	e.nw.Close()
	for _, w := range e.wals {
		w.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// sender is who submits the i-th arrival a: its own sender when the crash
// schedule leaves that correct, else its destination's correct members in
// turn.
func sender(topo *groups.Topology, correct groups.ProcSet, a workload.Arrival, i int) groups.Process {
	if correct.Has(a.Src) {
		return a.Src
	}
	cs := topo.Group(a.Dst).Intersect(correct).Members()
	return cs[i%len(cs)]
}

// delivery is one delivery event. It is joined with intended times after
// the run: OnDeliver can fire before the loop records the intended time.
type delivery struct {
	id msg.ID
	at time.Time
}

// Run drives one scenario's stream open-loop against a fresh system in env,
// waits for a plan's quiesce and for delivery at every correct destination,
// and returns the row (latency from intended send times, offered rate,
// stream digest) and the verdict: delivery within deliveryTimeout, Check,
// JournalDiff for soak, and on a commuting mix a fast-path delivery. A
// failed verdict once the system has run is a *Failure. It is the one way a
// stream becomes a live run: loadsim's rows, nemesis's chain workloads and
// this package's chaos tests.
func Run(sc workload.Scenario, env Env) (benchfmt.LiveRow, error) {
	gen, err := workload.NewGen(sc, env.Seed)
	if err != nil {
		return benchfmt.LiveRow{}, err
	}
	digest, err := workload.Digest(sc, env.Seed)
	if err != nil {
		return benchfmt.LiveRow{}, err
	}
	topo := gen.Topology()
	n := topo.NumProcesses()
	pat := env.Crashes
	if pat == nil {
		pat = failure.NewPattern(n)
	}
	correct := pat.Correct()
	for g := 0; g < topo.NumGroups(); g++ {
		if pat.N() != n || topo.Group(groups.GroupID(g)).Intersect(correct).Empty() {
			return benchfmt.LiveRow{}, fmt.Errorf("crash schedule %v leaves g%d of a %d-process topology no correct sender", pat, g, n)
		}
	}
	level := obs.LevelCounters
	if env.Plan != nil {
		level = obs.LevelAll
	}
	rec := obs.NewRecorder(obs.Options{Level: level, WallClock: true})
	e, err := openEnv(sc, env, n, rec.WAL())
	if err != nil {
		return benchfmt.LiveRow{}, err
	}
	defer e.close()
	opt := core.Options{Rec: rec}
	if sc.ConflictRate < 1 { // a commuting mix: the Generic variant
		opt.Variant = core.Generic
		opt.Conflict = msg.ClassesConflict
	}
	var mu sync.Mutex
	var events []delivery
	opt.OnDeliver = func(_ groups.Process, m *msg.Message, _ failure.Time) {
		at := time.Now()
		mu.Lock()
		events = append(events, delivery{id: m.ID, at: at})
		lift := len(events) == sc.Count
		mu.Unlock()
		if lift {
			// As many deliveries as multicasts: the first third of the work on
			// 3-member groups ran under the nemesis. (Lifting after the send
			// loop instead would lift before a burst's first packet.)
			e.liftFaults()
		}
	}
	if sc.Soak {
		replog.SetJournal(true) // for the journal/decision diff below
		defer replog.SetJournal(false)
	}
	sys := NewSystem(topo, pat, e.nw, Config{Opt: opt, Storage: e.storage})
	sys.Start()
	var quiesced <-chan struct{}
	if e.nemesis != nil {
		quiesced = e.nemesis.Go()
	}

	// The open-loop clock: when the driver falls behind (the system is
	// slower than the offered rate, or everything is due at once), arrivals
	// fire back to back and the growing gap lands in the intended-time
	// latency — exactly the tail a closed loop would have hidden.
	start := time.Now()
	intended := make(map[msg.ID]time.Duration, sc.Count)
	var lastAt time.Duration
	free := 0
	for i := 0; ; i++ {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if d := time.Until(start.Add(a.At)); d > 0 {
			time.Sleep(d)
		}
		m := sys.MulticastClassed(sender(topo, correct, a, i), a.Dst, nil, a.Class)
		intended[m.ID] = a.At
		lastAt = a.At
		if a.Class == msg.ClassFree {
			free++
		}
	}
	if quiesced != nil {
		<-quiesced
	}
	ok := sys.AwaitDelivery(deliveryTimeout)
	var idle silence
	if ok && env.Plan == nil {
		idle = linger(sys)
	}
	sys.Stop()
	if err := e.replayWALs(rec.WAL()); err != nil {
		return benchfmt.LiveRow{}, err
	}
	rep := sys.Report()
	// The linger is not part of the run: its span and its packets come off
	// the report, so throughput and packets/delivery read as they always did.
	rep.Wall -= idle.span
	if rep.Net != nil {
		rep.Net.Packets -= idle.packets
	}
	fail := func(format string, args ...any) (benchfmt.LiveRow, error) {
		return benchfmt.LiveRow{}, &Failure{Err: fmt.Errorf(format, args...), Report: rep}
	}
	if !ok {
		return fail("delivery incomplete after %v (%d multicasts, %d deliveries)",
			deliveryTimeout, rep.Multicasts, rep.Deliveries)
	}
	if vs := sys.Check(); len(vs) > 0 {
		return fail("specification violated: %v (and %d more)", vs[0], len(vs)-1)
	}
	if sc.Soak {
		if errs := sys.JournalDiff(); len(errs) > 0 {
			return fail("journal/decision diff: %v (and %d more)", errs[0], len(errs)-1)
		}
	}
	if free > 0 && (rep.Conflict == nil || rep.Conflict.FastDeliveries == 0) {
		return fail("%d commuting multicasts were sent but no delivery took the fast path", free)
	}

	// Every delivered message was submitted by the loop above, so a missing
	// id is a bug worth failing on, not skipping.
	mu.Lock()
	lat := make([]float64, 0, len(events))
	for _, ev := range events {
		at, found := intended[ev.id]
		if !found {
			mu.Unlock()
			return fail("delivery of unknown message m%d", ev.id)
		}
		lat = append(lat, float64(ev.at.Sub(start.Add(at)))/float64(time.Millisecond))
	}
	mu.Unlock()
	sum := obs.Summarise(lat)

	row := benchfmt.FromReport(rep)
	row.Scenario = sc.Name
	row.WorkloadSeed = env.Seed
	row.StreamDigest = digest
	row.Transport = env.Transport
	row.ChaosSeed = sc.ChaosSeed
	row.ConflictRate = sc.ConflictRate
	row.FsyncMode = sc.WALMode()
	row.P50Ms = sum.P50
	row.P90Ms = sum.P90
	row.MaxMs = sum.Max
	if float64(len(lat))*0.01 >= MinTailSamples {
		row.P99Ms = sum.P99
	}
	if float64(len(lat))*0.001 >= MinTailSamples {
		row.P999Ms = sum.P999
	}
	if lastAt > 0 {
		row.OfferedPerSec = float64(sc.Count) / lastAt.Seconds()
	}
	if secs := idle.span.Seconds(); secs > 0 {
		row.IdlePacketsPerS = float64(idle.packets) / secs
		row.IdleCPUMsPerS = float64(idle.cpu) / float64(time.Millisecond) / secs
	}
	return row, nil
}

// silence is what a delivered system did while nobody multicast: for how
// long it was held, the packets it sent and the CPU this process burnt.
type silence struct {
	span    time.Duration
	packets int64
	cpu     time.Duration
}

// linger holds the delivered system in silence for IdleLinger.
func linger(sys *System) silence {
	packets := func() int64 {
		if nr, ok := sys.Net.(obs.NetReporter); ok {
			return nr.NetReport().Packets
		}
		return 0
	}
	p0, c0, t0 := packets(), cpuTime(), time.Now()
	time.Sleep(IdleLinger)
	return silence{span: time.Since(t0), packets: packets() - p0, cpu: cpuTime() - c0}
}

// cpuTime is the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // both reads fail alike: the column reads 0 and is left out
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ChainUnderPlan is the run nemesis's chain workloads and this package's
// chaos tests replay plan against: a chain of (plan.N-1)/2 3-member groups,
// a multicast every 35 ms for the plan's duration (stream seeded by the
// plan's seed) at conflictRate over 3 keys, on the in-memory fabric. Every
// group's middle member crashes, from tick 120 in steps of 60; the shared
// members stay up, so every group and intersection keeps a majority.
func ChainUnderPlan(plan chaos.Plan, conflictRate float64) (workload.Scenario, Env, error) {
	const gap = 35 * time.Millisecond
	n := plan.N
	if n < 3 || n%2 == 0 {
		return workload.Scenario{}, Env{}, fmt.Errorf("this workload needs an odd -n >= 3 (chain of overlapping 3-member groups), got %d", n)
	}
	sc := workload.Scenario{
		Name:     "chain-under-plan",
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: (n - 1) / 2},
		Arrivals: workload.ArrivalsFixed, Rate: float64(time.Second) / float64(gap),
		Count:        max(1, int(plan.Duration/gap)),
		ConflictRate: conflictRate,
	}
	pat := failure.NewPattern(n)
	for p := 1; p < n; p += 2 {
		pat = pat.WithCrash(groups.Process(p), failure.Time(120+30*(p-1)))
	}
	return sc, Env{Seed: plan.Seed, Transport: "mem", Plan: &plan, Crashes: pat}, nil
}
