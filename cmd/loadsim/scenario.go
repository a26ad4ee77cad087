package main

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
	"repro/internal/live"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// delivery is one raw delivery event captured by the OnDeliver hook: which
// message landed, and when on the wall clock. The intended-time join
// happens after the run — the hook can fire before the sending loop has
// recorded the message's intended time, so it must not consult that map.
type delivery struct {
	id msg.ID
	at time.Time
}

// mildFaults is the fault mix of a chaos-seeded row: enough loss,
// duplication and delay that retransmission work shows in packets/delivery.
// (The delays cost far more than their nominal length: every delayed packet
// pays the host's timer granularity, ~1ms, on a FIFO link.)
var mildFaults = chaos.Faults{
	Drop:     0.005,
	Dup:      0.01,
	DelayMax: 300 * time.Microsecond,
}

// idleLinger is how long a delivered run is held in silence before it is
// stopped, to read what an idle stack costs (idle_packets_per_s,
// idle_cpu_ms_per_s): the tail of the run's own stragglers and, after them,
// whatever still ticks when nobody multicasts.
const idleLinger = time.Second

// minTailSamples is the sample floor of a tail percentile column: with
// fewer samples beyond the percentile it is the maximum under another name,
// and the column is left out of the row.
const minTailSamples = 10

// env is what a row's environment columns build: the fabric the system runs
// on (transport, wrapped in the nemesis under a chaos_seed) and the
// write-ahead logs under it (wal).
type env struct {
	nw    net.Transport
	chaos *chaos.Chaos  // non-nil under a chaos_seed, faults set
	dir   string        // file WALs live here; "" on the mem backing
	wals  []storage.WAL // file WALs by process; nil on the mem backing
	// storage is the live.Config.Storage handing out wals; nil on the mem
	// backing, which leaves the system its own in-memory default.
	storage func(groups.Process) storage.WAL
}

// openEnv builds the environment of sc over n processes. File WALs are
// opened in a fresh temporary directory and count into wc; the caller
// releases the environment with close.
func openEnv(sc workload.Scenario, transport string, n int, wc *obs.WALCounters) (*env, error) {
	e := &env{}
	switch transport {
	case "mem":
		e.nw = net.New(n)
	case "tcp":
		f, err := wire.NewFabric(n)
		if err != nil {
			return nil, err
		}
		e.nw = f
	default:
		return nil, fmt.Errorf("unknown transport %q (want mem or tcp)", transport)
	}
	if sc.ChaosSeed != 0 {
		e.chaos = chaos.Wrap(e.nw, sc.ChaosSeed)
		e.chaos.SetFaults(mildFaults)
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

// liftFaults ends fault injection, so the rest of the run's liveness
// depends on the protocol and not on the schedule being kind.
func (e *env) liftFaults() {
	if e.chaos != nil {
		e.chaos.SetFaults(chaos.Faults{})
	}
}

// replayWALs closes the stopped system's file WALs and replays each as a
// restarting process would. The replay time lands in wc, which the report
// turns into the recovery_ms column.
func (e *env) replayWALs(wc *obs.WALCounters) error {
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
// idempotent, so it is safe after System.Stop (which closes the transport)
// and after replayWALs (which closes the logs and reports their errors).
func (e *env) close() {
	e.nw.Close()
	for _, w := range e.wals {
		w.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// runScenario drives one scenario's full stream against a fresh live
// system in the scenario's environment and reduces the run to its SLO row.
// The returned row carries the open-loop latency columns (measured from
// intended send times), the offered rate, and the stream digest; an error
// means the scenario did not complete (delivery timeout), the delivered
// trace violates the specification or, for soak scenarios, the applied-op
// journal diverged from the decision snapshots.
func runScenario(sc workload.Scenario, seed int64, transport string, timeout time.Duration) (benchfmt.LiveRow, error) {
	gen, err := workload.NewGen(sc, seed)
	if err != nil {
		return benchfmt.LiveRow{}, err
	}
	digest, err := workload.Digest(sc, seed)
	if err != nil {
		return benchfmt.LiveRow{}, err
	}
	topo := gen.Topology()
	n := topo.NumProcesses()
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	e, err := openEnv(sc, transport, n, rec.WAL())
	if err != nil {
		return benchfmt.LiveRow{}, err
	}
	defer e.close()
	opt := core.Options{Rec: rec}
	if gen.Generic() {
		opt.Variant = core.Generic
		opt.Conflict = msg.ClassesConflict
	}
	// Raw delivery capture: every (process, message) delivery event, stamped
	// here rather than trusting any downstream clock.
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
		// Soak scenarios run with the applied-op journal armed so the
		// journal/decision diff below covers every campaign, not just the
		// failover tests (ROADMAP item 8).
		replog.SetJournal(true)
		defer replog.SetJournal(false)
	}
	sys := live.NewSystem(topo, failure.NewPattern(n), e.nw, live.Config{Opt: opt, Storage: e.storage})
	sys.Start()

	// The open-loop clock: each arrival is submitted no earlier than its
	// intended time. When the driver falls behind (the system is slower than
	// the offered rate, or the scenario is a burst and everything is due at
	// once), arrivals fire back to back and the growing gap lands in the
	// intended-time latency — exactly the tail a closed loop would have
	// hidden.
	start := time.Now()
	intended := make(map[msg.ID]time.Duration, sc.Count)
	var lastAt time.Duration
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if d := time.Until(start.Add(a.At)); d > 0 {
			time.Sleep(d)
		}
		m := sys.MulticastClassed(a.Src, a.Dst, nil, a.Class)
		intended[m.ID] = a.At
		lastAt = a.At
	}
	ok := sys.AwaitDelivery(timeout)
	var idle silence
	if ok {
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
	if !ok {
		return benchfmt.LiveRow{}, fmt.Errorf("delivery incomplete after %v (%d multicasts, %d deliveries)",
			timeout, rep.Multicasts, rep.Deliveries)
	}
	if vs := sys.Check(); len(vs) > 0 {
		return benchfmt.LiveRow{}, fmt.Errorf("specification violated: %v (and %d more)", vs[0], len(vs)-1)
	}
	if sc.Soak {
		if errs := sys.JournalDiff(); len(errs) > 0 {
			return benchfmt.LiveRow{}, fmt.Errorf("journal/decision diff: %v (and %d more)", errs[0], len(errs)-1)
		}
	}

	// Join the raw delivery events against the intended send times. Every
	// event's message was submitted by the loop above, so a missing id is a
	// bug worth failing on, not skipping.
	mu.Lock()
	lat := make([]float64, 0, len(events))
	for _, ev := range events {
		at, found := intended[ev.id]
		if !found {
			mu.Unlock()
			return benchfmt.LiveRow{}, fmt.Errorf("delivery of unknown message m%d", ev.id)
		}
		lat = append(lat, float64(ev.at.Sub(start.Add(at)))/float64(time.Millisecond))
	}
	mu.Unlock()
	sum := obs.Summarise(lat)

	row := benchfmt.FromReport(rep)
	row.Scenario = sc.Name
	row.WorkloadSeed = seed
	row.StreamDigest = digest
	row.Transport = transport
	row.ChaosSeed = sc.ChaosSeed
	row.ConflictRate = sc.ConflictRate
	row.FsyncMode = sc.WALMode()
	row.P50Ms = sum.P50
	row.P90Ms = sum.P90
	row.MaxMs = sum.Max
	if float64(len(lat))*0.01 >= minTailSamples {
		row.P99Ms = sum.P99
	}
	if float64(len(lat))*0.001 >= minTailSamples {
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

// linger holds the delivered system in silence for idleLinger.
func linger(sys *live.System) silence {
	packets := func() int64 {
		if nr, ok := sys.Net.(obs.NetReporter); ok {
			return nr.NetReport().Packets
		}
		return 0
	}
	p0, c0, t0 := packets(), cpuTime(), time.Now()
	time.Sleep(idleLinger)
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
