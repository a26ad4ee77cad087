package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chaos"
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
)

// repRequest is what the driver hands a child process: one repetition of
// one workload.
type repRequest struct {
	Spec       spec
	Seed       int64
	RepSeconds float64
	Rep        int
	// Traced arms the decorators, the replog journal and the CPU profile,
	// and writes trace.json and cpu.pprof under OutDir.
	Traced bool
	OutDir string
	// StartedUnixNano is the driver's clock just before it started the
	// child, so that set-up time includes process start.
	StartedUnixNano int64
	// SetupOnly ends the repetition after the warm-up: one more sample of
	// setup_s and nothing else.
	SetupOnly bool
}

// repResult is what the child reports back: every metric it can compute
// from this repetition, by name, plus the evidence kept with it.
type repResult struct {
	Digest     string             `json:"stream_digest"`
	Multicasts int                `json:"multicasts"`
	Pairs      int                `json:"pairs"`
	Failed     int                `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	Values     map[string]float64 `json:"values"`
}

// delivery is one raw OnDeliver event. The join against intended times
// happens after the run: the hook can fire before the sending loop has
// noted the message's id.
type delivery struct {
	id msg.ID
	p  groups.Process
	at time.Time
}

// usage is this process's resource usage so far: CPU time, context
// switches (voluntary: a thread parked; involuntary: it was preempted) and
// peak RSS.
type usage struct {
	User, Sys            time.Duration
	Voluntary, Preempted int64
	MaxRSSKB             int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		User: time.Duration(ru.Utime.Nano()), Sys: time.Duration(ru.Stime.Nano()),
		Voluntary: ru.Nvcsw, Preempted: ru.Nivcsw, MaxRSSKB: ru.Maxrss,
	}
}

// runRep runs one repetition in this process: set-up (build, Start, warm-up
// awaited to full delivery), the open-loop timed schedule, the drain, and
// the correctness checks. It never aborts on an undelivered message or a
// violation — both are reported in the result.
func runRep(req repRequest) (repResult, error) {
	w := req.Spec
	sc := w.scenario(req.RepSeconds)
	arrivals, digest, genNs, err := w.arrivals(sc, req.Seed)
	if err != nil {
		return repResult{}, err
	}
	topo, err := sc.Topo.Build()
	if err != nil {
		return repResult{}, err
	}
	n := topo.NumProcesses()

	// Transport: the reporting fabric first, then the stated delay, then —
	// outermost, so it sees what the stack sends — the tracing decorator.
	var fabric net.Transport
	switch w.Transport {
	case "mem":
		fabric = net.New(n)
	case "tcp":
		f, err := wire.NewFabric(n)
		if err != nil {
			return repResult{}, err
		}
		fabric = f
	default:
		return repResult{}, fmt.Errorf("workload %s: unknown transport %q", w.Name, w.Transport)
	}
	nw := fabric
	if w.HopDelay > 0 {
		c := chaos.Wrap(nw, req.Seed)
		c.SetFaults(chaos.Faults{DelayMin: w.HopDelay, DelayMax: w.HopDelay})
		nw = c
	}
	var tr *tracer
	var tnw *tracedTransport
	if req.Traced {
		tr = newTracer(n, time.Now())
		tnw = &tracedTransport{Transport: nw, tr: tr}
		nw = tnw
		replog.SetJournal(true)
	}

	// LevelCounters is how loadsim and benchtab run the stack: counters and
	// latency samples, no event timeline.
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	opt := core.Options{Rec: rec}
	if sc.ConflictRate < 1 {
		opt.Variant = core.Generic
		opt.Conflict = msg.ClassesConflict
	}
	pairs := 0
	for _, a := range arrivals {
		pairs += topo.Group(a.Dst).Count()
	}
	var (
		mu        sync.Mutex
		events    = make([]delivery, 0, pairs+3*warmupMulticasts)
		timedFrom atomic.Int64 // first message id of the timed schedule
		got       int
		drained   = make(chan struct{})
	)
	opt.OnDeliver = func(p groups.Process, m *msg.Message, _ failure.Time) {
		at := time.Now()
		mu.Lock()
		events = append(events, delivery{id: m.ID, p: p, at: at})
		if from := timedFrom.Load(); from != 0 && int64(m.ID) >= from {
			if got++; got == pairs {
				close(drained)
			}
		}
		mu.Unlock()
	}
	cfg := live.Config{Opt: opt}
	if w.SyncDelay > 0 || req.Traced {
		cfg.Storage = func(p groups.Process) storage.WAL {
			var wal storage.WAL = storage.NewMem().Observe(rec.WAL())
			if w.SyncDelay > 0 {
				wal = &slowSyncWAL{WAL: wal, delay: w.SyncDelay}
			}
			if req.Traced {
				wal = &tracedWAL{WAL: wal, tr: tr, proc: int(p)}
			}
			return wal
		}
	}
	sys := live.NewSystem(topo, failure.NewPattern(n), nw, cfg)
	sys.Start()
	defer sys.Stop() // idempotent: the measured path stops it earlier

	// Warm-up: round-robin over groups, awaited to full delivery.
	for i := 0; i < warmupMulticasts; i++ {
		g := groups.GroupID(i % topo.NumGroups())
		members := topo.Group(g).Members()
		class := msg.ClassAll
		if sc.ConflictRate < 1 && i%10 != 0 {
			class = msg.ClassFree
		}
		sys.MulticastClassed(members[i%len(members)], g, nil, class)
	}
	if !sys.AwaitDelivery(drainTimeout) {
		return repResult{}, fmt.Errorf("workload %s: warm-up not delivered within %v", w.Name, drainTimeout)
	}
	setup := time.Since(time.Unix(0, req.StartedUnixNano))
	if req.SetupOnly {
		return repResult{Digest: digest, Values: map[string]float64{"setup_s": setup.Seconds()}}, nil
	}

	// Everything the counters saw so far is set-up; the timed window is
	// the difference against these snapshots.
	before := rawCounters(sys, fabric)
	var typesBefore [256]int64
	if req.Traced {
		typesBefore = tnw.counts()
		tr.reset()
	}
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	if req.Traced {
		f, err := os.Create(filepath.Join(req.OutDir, "cpu.pprof"))
		if err != nil {
			return repResult{}, err
		}
		defer f.Close()
		// The default 100 Hz gives ~100 samples per CPU-second, too few to
		// split between ten layers; beyond 250 Hz this sandbox's timers drop
		// most of the extra samples. StartCPUProfile keeps a rate set before
		// it (and says so on stderr, which the driver shows only on failure).
		runtime.SetCPUProfileRate(250)
		if err := pprof.StartCPUProfile(f); err != nil {
			return repResult{}, err
		}
	}
	ruBefore := readUsage()

	// The open loop: each arrival is submitted no earlier than its intended
	// time; a generator that falls behind submits back to back, and the
	// wait lands in the latency measured from the intended time.
	start := time.Now()
	ids := make([]msg.ID, len(arrivals))
	submitAt := make([]time.Time, len(arrivals))
	submitEnd := make([]time.Time, len(arrivals))
	for i, a := range arrivals {
		if d := time.Until(start.Add(a.At)); d > 0 {
			time.Sleep(d)
		}
		submitAt[i] = time.Now()
		if i == 0 {
			timedFrom.Store(int64(sys.Sh.Reg.Len()) + 1)
		}
		m := sys.MulticastClassed(a.Src, a.Dst, nil, a.Class)
		submitEnd[i] = time.Now()
		ids[i] = m.ID
	}
	lastSubmit := submitEnd[len(arrivals)-1]
	drain := w.Drain
	if drain == 0 {
		drain = drainTimeout
	}
	deadline := time.NewTimer(time.Until(start.Add(arrivals[len(arrivals)-1].At + drain)))
	select {
	case <-drained:
	case <-deadline.C:
	}
	deadline.Stop()
	ruAfter := readUsage()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&msAfter)
	runtime.GC()
	var msLive runtime.MemStats
	runtime.ReadMemStats(&msLive)

	sys.Stop()
	after := rawCounters(sys, fabric)
	checkStart := time.Now()
	var violations []string
	for _, v := range sys.Check() {
		violations = append(violations, v.Error())
	}
	verify := time.Since(checkStart)
	if req.Traced {
		for _, err := range sys.JournalDiff() {
			violations = append(violations, "journal: "+err.Error())
		}
	}
	runtime.GC()
	var msStopped runtime.MemStats
	runtime.ReadMemStats(&msStopped)

	// Join deliveries against intended times.
	index := make(map[msg.ID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	mu.Lock()
	evs := events
	mu.Unlock()
	lat := make([]float64, 0, pairs)
	copies := make([]int, len(arrivals))
	doneAt := make([]time.Time, len(arrivals))
	var lastDelivery time.Time
	for _, ev := range evs {
		i, timed := index[ev.id]
		if !timed {
			continue
		}
		lat = append(lat, ms(ev.at.Sub(start.Add(arrivals[i].At))))
		copies[i]++
		if ev.at.After(doneAt[i]) {
			doneAt[i] = ev.at
		}
		if ev.at.After(lastDelivery) {
			lastDelivery = ev.at
		}
	}
	complete, backlog := 0, len(arrivals)
	for i, a := range arrivals {
		if copies[i] == topo.Group(a.Dst).Count() {
			complete++
			if !doneAt[i].After(lastSubmit) {
				backlog--
			}
		}
	}
	failed := pairs - len(lat)
	if len(violations) > 0 {
		failed = pairs
	}
	sort.Float64s(lat)
	late := make([]float64, len(arrivals))
	submit := make([]float64, len(arrivals))
	for i, a := range arrivals {
		late[i] = ms(submitAt[i].Sub(start.Add(a.At)))
		submit[i] = us(submitEnd[i].Sub(submitAt[i]))
	}
	sort.Float64s(late)
	sort.Float64s(submit)

	mc := float64(len(arrivals))
	d := sub(after, before)
	v := map[string]float64{
		"latency_p50_ms":       quantile(lat, 0.50),
		"goodput_per_s":        ratio(float64(complete), lastDelivery.Sub(start.Add(arrivals[0].At)).Seconds()),
		"cpu_ms_per_multicast": ms(ruAfter.User-ruBefore.User+ruAfter.Sys-ruBefore.Sys) / mc,
		"delivered_share":      1 - float64(failed)/float64(pairs),
		"heap_live_mb":         float64(msLive.HeapAlloc) / (1 << 20),
		"setup_s":              setup.Seconds(),

		"driver.latency_p90_ms": tail(lat, 0.90),
		"driver.latency_p99_ms": tail(lat, 0.99),
		"driver.latency_max_ms": quantile(lat, 1),
		"driver.samples":        float64(len(lat)),
		"driver.late_p99_ms":    tail(late, 0.99),
		"driver.backlog_end":    float64(backlog),
		"driver.failed_share":   float64(failed) / float64(pairs),

		"live.submit_us_p50":      quantile(submit, 0.50),
		"live.wakeups_per_mc":     (d["sched.notify"] + d["sched.timer"]) / mc,
		"live.actions_per_mc":     d["sched.actions"] / mc,
		"live.scans_per_mc":       d["sched.scans"] / mc,
		"live.skipped_scan_share": ratio(d["sched.skipped"], d["sched.scans"]+d["sched.skipped"]),
		"live.timer_wakeup_share": ratio(d["sched.timer"], d["sched.notify"]+d["sched.timer"]),

		"core.fast_share":      ratio(d["core.fast"], d["deliveries"]),
		"core.pair_ops_per_mc": d["core.pair_ops"] / mc,
		"core.contended_share": ratio(d["core.contended"], d["core.pair_ops"]),

		"replog.batches_per_mc":  d["replog.batches"] / mc,
		"replog.ops_per_batch":   ratio(d["replog.batched_ops"], d["replog.batches"]),
		"replog.fwd_ops_per_mc":  d["replog.fwd_ops"] / mc,
		"replog.remote_op_share": ratio(d["replog.remote_ops"], d["replog.batched_ops"]),
		"replog.applies_per_mc":  d["replog.applies"] / mc,

		"paxos.rounds_per_decision":   ratio(d["paxos.rounds"]+d["paxos.fast_rounds"]+d["paxos.window_rounds"], d["paxos.decisions"]),
		"paxos.fast_round_share":      ratio(d["paxos.fast_rounds"]+d["paxos.window_rounds"], d["paxos.rounds"]+d["paxos.fast_rounds"]+d["paxos.window_rounds"]),
		"paxos.round_failure_share":   ratio(d["paxos.round_failures"]+d["paxos.fast_round_failures"]+d["paxos.window_failures"], d["paxos.rounds"]+d["paxos.fast_rounds"]+d["paxos.window_rounds"]),
		"paxos.window_depth_peak":     after["paxos.window_depth_peak"],
		"paxos.probes_per_mc":         d["paxos.probes"] / mc,
		"paxos.lease_lost":            d["paxos.leases_lost"],
		"paxos.resp_stale_share":      ratio(d["paxos.resp_stale"], d["paxos.rounds"]+d["paxos.fast_rounds"]+d["paxos.window_rounds"]),
		"net.packets_per_mc":          d["net.packets"] / mc,
		"net.bytes_per_mc":            d["net.bytes"] / mc,
		"net.overflow_drops":          d["net.overflow_drops"],
		"wire.bytes_out_per_mc":       d["wire.bytes_out"] / mc,
		"wire.frames_per_flush":       ratio(d["wire.flushed_frames"], d["wire.flushes"]),
		"wire.flushes_per_mc":         d["wire.flushes"] / mc,
		"wire.write_drops":            d["wire.write_drops"],
		"wire.queue_drops":            d["wire.queue_drops"],
		"wire.reconnects":             d["wire.reconnects"],
		"storage.appends_per_mc":      d["wal.appends"] / mc,
		"storage.syncs_per_mc":        d["wal.syncs"] / mc,
		"storage.appends_per_sync":    ratio(d["wal.appends"], d["wal.syncs"]),
		"storage.bytes_per_append":    ratio(d["wal.bytes"], d["wal.appends"]),
		"runtime.user_cpu_ms_per_mc":  ms(ruAfter.User-ruBefore.User) / mc,
		"runtime.sys_cpu_ms_per_mc":   ms(ruAfter.Sys-ruBefore.Sys) / mc,
		"runtime.parks_per_mc":        float64(ruAfter.Voluntary-ruBefore.Voluntary) / mc,
		"runtime.preemptions_per_mc":  float64(ruAfter.Preempted-ruBefore.Preempted) / mc,
		"runtime.alloc_kb_per_mc":     float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / 1024 / mc,
		"runtime.mallocs_per_mc":      float64(msAfter.Mallocs-msBefore.Mallocs) / mc,
		"runtime.gc_cycles":           float64(msAfter.NumGC - msBefore.NumGC),
		"runtime.gc_pause_ms":         float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6,
		"runtime.rss_peak_mb":         float64(readUsage().MaxRSSKB) / 1024,
		"runtime.heap_after_stop_mb":  float64(msStopped.HeapAlloc) / (1 << 20),
		"check.verify_ms":             ms(verify),
		"check.violations":            float64(len(violations)),
		"workload.gen_ns_per_arrival": genNs,
	}

	if req.Traced {
		types := tnw.counts()
		for _, pt := range packetTypes {
			v["net.packets_per_mc."+pt.Name] = float64(types[pt.T]-typesBefore[pt.T]) / mc
		}
		spans := tr.all()
		var sendBusy, syncWait time.Duration
		var appendUs []float64
		for _, s := range spans {
			switch s.Name {
			case spanSend:
				sendBusy += s.End - s.Start
			case spanSync:
				syncWait += s.End - s.Start
			case spanAppend:
				appendUs = append(appendUs, us(s.End-s.Start))
			}
		}
		sort.Float64s(appendUs)
		v["net.send_busy_us_per_mc"] = us(sendBusy) / mc
		v["storage.sync_wait_ms_per_mc"] = ms(syncWait) / mc
		v["storage.append_us_p50"] = quantile(appendUs, 0.50)

		// The per-multicast tree goes in front of the decorators' flat
		// spans; both hang off the root at index 0. Arrival i's multicast
		// span sits at 1+2i, its submit span right behind it.
		epoch := tr.epoch
		tree := []span{{Name: spanRep, Start: start.Sub(epoch), End: lastDelivery.Sub(epoch), Parent: -1, Proc: -1, Msg: -1}}
		for i, a := range arrivals {
			end := doneAt[i]
			if end.IsZero() {
				end = lastDelivery
			}
			tree = append(tree,
				span{Name: spanMulticast, Start: start.Add(a.At).Sub(epoch), End: end.Sub(epoch), Parent: 0, Proc: int(a.Src), Msg: int(ids[i])},
				span{Name: spanSubmit, Start: submitAt[i].Sub(epoch), End: submitEnd[i].Sub(epoch), Parent: len(tree), Proc: int(a.Src), Msg: int(ids[i])})
		}
		for _, ev := range evs {
			if i, timed := index[ev.id]; timed {
				tree = append(tree, span{Name: spanDeliver, Start: submitEnd[i].Sub(epoch), End: ev.at.Sub(epoch), Parent: 1 + 2*i, Proc: int(ev.p), Msg: int(ev.id)})
			}
		}
		if err := writeTrace(filepath.Join(req.OutDir, "trace.json"), w.Name, req.Rep, append(tree, spans...)); err != nil {
			return repResult{}, err
		}
	}
	return repResult{
		Digest: digest, Multicasts: len(arrivals), Pairs: pairs, Failed: failed,
		Violations: violations, Values: v,
	}, nil
}

// tail is the q-quantile when the sample supports it and 0 when fewer than
// minBeyond samples lie beyond it: an unsupported percentile is left out
// rather than reported as one outlier's value.
func tail(sorted []float64, q float64) float64 {
	if !supported(len(sorted), q) {
		return 0
	}
	return quantile(sorted, q)
}

// rawCounters flattens the counters of System.Report and of the fabric
// (asked directly: a decorated System.Net hides the reporter interfaces).
func rawCounters(sys *live.System, fabric net.Transport) map[string]float64 {
	rep := sys.Report()
	c := map[string]float64{"deliveries": float64(rep.Deliveries)}
	if s := rep.Sched; s != nil {
		c["sched.notify"] = float64(s.NotifyWakeups)
		c["sched.timer"] = float64(s.TimerWakeups)
		c["sched.scans"] = float64(s.Scans)
		c["sched.skipped"] = float64(s.SkippedScans)
		c["sched.actions"] = float64(s.Actions)
	}
	if cr := rep.Conflict; cr != nil {
		c["core.fast"] = float64(cr.FastDeliveries)
	}
	for _, pc := range rep.Coordination {
		if pc.A != pc.B {
			c["core.pair_ops"] += float64(pc.Ops)
			c["core.contended"] += float64(pc.Contended)
		}
	}
	if r := rep.Replog; r != nil {
		c["replog.applies"] = float64(r.Applies)
		c["replog.batches"] = float64(r.Batches)
		c["replog.batched_ops"] = float64(r.BatchedOps)
		c["replog.fwd_ops"] = float64(r.FwdOps)
		c["replog.remote_ops"] = float64(r.RemoteOps)
	}
	if p := rep.Paxos; p != nil {
		c["paxos.rounds"] = float64(p.Rounds)
		c["paxos.round_failures"] = float64(p.RoundFailures)
		c["paxos.fast_rounds"] = float64(p.FastRounds)
		c["paxos.fast_round_failures"] = float64(p.FastRoundFailures)
		c["paxos.window_rounds"] = float64(p.WindowRounds)
		c["paxos.window_failures"] = float64(p.WindowFailures)
		c["paxos.window_depth_peak"] = float64(p.WindowDepthPeak)
		c["paxos.leases_lost"] = float64(p.LeasesLost)
		c["paxos.decisions"] = float64(p.Decisions)
		c["paxos.probes"] = float64(p.Probes)
		c["paxos.resp_stale"] = float64(p.RespStale)
	}
	if w := rep.WAL; w != nil {
		c["wal.appends"] = float64(w.Appends)
		c["wal.bytes"] = float64(w.Bytes)
		c["wal.syncs"] = float64(w.Syncs)
	}
	if nr, ok := fabric.(obs.NetReporter); ok {
		r := nr.NetReport()
		c["net.packets"] = float64(r.Packets)
		c["net.bytes"] = float64(r.Bytes)
		c["net.overflow_drops"] = float64(r.OverflowDrops)
	}
	if wr, ok := fabric.(obs.WireReporter); ok {
		r := wr.WireReport()
		c["wire.bytes_out"] = float64(r.BytesOut)
		c["wire.flushes"] = float64(r.Flushes)
		c["wire.flushed_frames"] = float64(r.FlushedFrames)
		c["wire.write_drops"] = float64(r.WriteDrops)
		c["wire.queue_drops"] = float64(r.QueueDrops)
		c["wire.reconnects"] = float64(r.Reconnects)
	}
	return c
}

// sub is the per-key difference a − b.
func sub(a, b map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}
