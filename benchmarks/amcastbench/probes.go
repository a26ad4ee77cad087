package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/paxos"
	"repro/internal/replog"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Direct probes: single layers measured through their public functions,
// outside any live run. Times are medians of repeated batches; the sim
// counts are exact and must repeat bit for bit.

// simTicksPerSecond maps intended wall time onto the sim's virtual clock
// (one tick per scheduling attempt): 250 arrivals/s land 400 attempts apart.
const simTicksPerSecond = 100_000

// simResult is one run of a stream on the deterministic sim backend.
type simResult struct {
	Steps, Msgs int64
	Deliveries  int
	Elapsed     time.Duration
}

// simRun drives the first n arrivals of a stream through Algorithm 1 on
// the sim backend under the §4.3 cost model (ChargeObjects).
func simRun(sc workload.Scenario, arrivals []workload.Arrival, n int, seed int64) (simResult, error) {
	topo, err := sc.Topo.Build()
	if err != nil {
		return simResult{}, err
	}
	if n > len(arrivals) {
		n = len(arrivals)
	}
	pat := failure.NewPattern(topo.NumProcesses())
	opt := core.Options{ChargeObjects: true}
	if sc.ConflictRate < 1 {
		opt.Variant = core.Generic
		opt.Conflict = msg.ClassesConflict
	}
	sys := core.NewSystemWithConfig(topo, pat, opt, engine.Config{
		Seed: seed, Policy: engine.RandomOrder, MaxSteps: 1 << 40,
	})
	for _, a := range arrivals[:n] {
		t := failure.Time(a.At.Seconds() * simTicksPerSecond)
		sys.MulticastClassedAt(t, a.Src, a.Dst, nil, a.Class)
	}
	start := time.Now()
	if !sys.Run() {
		return simResult{}, fmt.Errorf("sim probe: no quiescence on %d arrivals", n)
	}
	elapsed := time.Since(start)
	want := 0
	for _, a := range arrivals[:n] {
		want += topo.Group(a.Dst).Count()
	}
	got := len(sys.Sh.Deliveries())
	if got != want {
		return simResult{}, fmt.Errorf("sim probe: %d deliveries, want %d", got, want)
	}
	return simResult{Steps: sys.Eng.TotalSteps(), Msgs: sys.Eng.Messages(), Deliveries: got, Elapsed: elapsed}, nil
}

// simProbes reports the protocol's cost in the paper's own units on the
// steady-mem stream, and how the sim's wall time per multicast grows with
// history (1.0 = total time linear in the stream length).
func simProbes(seed int64, scale float64) (map[string]float64, error) {
	w := workloads[0]
	short, long := int(500*scale), int(2000*scale)
	sc := w.scenario(float64(long) / w.Rate)
	arrivals, _, _, err := w.arrivals(sc, seed)
	if err != nil {
		return nil, err
	}
	exact, err := simRun(sc, arrivals, int(1000*scale), seed)
	if err != nil {
		return nil, err
	}
	a, err := simRun(sc, arrivals, short, seed)
	if err != nil {
		return nil, err
	}
	b, err := simRun(sc, arrivals, long, seed)
	if err != nil {
		return nil, err
	}
	perA, perB := ms(a.Elapsed)/float64(short), ms(b.Elapsed)/float64(long)
	return map[string]float64{
		"core.sim_steps_per_delivery": float64(exact.Steps) / float64(exact.Deliveries),
		"core.sim_msgs_per_delivery":  float64(exact.Msgs) / float64(exact.Deliveries),
		"core.sim_ms_per_mc_500":      perA,
		"core.sim_ms_per_mc_2000":     perB,
		"core.sim_history_scaling":    ratio(perB, perA),
	}, nil
}

// perOp runs prepare (untimed, may be nil) and then fn(n) — n operations —
// five times, and returns the median cost of one operation in nanoseconds.
func perOp(n int, prepare func(), fn func(n int)) float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		fn(n)
		runs = append(runs, float64(time.Since(start))/float64(n))
	}
	return median(runs)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

func logobjProbes() map[string]float64 {
	filled := func(size int) *logobj.Log {
		l := logobj.New("probe")
		for i := 1; i <= size; i++ {
			l.Append(logobj.MsgDatum(msg.ID(i)))
		}
		return l
	}
	before := func(size int) float64 {
		l, last := filled(size), logobj.MsgDatum(msg.ID(size))
		return perOp(20, nil, func(n int) {
			for i := 0; i < n; i++ {
				sink = l.MessagesBefore(last)
			}
		}) / 1e3
	}
	b1, b4 := before(1000), before(4000)
	const n = 20000
	var l *logobj.Log
	appendNs := perOp(n, nil, func(n int) { l = filled(n) })
	bumpNs := perOp(n, func() { l = filled(n) }, func(n int) {
		for i := 1; i <= n; i++ {
			l.BumpAndLock(logobj.MsgDatum(msg.ID(i)), i+1)
		}
	})
	return map[string]float64{
		"logobj.messages_before_us_1k":   b1,
		"logobj.messages_before_us_4k":   b4,
		"logobj.messages_before_scaling": ratio(b4/4000, b1/1000),
		"logobj.append_ns":               appendNs,
		"logobj.bump_and_lock_ns":        bumpNs,
	}
}

// replogProbes times the batch codec on a one-op batch, the size the
// batcher fires today (replog.ops_per_batch ≈ 1).
func replogProbes() (map[string]float64, error) {
	// Op's kind is unexported: build the encoded batch by hand from the
	// public codec pieces and decode it to obtain the ops.
	var e wire.Enc
	e.U64(1)
	e.I64(1) // append
	logobj.EncodeDatum(&e, logobj.MsgDatum(12345))
	e.I64(0)
	e.U64(0)
	val := paxos.Value(e.Bytes())
	ops, err := replog.DecodeBatch(val)
	if err != nil {
		return nil, fmt.Errorf("replog probe: %w", err)
	}
	const n = 100000
	enc := perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			sink = replog.EncodeBatch(ops)
		}
	})
	dec := perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = replog.DecodeBatch(val)
		}
	})
	return map[string]float64{"replog.encode_batch_ns": enc, "replog.decode_batch_ns": dec}, nil
}

// paxosProbe times a leased Multi-Paxos Propose on three in-memory nodes:
// one accept round and its decide.
func paxosProbe() (map[string]float64, error) {
	const n, slots = 3, 1000
	nw := net.New(n)
	defer nw.Close()
	nodes := make([]*paxos.Node, n)
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		nodes[p] = paxos.StartNode(nw, groups.Process(p))
		scope = scope.Add(groups.Process(p))
	}
	leader := func(groups.Process) groups.Process { return 0 }
	durs := make([]float64, 0, slots)
	for i := 0; i < slots+100; i++ {
		inst := &paxos.Instance{
			ID:    paxos.InstanceID{Space: paxos.SpaceTest, Realm: 1, Slot: int64(i)},
			Scope: scope, Net: nw, Leader: leader, MultiPaxos: true,
		}
		start := time.Now()
		if _, ok := nodes[0].Propose(inst, paxos.I64Value(int64(i))); !ok {
			return nil, fmt.Errorf("paxos probe: slot %d did not decide", i)
		}
		if i >= 100 { // the first slots acquire the lease
			durs = append(durs, us(time.Since(start)))
		}
	}
	return map[string]float64{"paxos.accept_round_us": median(durs)}, nil
}

func wireProbes() (map[string]float64, error) {
	pkt := net.Packet{
		From: 0, To: 1, Type: wire.TPaxAccept,
		Body: paxos.AcceptReq{
			Inst:   paxos.InstanceID{Space: 1, Realm: 1 << 33, Slot: 42},
			Ballot: 7, Val: paxos.I64Value(123456),
		},
	}
	frame, err := wire.EncodePacket(pkt)
	if err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	const n = 100000
	buf := make([]byte, 0, 256)
	enc := perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = wire.AppendPacket(buf[:0], pkt)
		}
	})
	dec := perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = wire.DecodePacket(frame)
		}
	})
	return map[string]float64{"wire.append_packet_ns": enc, "wire.decode_packet_ns": dec}, nil
}

// fileSyncProbe times Append+Sync on the file-backed WAL under dir: the
// sandbox disk's real fsync. Reported, never compared — it swings 3x
// between identical runs.
func fileSyncProbe(dir string) (map[string]float64, error) {
	dir = filepath.Join(dir, "wal-probe")
	defer os.RemoveAll(dir)
	wal, err := storage.OpenFile(dir, storage.FileOptions{})
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	var durs []float64
	for i := 0; i < 15; i++ {
		start := time.Now()
		if err := wal.Append(storage.Record{Kind: 1, Data: make([]byte, 64)}); err != nil {
			return nil, err
		}
		if err := wal.Sync(); err != nil {
			return nil, err
		}
		durs = append(durs, ms(time.Since(start)))
	}
	return map[string]float64{"storage.file_sync_ms_p50": median(durs)}, nil
}

// runProbes runs every direct probe and merges their metrics. scale
// shortens the sim streams (tests run them at 1/20).
func runProbes(seed int64, outDir string, scale float64) (map[string]float64, error) {
	out := logobjProbes()
	for _, probe := range []func() (map[string]float64, error){
		func() (map[string]float64, error) { return simProbes(seed, scale) },
		replogProbes, paxosProbe, wireProbes,
		func() (map[string]float64, error) { return fileSyncProbe(outDir) },
	} {
		m, err := probe()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}
