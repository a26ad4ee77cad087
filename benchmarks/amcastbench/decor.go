package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The benchmark traces the stack from outside: spans are recorded by these
// decorators around the calls into a layer, never inside the program.

// Span names. A span's layer is the prefix before the dot.
const (
	spanRep       = "driver.rep"
	spanMulticast = "driver.multicast"
	spanSubmit    = "live.submit"
	spanDeliver   = "core.deliver"
	spanSend      = "net.send"
	spanAppend    = "storage.append"
	spanSync      = "storage.sync"
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the repetition's epoch. Msg is -1 where the boundary does
// not expose a message (transport and WAL calls carry a process only).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int // index of the causing span, -1 for the root
	Proc       int
	Msg        int
}

// tracer keeps spans in memory, one shard per process so that concurrent
// decorators do not serialise the stack they observe on one lock.
type tracer struct {
	epoch  time.Time
	shards []traceShard
}

type traceShard struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(procs int, epoch time.Time) *tracer {
	return &tracer{epoch: epoch, shards: make([]traceShard, procs)}
}

// add records a finished span against process p's shard.
func (t *tracer) add(p int, s span) {
	sh := &t.shards[p%len(t.shards)]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// timed records [start, now) as a span of process p with no message and
// the root as its cause.
func (t *tracer) timed(name string, p int, start time.Time) {
	t.add(p, span{Name: name, Start: start.Sub(t.epoch), End: time.Since(t.epoch), Parent: 0, Proc: p, Msg: -1})
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.spans = nil
		sh.mu.Unlock()
	}
}

// all returns every recorded span, shard by shard.
func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// writeTrace writes the spans of one repetition as JSON, one row per
// span in the order of "columns": the root span first, then the
// per-multicast tree (parents are row indices), then the flat transport and
// WAL spans under the root. Times are microseconds from the epoch.
func writeTrace(path, workload string, rep int, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"rep\":%d,\"columns\":[\"name\",\"start_us\",\"end_us\",\"parent\",\"proc\",\"msg\"],\"spans\":[\n", workload, rep)
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%q,%.1f,%.1f,%d,%d,%d]%s\n", s.Name, us(s.Start), us(s.End), s.Parent, s.Proc, s.Msg, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// packetTypes are the wire message types the transport decorator counts
// one by one, by the names the per-layer metrics carry.
var packetTypes = []struct {
	Name string
	T    net.MsgType
}{
	{"pax_accept", wire.TPaxAccept},
	{"pax_accept_resp", wire.TPaxAcceptResp},
	{"pax_decide", wire.TPaxDecide},
	{"pax_prepare", wire.TPaxPrepare},
	{"pax_learn", wire.TPaxLearn},
	{"replog_op", wire.TReplogOp},
	{"replog_fwd", wire.TReplogFwd},
	{"datum", wire.TDatum},
}

// tracedTransport decorates a net.Transport: it counts sends by message
// type and times each Send call, and passes every call through unchanged.
type tracedTransport struct {
	net.Transport
	tr     *tracer
	byType [256]atomic.Int64
}

func (t *tracedTransport) Send(from, to groups.Process, mt net.MsgType, body any) {
	start := time.Now()
	t.Transport.Send(from, to, mt, body)
	t.tr.timed(spanSend, int(from), start)
	t.byType[mt].Add(1)
}

// Broadcast fans out through Send so that every packet is counted once,
// exactly as the transports below do it.
func (t *tracedTransport) Broadcast(from groups.Process, set groups.ProcSet, mt net.MsgType, body any) {
	for _, p := range set.Members() {
		t.Send(from, p, mt, body)
	}
}

func (t *tracedTransport) counts() (out [256]int64) {
	for i := range t.byType {
		out[i] = t.byType[i].Load()
	}
	return out
}

// tracedWAL decorates a storage.WAL: it times Append and Sync and passes
// records and errors through unchanged.
type tracedWAL struct {
	storage.WAL
	tr   *tracer
	proc int
}

func (w *tracedWAL) Append(rec storage.Record) error {
	start := time.Now()
	err := w.WAL.Append(rec)
	w.tr.timed(spanAppend, w.proc, start)
	return err
}

func (w *tracedWAL) Sync() error {
	start := time.Now()
	err := w.WAL.Sync()
	w.tr.timed(spanSync, w.proc, start)
	return err
}

// slowSyncWAL stands in for a disk: every Sync sleeps a stated delay
// before committing. Real fsync latency on a sandbox disk swings 3x
// between runs; a stated delay makes the barrier count the thing measured.
type slowSyncWAL struct {
	storage.WAL
	delay time.Duration
}

func (w *slowSyncWAL) Sync() error {
	time.Sleep(w.delay)
	return w.WAL.Sync()
}
