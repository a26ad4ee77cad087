package wire

import (
	"fmt"
	gonet "net"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
)

// Fabric runs an n-process TCP deployment inside one OS process: n TCP
// endpoints on loopback ports, presented as a single net.Transport. It is
// how loadsim's -transport tcp mode and the transport tests exercise the
// real serialization + socket path without spawning daemons; cmd/amcastd is
// the one-endpoint-per-OS-process deployment of the same TCP type.
//
// All endpoints share one counter set, so NetReport/WireReport aggregate
// the whole fabric — mirroring what the in-memory Network reports for a run.
type Fabric struct {
	nodes    []*TCP
	counters *obs.NetCounters
	wire     *obs.WireCounters
}

var _ net.Transport = (*Fabric)(nil)
var _ obs.NetReporter = (*Fabric)(nil)
var _ obs.WireReporter = (*Fabric)(nil)

// NewFabric builds an n-process loopback fabric. All listeners bind first
// (on kernel-assigned ports), so every endpoint starts knowing every
// address.
func NewFabric(n int) (*Fabric, error) {
	lns := make([]gonet.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range lns[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("wire: fabric listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	f := &Fabric{
		nodes:    make([]*TCP, n),
		counters: obs.NewNetCounters(n),
		wire:     &obs.WireCounters{},
	}
	for i := range f.nodes {
		f.nodes[i] = NewWithListener(Config{
			Self:     groups.Process(i),
			Addrs:    addrs,
			Counters: f.counters,
			Wire:     f.wire,
		}, lns[i])
	}
	return f, nil
}

// N returns the number of processes.
func (f *Fabric) N() int { return len(f.nodes) }

// Send routes through the sender's endpoint, so the frame really crosses a
// socket to the destination's endpoint.
func (f *Fabric) Send(from, to groups.Process, mt net.MsgType, body any) {
	if int(from) < 0 || int(from) >= len(f.nodes) {
		return
	}
	f.nodes[from].Send(from, to, mt, body)
}

// Broadcast sends to every member of the set.
func (f *Fabric) Broadcast(from groups.Process, set groups.ProcSet, mt net.MsgType, body any) {
	for _, p := range set.Members() {
		f.Send(from, p, mt, body)
	}
}

// Inbox returns the receive channel of p's endpoint.
func (f *Fabric) Inbox(p groups.Process) <-chan net.Packet {
	if int(p) < 0 || int(p) >= len(f.nodes) {
		return nil
	}
	return f.nodes[p].Inbox(p)
}

// Crash silences p at every endpoint (fail-stop: nobody talks to or hears
// from p again).
func (f *Fabric) Crash(p groups.Process) {
	for _, n := range f.nodes {
		n.Crash(p)
	}
}

// Crashed reports whether p was crashed.
func (f *Fabric) Crashed(p groups.Process) bool {
	if int(p) < 0 || int(p) >= len(f.nodes) {
		return false
	}
	return f.nodes[p].Crashed(p)
}

// Close shuts every endpoint down.
func (f *Fabric) Close() {
	for _, n := range f.nodes {
		n.Close()
	}
}

// NetReport implements obs.NetReporter over the shared counters.
func (f *Fabric) NetReport() *obs.NetReport { return f.counters.Report() }

// WireReport implements obs.WireReporter over the shared counters.
func (f *Fabric) WireReport() *obs.WireCounters { return obs.Snapshot(f.wire) }
