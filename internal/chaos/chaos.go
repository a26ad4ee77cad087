// Package chaos is the fault-injection (nemesis) layer for the live
// substrate: a net.Transport that wraps any other transport — in practice
// the reliable FIFO fabric of internal/net — and injects seeded,
// reproducible network faults between the protocols and the wire:
//
//   - per-link probabilistic drop,
//   - bounded random delay (per-link FIFO preserved by default),
//   - duplication,
//   - optional FIFO-breaking reorder,
//   - two-sided partitions with heal,
//   - recoverable process isolation ("down"/"up" — the network-level
//     crash/recover the fail-stop fabric underneath cannot express).
//
// Every per-packet decision (drop? duplicate? how much delay?) is a pure
// function of (seed, from, to, k) where k is the packet's sequence number
// on its directed link. Given a seed, each link therefore sees a fixed,
// replayable fault schedule no matter how goroutines interleave globally —
// the same discipline syzkaller-style harnesses use to make fuzzed failures
// reproducible from a one-line seed (see cmd/nemesis).
//
// The quorum substrates (internal/paxos, internal/replog) are written
// against net.Transport, so they run unmodified over either fabric; their
// *_chaos_test.go files assert safety under an active nemesis and liveness
// once it quiesces — exactly the Σ/Ω assumptions of the paper's §4 (quorums
// stay intact, leaders eventually stabilise).
package chaos

import (
	"sync"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
)

// Faults is the probabilistic fault mix applied to every packet on every
// link while set. Zero value = no faults (transparent pass-through).
type Faults struct {
	// Drop is the per-packet drop probability in [0,1].
	Drop float64
	// Dup is the per-packet duplication probability in [0,1].
	Dup float64
	// DelayMin/DelayMax bound a uniform random per-packet delay. DelayMax=0
	// disables delays.
	DelayMin, DelayMax time.Duration
	// Reorder allows delayed packets to overtake each other on a link
	// (FIFO-breaking). Without it, delays preserve per-link FIFO order.
	Reorder bool
}

// Stats counts what the nemesis did, by cause. It is the run report's chaos
// section: declared once, in obs.
type Stats = obs.ChaosCounters

// link is a directed process pair.
type link struct{ from, to groups.Process }

// partition is a two-sided cut: traffic between a and b is severed.
type partition struct{ a, b groups.ProcSet }

// Chaos wraps an inner transport and injects faults. It implements
// net.Transport, so every substrate accepts it where it accepts the
// reliable network.
type Chaos struct {
	// stats is first so its 64-bit counters are aligned for atomics on
	// every platform.
	stats Stats

	inner net.Transport
	seed  int64

	mu     sync.Mutex
	faults Faults
	seq    map[link]uint64
	parts  []partition
	down   map[groups.Process]bool
	pipes  map[link]*pipe
	closed bool

	// Power-cycle hooks (see OnPowerCycle): what the harness does when a
	// process is kill -9'd and when it reboots.
	onPowerOff func(groups.Process)
	onPowerOn  func(groups.Process)

	done chan struct{}
	wg   sync.WaitGroup
}

var _ net.Transport = (*Chaos)(nil)

// delayed is a packet scheduled for later delivery on a FIFO pipe.
type delayed struct {
	pkt net.Packet
	at  time.Time
}

// pipeDepth bounds a link's delay queue; overflow drops are counted.
const pipeDepth = 4096

// pipe is one link's delay queue, under Chaos.mu: a FIFO that grows with
// what it holds, up to pipeDepth, so a link that carried a few delayed
// packets holds a few entries. One goroutine drains it in order (runPipe);
// wake tells that goroutine the queue is no longer empty.
type pipe struct {
	q    []delayed
	wake chan struct{}
}

// Wrap builds the nemesis transport over inner. All fault decisions derive
// from seed.
func Wrap(inner net.Transport, seed int64) *Chaos {
	return &Chaos{
		inner: inner,
		seed:  seed,
		seq:   make(map[link]uint64),
		down:  make(map[groups.Process]bool),
		pipes: make(map[link]*pipe),
		done:  make(chan struct{}),
	}
}

// SetFaults swaps the active fault mix.
func (c *Chaos) SetFaults(f Faults) {
	c.mu.Lock()
	c.faults = f
	c.mu.Unlock()
}

// Partition severs all traffic between the two sides (both directions).
// Partitions accumulate until Heal.
func (c *Chaos) Partition(a, b groups.ProcSet) {
	c.mu.Lock()
	c.parts = append(c.parts, partition{a, b})
	c.mu.Unlock()
}

// Isolate cuts p from every other process.
func (c *Chaos) Isolate(p groups.Process) {
	var rest groups.ProcSet
	for q := 0; q < c.inner.N(); q++ {
		if groups.Process(q) != p {
			rest = rest.Add(groups.Process(q))
		}
	}
	c.Partition(groups.NewProcSet(p), rest)
}

// Heal removes every partition.
func (c *Chaos) Heal() {
	c.mu.Lock()
	c.parts = nil
	c.mu.Unlock()
}

// Down makes p unreachable (all its traffic dropped) until Up — a
// recoverable network-level crash, unlike the permanent fail-stop Crash.
func (c *Chaos) Down(p groups.Process) {
	c.mu.Lock()
	c.down[p] = true
	c.mu.Unlock()
}

// Up recovers p.
func (c *Chaos) Up(p groups.Process) {
	c.mu.Lock()
	delete(c.down, p)
	c.mu.Unlock()
}

// Quiesce clears every injected fault: probabilities to zero, partitions
// healed, down processes recovered. Delayed packets still in flight drain
// within the old DelayMax. After Quiesce the fabric behaves reliably again,
// which is when the substrates' liveness obligations resume.
func (c *Chaos) Quiesce() {
	c.mu.Lock()
	c.faults = Faults{}
	c.parts = nil
	c.down = make(map[groups.Process]bool)
	c.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (c *Chaos) Stats() Stats { return *c.InjectionReport() }

// InjectionReport returns the fault counters in run-report form. It
// implements obs.ChaosReporter.
func (c *Chaos) InjectionReport() *Stats { return obs.Snapshot(&c.stats) }

// NetReport exposes the inner transport's traffic counters when it has any,
// so wrapping a network in a nemesis does not hide its accounting.
func (c *Chaos) NetReport() *obs.NetReport {
	if nr, ok := c.inner.(obs.NetReporter); ok {
		return nr.NetReport()
	}
	return nil
}

// WireReport does the same for the socket-level counters of a real
// transport (nil over the in-memory fabric, which has none).
func (c *Chaos) WireReport() *obs.WireCounters {
	if wr, ok := c.inner.(obs.WireReporter); ok {
		return wr.WireReport()
	}
	return nil
}

// separated reports whether an active partition cuts the link (caller holds
// c.mu).
func (c *Chaos) separated(from, to groups.Process) bool {
	for _, pt := range c.parts {
		if (pt.a.Has(from) && pt.b.Has(to)) || (pt.a.Has(to) && pt.b.Has(from)) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// net.Transport

// N returns the number of processes.
func (c *Chaos) N() int { return c.inner.N() }

// Inbox returns the receive channel of p (the inner transport's).
func (c *Chaos) Inbox(p groups.Process) <-chan net.Packet { return c.inner.Inbox(p) }

// Crash silences p permanently on the inner transport.
func (c *Chaos) Crash(p groups.Process) { c.inner.Crash(p) }

// Restart revives p's endpoint when the inner transport can (net.Restarter);
// fabrics that model reconnection themselves make this a no-op. The nemesis
// keeps the Restarter capability visible through the wrapper, so harnesses
// written against net.Transport can power-cycle over chaos and reliable
// fabrics alike.
func (c *Chaos) Restart(p groups.Process) {
	if r, ok := c.inner.(net.Restarter); ok {
		r.Restart(p)
	}
}

var _ net.Restarter = (*Chaos)(nil)

// OnPowerCycle registers the recovery hooks the power-cycle events drive:
// off runs after p's endpoint is crashed (the harness drops p's unsynced WAL
// tail there — what kill -9 loses), on runs after the endpoint is restarted
// (the harness rebuilds p's node from its durable log there). Install before
// the nemesis starts; nil hooks are skipped.
func (c *Chaos) OnPowerCycle(off, on func(groups.Process)) {
	c.mu.Lock()
	c.onPowerOff, c.onPowerOn = off, on
	c.mu.Unlock()
}

// PowerOff kill -9s p: the endpoint crashes (peers see silence, exactly as
// for a fail-stop crash) and the power-off hook loses whatever the process
// had not made durable.
func (c *Chaos) PowerOff(p groups.Process) {
	c.mu.Lock()
	off := c.onPowerOff
	c.mu.Unlock()
	c.inner.Crash(p)
	if off != nil {
		off(p)
	}
}

// PowerOn reboots p: the endpoint restarts and the recovery hook rebuilds
// the process from its durable state.
func (c *Chaos) PowerOn(p groups.Process) {
	c.mu.Lock()
	on := c.onPowerOn
	c.mu.Unlock()
	c.Restart(p)
	if on != nil {
		on(p)
	}
}

// Crashed reports whether p was crashed.
func (c *Chaos) Crashed(p groups.Process) bool { return c.inner.Crashed(p) }

// Broadcast sends to every member of the set; each unicast draws its own
// fault decisions.
func (c *Chaos) Broadcast(from groups.Process, set groups.ProcSet, t net.MsgType, body any) {
	for _, p := range set.Members() {
		c.Send(from, p, t, body)
	}
}

// Send applies the active faults to one packet and forwards the survivors.
func (c *Chaos) Send(from, to groups.Process, t net.MsgType, body any) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if c.down[from] || c.down[to] {
		c.mu.Unlock()
		obs.Inc(&c.stats.DroppedDown)
		return
	}
	if c.separated(from, to) {
		c.mu.Unlock()
		obs.Inc(&c.stats.DroppedPartition)
		return
	}
	f := c.faults
	l := link{from, to}
	k := c.seq[l]
	c.seq[l] = k + 1
	c.mu.Unlock()

	r := newLinkRand(c.seed, from, to, k)
	if f.Drop > 0 && r.float() < f.Drop {
		obs.Inc(&c.stats.DroppedRandom)
		return
	}
	copies := 1
	if f.Dup > 0 && r.float() < f.Dup {
		copies = 2
		obs.Inc(&c.stats.Duplicated)
	}
	var delay time.Duration
	if f.DelayMax > 0 {
		span := f.DelayMax - f.DelayMin
		if span < 0 {
			span = 0
		}
		delay = f.DelayMin + time.Duration(r.float()*float64(span))
	}
	pkt := net.Packet{From: from, To: to, Type: t, Body: body}
	for i := 0; i < copies; i++ {
		c.deliver(l, pkt, delay, f.Reorder)
	}
}

// deliver routes one copy: directly, via a detached goroutine (reorder), or
// via the link's FIFO pipe (ordered delay). A goroutine is counted in wg
// under the lock that checks closed, so Close, which sets closed under that
// lock before it waits, never waits on a group that is still growing.
func (c *Chaos) deliver(l link, pkt net.Packet, delay time.Duration, reorder bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if delay > 0 && reorder {
		c.wg.Add(1)
		c.mu.Unlock()
		obs.Inc(&c.stats.Delayed)
		go func() {
			defer c.wg.Done()
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-c.done:
				return
			}
			c.forward(pkt)
		}()
		return
	}
	q, piped := c.pipes[l]
	if !piped && delay > 0 {
		// First delayed packet on this link: open its FIFO pipe. Once a
		// pipe exists, every later packet of the link goes through it, so
		// fresh zero-delay packets cannot overtake still-queued ones.
		q = &pipe{wake: make(chan struct{}, 1)}
		c.pipes[l] = q
		piped = true
		c.wg.Add(1)
		go c.runPipe(q)
	}
	if !piped {
		c.mu.Unlock()
		c.forward(pkt)
		return
	}
	full := len(q.q) == pipeDepth
	if !full {
		q.q = append(q.q, delayed{pkt: pkt, at: time.Now().Add(delay)})
	}
	c.mu.Unlock()
	if delay > 0 {
		obs.Inc(&c.stats.Delayed)
	}
	if full {
		obs.Inc(&c.stats.DroppedOverflow)
		return
	}
	select {
	case q.wake <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// runPipe drains one link's delay queue in order, sleeping each packet to
// its delivery time — per-link FIFO is preserved because the sleeps happen
// sequentially.
func (c *Chaos) runPipe(p *pipe) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		if len(p.q) == 0 {
			c.mu.Unlock()
			select {
			case <-p.wake:
				continue
			case <-c.done:
				return
			}
		}
		d := p.q[0]
		p.q[0] = delayed{} // the packet is this loop's now
		p.q = p.q[1:]
		c.mu.Unlock()
		if wait := time.Until(d.at); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-c.done:
				t.Stop()
				return
			}
		}
		c.forward(d.pkt)
	}
}

// forward hands a surviving packet to the inner transport.
func (c *Chaos) forward(pkt net.Packet) {
	obs.Inc(&c.stats.Forwarded)
	c.inner.Send(pkt.From, pkt.To, pkt.Type, pkt.Body)
}

// Close stops the delay machinery, waits for it to drain, and closes the
// inner transport.
func (c *Chaos) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
	c.inner.Close()
}

// ---------------------------------------------------------------------------
// Seeded per-link randomness

// linkRand is a splitmix64 stream keyed by (seed, from, to, k): the k-th
// packet of a directed link always draws the same decisions for a given
// seed, independent of goroutine interleaving.
type linkRand struct{ state uint64 }

func newLinkRand(seed int64, from, to groups.Process, k uint64) *linkRand {
	s := uint64(seed)
	s ^= (uint64(from) + 1) * 0x9E3779B97F4A7C15
	s ^= (uint64(to) + 1) * 0xBF58476D1CE4E5B9
	s ^= (k + 1) * 0x94D049BB133111EB
	return &linkRand{state: s}
}

// next is splitmix64.
func (r *linkRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *linkRand) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
