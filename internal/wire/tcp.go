package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
)

// TCP is one process's endpoint of a TCP deployment of net.Transport: a
// listener for inbound frames plus one outbound connection per peer, each
// fed by its own write loop so a slow or dead peer never blocks a sender.
//
// Connections are unidirectional: the dialer p→q carries only p's frames,
// and the receiver takes the sender identity from the frame header, not the
// socket. That halves the connection-management states (no duplex pairing,
// no simultaneous-open tie-break) at the cost of two sockets per live pair,
// which loopback and datacenter deployments do not notice.
//
// Loss semantics: a frame may be dropped on a write error, a reconnect, or
// a full per-peer queue. Every substrate in this repository retransmits
// (ABD phases, paxos rounds, replog probes), so a drop costs latency, never
// safety — the fabric promises exactly what the paper's fair-lossy links
// promise, and fail-stop crashes surface the same way they do in-memory:
// the peer stops answering.
type TCP struct {
	self  groups.Process
	addrs []string

	ln     gonet.Listener
	inbox  chan net.Packet
	inMu   sync.Mutex
	inDone bool // inbox closed or crashed-drained; guards the channel send

	closed atomic.Bool
	done   chan struct{}
	dead   []atomic.Bool

	peers []peerQ

	connMu sync.Mutex
	conns  map[gonet.Conn]struct{}

	wg sync.WaitGroup

	counters *obs.NetCounters
	wire     *obs.WireCounters
}

var _ net.Transport = (*TCP)(nil)
var _ obs.NetReporter = (*TCP)(nil)
var _ obs.WireReporter = (*TCP)(nil)

// peerQ is the outbound queue of one peer. Entries are pooled frame
// buffers: the write loop copies each into its flush buffer and returns it
// to the pool.
type peerQ struct {
	ch chan *[]byte
}

// Config describes one process's place in a TCP deployment.
type Config struct {
	// Self is this process.
	Self groups.Process
	// Addrs maps every process ID to its listen address ("host:port"),
	// including Self's own.
	Addrs []string
	// Counters and Wire are optional shared counter sets; Listen allocates
	// fresh ones when nil (the loopback fabric shares one set across all
	// nodes so the run report aggregates the whole fabric).
	Counters *obs.NetCounters
	Wire     *obs.WireCounters
}

const (
	// outQueueDepth bounds per-peer outbound buffering, mirroring the
	// in-memory fabric's inboxDepth; overflow drops are counted.
	outQueueDepth = 1024
	// lenPrefixLen is the socket-level frame length prefix (u32 BE).
	lenPrefixLen = 4
	// dialBackoffMin/Max bound the exponential dial retry.
	dialBackoffMin = 10 * time.Millisecond
	dialBackoffMax = time.Second
	// maxFlushBytes caps one coalesced flush. The write loop drains its
	// queue into a single buffer and makes one Write call per wakeup; the
	// cap bounds both the flush buffer's steady-state size and the blast
	// radius of a write error (a failed flush loses every frame in it).
	maxFlushBytes = 64 << 10
)

// Listen binds cfg.Self's address and starts the endpoint.
func Listen(cfg Config) (*TCP, error) {
	if int(cfg.Self) < 0 || int(cfg.Self) >= len(cfg.Addrs) {
		return nil, fmt.Errorf("wire: self %d out of range of %d addrs", cfg.Self, len(cfg.Addrs))
	}
	ln, err := gonet.Listen("tcp", cfg.Addrs[cfg.Self])
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Addrs[cfg.Self], err)
	}
	return NewWithListener(cfg, ln), nil
}

// NewWithListener starts the endpoint over an already-bound listener (the
// loopback fabric binds all listeners first so every node knows every
// address before any node starts).
func NewWithListener(cfg Config, ln gonet.Listener) *TCP {
	t := &TCP{
		self:     cfg.Self,
		addrs:    append([]string(nil), cfg.Addrs...),
		ln:       ln,
		inbox:    make(chan net.Packet, outQueueDepth),
		done:     make(chan struct{}),
		dead:     make([]atomic.Bool, len(cfg.Addrs)),
		peers:    make([]peerQ, len(cfg.Addrs)),
		conns:    make(map[gonet.Conn]struct{}),
		counters: cfg.Counters,
		wire:     cfg.Wire,
	}
	if t.counters == nil {
		t.counters = obs.NewNetCounters(len(cfg.Addrs))
	}
	if t.wire == nil {
		t.wire = &obs.WireCounters{}
	}
	for p := range t.peers {
		if groups.Process(p) == t.self {
			continue // self-sends bypass the socket entirely
		}
		t.peers[p].ch = make(chan *[]byte, outQueueDepth)
		t.wg.Add(1)
		go t.writeLoop(groups.Process(p))
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Addr returns the listener's bound address (useful with ":0" configs).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// N returns the number of processes in the deployment.
func (t *TCP) N() int { return len(t.addrs) }

// Send frames the body and queues it for the destination's write loop.
// Sends to self bypass serialization and loop back to the inbox directly —
// same-process traffic is an in-memory concern even in a TCP deployment.
func (t *TCP) Send(from, to groups.Process, mt net.MsgType, body any) {
	if t.closed.Load() || t.outOfRange(from) || t.outOfRange(to) ||
		t.dead[from].Load() || t.dead[to].Load() {
		return
	}
	if to == t.self {
		t.counters.Sent(from, to, obs.EstimateSize(body))
		t.deliver(net.Packet{From: from, To: to, Type: mt, Body: body})
		return
	}
	fb := getFrame()
	frame, err := AppendPacket((*fb)[:0], net.Packet{From: from, To: to, Type: mt, Body: body})
	if err != nil {
		// An unencodable body (a type no codec is registered for) is a
		// caller bug, but one packet of it must not take the process down:
		// it is dropped like any lost packet and counted where a run report
		// shows it.
		putFrame(fb)
		obs.Inc(&t.wire.EncodeErrors)
		return
	}
	*fb = frame
	obs.Inc(&t.wire.FramesEncoded)
	obs.Add(&t.wire.BytesOut, int64(lenPrefixLen+len(frame)))
	t.counters.Sent(from, to, lenPrefixLen+len(frame))
	select {
	case t.peers[to].ch <- fb:
	default:
		// Queue overflow: the peer is slow or down and the dial/backoff
		// loop is holding the line. Drop — substrates retransmit.
		putFrame(fb)
		obs.Inc(&t.wire.QueueDrops)
		t.counters.Overflow()
	}
}

// Broadcast sends to every member of the set.
func (t *TCP) Broadcast(from groups.Process, set groups.ProcSet, mt net.MsgType, body any) {
	for _, p := range set.Members() {
		t.Send(from, p, mt, body)
	}
}

// Inbox returns the receive channel of p. Only Self's inbox exists at this
// endpoint — a remote process's inbox lives in its own OS process — so any
// other p returns nil (reading from it blocks forever, which no correct
// caller does: live backends only read the inboxes of processes they own).
func (t *TCP) Inbox(p groups.Process) <-chan net.Packet {
	if p != t.self {
		return nil
	}
	return t.inbox
}

// Crash silences p from this endpoint's point of view: traffic from or to
// p is dropped locally. Crashing Self additionally drains the local inbox,
// matching the in-memory fabric's fail-stop semantics.
func (t *TCP) Crash(p groups.Process) {
	if t.outOfRange(p) {
		return
	}
	t.dead[p].Store(true)
	if p != t.self {
		return
	}
	t.inMu.Lock()
	defer t.inMu.Unlock()
	if t.inDone {
		return
	}
	for {
		select {
		case <-t.inbox:
		default:
			return
		}
	}
}

// Crashed reports whether p was crashed (locally observed).
func (t *TCP) Crashed(p groups.Process) bool {
	return !t.outOfRange(p) && t.dead[p].Load()
}

// Close shuts the endpoint down: the listener stops, write loops exit,
// open connections close, and the inbox closes once every loop has left.
func (t *TCP) Close() {
	if t.closed.Swap(true) {
		return
	}
	close(t.done)
	t.ln.Close()
	t.connMu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.connMu.Unlock()
	t.wg.Wait()
	t.inMu.Lock()
	t.inDone = true
	close(t.inbox)
	t.inMu.Unlock()
}

// NetReport implements obs.NetReporter with real frame sizes.
func (t *TCP) NetReport() *obs.NetReport { return t.counters.Report() }

// WireReport implements obs.WireReporter.
func (t *TCP) WireReport() *obs.WireCounters { return obs.Snapshot(t.wire) }

func (t *TCP) outOfRange(p groups.Process) bool {
	return int(p) < 0 || int(p) >= len(t.addrs)
}

// deliver hands a packet to the local inbox. The mutex+flag pattern (same
// as internal/net's endpoint) orders the channel send against Close.
func (t *TCP) deliver(pkt net.Packet) {
	t.inMu.Lock()
	defer t.inMu.Unlock()
	if t.inDone || t.closed.Load() {
		return
	}
	select {
	case t.inbox <- pkt:
	default:
		t.counters.Overflow()
	}
}

// writeLoop owns the outbound connection to one peer: dial with exponential
// backoff, coalesce every queued frame into one flush buffer per wakeup
// ([u32 len][frame]...), and make a single Write call. On a write error the
// whole flush is lost (substrates retransmit; the loss is counted in
// WriteDrops), the connection closes and the next flush redials. Frames
// queued while the peer is down accumulate until the queue overflows
// (counted in Send as QueueDrops).
func (t *TCP) writeLoop(to groups.Process) {
	defer t.wg.Done()
	var conn gonet.Conn
	defer func() {
		if conn != nil {
			t.dropConn(conn)
		}
	}()
	flush := make([]byte, 0, 4<<10)
	var lenBuf [lenPrefixLen]byte
	for {
		var fb *[]byte
		select {
		case <-t.done:
			return
		case fb = <-t.peers[to].ch:
		}
		// Coalesce: the wakeup frame plus everything already queued, up to
		// the flush cap. Frames left behind wake the loop again immediately.
		flush = flush[:0]
		frames := 0
		for {
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(*fb)))
			flush = append(flush, lenBuf[:]...)
			flush = append(flush, *fb...)
			putFrame(fb)
			frames++
			if len(flush) >= maxFlushBytes {
				break
			}
			select {
			case fb = <-t.peers[to].ch:
				continue
			default:
			}
			break
		}
		if conn == nil {
			if conn = t.dial(to); conn == nil {
				return // endpoint closed while backing off
			}
			// Track the connection so Close can interrupt a blocked Write
			// (a write loop stuck on a stalled peer must not hang Close).
			t.connMu.Lock()
			if t.closed.Load() {
				t.connMu.Unlock()
				conn.Close()
				return
			}
			t.conns[conn] = struct{}{}
			t.connMu.Unlock()
		}
		if _, err := conn.Write(flush); err != nil {
			// Write failed: every frame in the flush is lost (substrates
			// retransmit). Redial lazily — the next flush re-establishes
			// the connection.
			obs.Add(&t.wire.WriteDrops, int64(frames))
			t.dropConn(conn)
			conn = nil
			obs.Inc(&t.wire.Reconnects)
			continue
		}
		obs.Inc(&t.wire.Flushes)
		obs.Add(&t.wire.FlushedFrames, int64(frames))
	}
}

// dropConn closes a connection and forgets it.
func (t *TCP) dropConn(conn gonet.Conn) {
	conn.Close()
	t.connMu.Lock()
	delete(t.conns, conn)
	t.connMu.Unlock()
}

// dial connects to a peer, retrying with exponential backoff until the
// endpoint closes (then it returns nil).
func (t *TCP) dial(to groups.Process) gonet.Conn {
	backoff := dialBackoffMin
	for {
		conn, err := gonet.DialTimeout("tcp", t.addrs[to], dialBackoffMax)
		if err == nil {
			obs.Inc(&t.wire.Dials)
			return conn
		}
		select {
		case <-t.done:
			return nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// acceptLoop admits inbound connections and spawns a read loop per
// connection.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.connMu.Lock()
		if t.closed.Load() {
			t.connMu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.connMu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes length-prefixed frames off one inbound connection. A
// malformed frame body is counted and skipped; a framing-level violation
// (oversized length prefix, truncated read) kills the connection — framing
// corruption means the stream offset can no longer be trusted.
func (t *TCP) readLoop(conn gonet.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.connMu.Lock()
		delete(t.conns, conn)
		t.connMu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var lenBuf [lenPrefixLen]byte
	// buf is reused across frames — safe because every registered decoder
	// copies what it keeps (Dec.Bin and Dec.Str never alias their input).
	var buf []byte
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			// Clean EOF between frames is a peer closing (or crashing —
			// indistinguishable, which is the model); a partial prefix is
			// a short read.
			if !errors.Is(err, io.EOF) && !t.closed.Load() {
				obs.Inc(&t.wire.ShortReads)
			}
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > MaxFrame {
			obs.Inc(&t.wire.ShortReads)
			return
		}
		if int(n) > cap(buf) {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			if !t.closed.Load() {
				obs.Inc(&t.wire.ShortReads)
			}
			return
		}
		obs.Add(&t.wire.BytesIn, int64(lenPrefixLen)+int64(n))
		pkt, err := DecodePacket(buf)
		if err != nil {
			obs.Inc(&t.wire.DecodeErrors)
			continue
		}
		obs.Inc(&t.wire.FramesDecoded)
		if pkt.To != t.self || t.outOfRange(pkt.From) ||
			t.dead[pkt.From].Load() || t.dead[t.self].Load() {
			continue
		}
		t.deliver(pkt)
	}
}
