package wire_test

import (
	gonet "net"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/live"
	"repro/internal/net"
	"repro/internal/paxos"
	"repro/internal/wire"
)

// recvPacket waits for one packet on ch with a deadline.
func recvPacket(t *testing.T, ch <-chan net.Packet) net.Packet {
	t.Helper()
	select {
	case pkt, ok := <-ch:
		if !ok {
			t.Fatal("inbox closed before the expected packet arrived")
		}
		return pkt
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a packet")
		panic("unreachable")
	}
}

// TestFabricDeliversAcrossSockets sends a registered body through the
// loopback fabric and checks it arrives intact — serialized, framed,
// carried over a real TCP socket, and decoded on the far side.
func TestFabricDeliversAcrossSockets(t *testing.T) {
	f, err := wire.NewFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := paxos.LearnReq{Inst: paxos.InstanceID{Space: paxos.SpaceTest, Realm: 7, Slot: 99}}
	f.Send(0, 1, wire.TPaxLearn, want)
	pkt := recvPacket(t, f.Inbox(1))
	if pkt.From != 0 || pkt.To != 1 || pkt.Type != wire.TPaxLearn {
		t.Fatalf("bad envelope: %+v", pkt)
	}
	if got := pkt.Body.(paxos.LearnReq); got != want {
		t.Fatalf("body mismatch: got %+v want %+v", got, want)
	}

	rep := f.WireReport()
	if rep.FramesEncoded == 0 || rep.FramesDecoded == 0 || rep.BytesOut == 0 || rep.BytesIn == 0 {
		t.Fatalf("wire counters did not observe the frame: %+v", rep)
	}
	if nr := f.NetReport(); nr.Packets == 0 || nr.Bytes == 0 {
		t.Fatalf("net counters did not observe the frame: %+v", nr)
	}
}

// TestFabricSelfSendLoopsBack checks that same-process traffic works (it
// bypasses the socket) and that broadcast reaches every member.
func TestFabricSelfSendLoopsBack(t *testing.T) {
	f, err := wire.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Broadcast(0, groups.NewProcSet(0, 1), wire.TPaxLearn, paxos.LearnReq{
		Inst: paxos.InstanceID{Realm: 7}})
	for _, p := range []groups.Process{0, 1} {
		pkt := recvPacket(t, f.Inbox(p))
		if pkt.Type != wire.TPaxLearn || pkt.Body.(paxos.LearnReq).Inst.Realm != 7 {
			t.Fatalf("p%d: bad packet %+v", p, pkt)
		}
	}
}

// TestFabricCrashSilences crashes a process and checks fail-stop semantics:
// traffic from and to it is dropped at every endpoint.
func TestFabricCrashSilences(t *testing.T) {
	f, err := wire.NewFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Crash(2)
	if !f.Crashed(2) {
		t.Fatal("crash not recorded")
	}
	f.Send(2, 0, wire.TPaxLearn, paxos.LearnReq{}) // from crashed: dropped
	f.Send(0, 2, wire.TPaxLearn, paxos.LearnReq{}) // to crashed: dropped
	f.Send(0, 1, wire.TPaxLearn, paxos.LearnReq{Inst: paxos.InstanceID{Slot: 5}})
	pkt := recvPacket(t, f.Inbox(1))
	if pkt.Body.(paxos.LearnReq).Inst.Slot != 5 {
		t.Fatalf("live link delivered the wrong packet: %+v", pkt)
	}
	select {
	case pkt := <-f.Inbox(0):
		t.Fatalf("crashed process's traffic leaked: %+v", pkt)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTCPReconnectAfterPeerRestart kills a peer endpoint mid-run and brings
// it back on the same address: the sender's write loop must notice the dead
// connection, back off, redial, and deliver again — counting the reconnect.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	lnA, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	a := wire.NewWithListener(wire.Config{Self: 0, Addrs: addrs}, lnA)
	defer a.Close()
	b := wire.NewWithListener(wire.Config{Self: 1, Addrs: addrs}, lnB)

	a.Send(0, 1, wire.TPaxLearn, paxos.LearnReq{Inst: paxos.InstanceID{Slot: 1}})
	recvPacket(t, b.Inbox(1))

	// Restart the peer on the same address. Frames sent while it is down
	// are dropped (substrates retransmit); the sender must re-establish on
	// its own.
	b.Close()
	lnB2, err := gonet.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatalf("rebind %s: %v", addrs[1], err)
	}
	b2 := wire.NewWithListener(wire.Config{Self: 1, Addrs: addrs}, lnB2)
	defer b2.Close()

	deadline := time.After(10 * time.Second)
	for delivered := false; !delivered; {
		a.Send(0, 1, wire.TPaxLearn, paxos.LearnReq{Inst: paxos.InstanceID{Slot: 2}})
		select {
		case pkt, ok := <-b2.Inbox(1):
			if ok && pkt.Body.(paxos.LearnReq).Inst.Slot == 2 {
				delivered = true
			}
		case <-deadline:
			t.Fatalf("no delivery after peer restart; wire: %+v", a.WireReport())
		case <-time.After(20 * time.Millisecond):
		}
	}
	rep := a.WireReport()
	if rep.Reconnects == 0 {
		t.Fatalf("expected a reconnect to be counted: %+v", rep)
	}
	// Every reconnect is a failed flush, and a failed flush loses frames:
	// those losses must surface in WriteDrops (they used to vanish — only
	// send-side queue overflow was counted).
	if rep.WriteDrops == 0 {
		t.Fatalf("write-loop losses not surfaced in WriteDrops: %+v", rep)
	}
}

// TestTCPCoalescedFlushCounters streams a burst through one peer link and
// checks the write loop accounts its flushes: every delivered frame is part
// of exactly one flush, so FlushedFrames covers the traffic and Flushes
// never exceeds it.
func TestTCPCoalescedFlushCounters(t *testing.T) {
	f, err := wire.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const burst = 200
	for i := 0; i < burst; i++ {
		f.Send(0, 1, wire.TPaxLearn, paxos.LearnReq{Inst: paxos.InstanceID{Slot: int64(i)}})
	}
	for i := 0; i < burst; i++ {
		recvPacket(t, f.Inbox(1))
	}
	// The write loop counts a flush after conn.Write returns, and the reader
	// can hand over the last frames before it gets that far: give it a moment.
	rep := f.WireReport()
	for deadline := time.Now().Add(2 * time.Second); rep.FlushedFrames < burst && time.Now().Before(deadline); rep = f.WireReport() {
		time.Sleep(time.Millisecond)
	}
	if rep.Flushes == 0 || rep.FlushedFrames < burst {
		t.Fatalf("flush counters missed the burst: %+v", rep)
	}
	if rep.Flushes > rep.FlushedFrames {
		t.Fatalf("more flushes than frames: %+v", rep)
	}
}

// TestUnencodableBodyIsACountedDrop sends what no codec can frame — a body
// type that is not a wire body, and a type tag nothing is registered for —
// and checks each is dropped and counted, not a panic, and the link still
// carries the next registered packet.
func TestUnencodableBodyIsACountedDrop(t *testing.T) {
	f, err := wire.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type unregistered struct{ X int }
	f.Send(0, 1, wire.TPaxLearn, unregistered{X: 1})
	f.Send(0, 1, net.MsgType(0xee), paxos.LearnReq{})
	want := paxos.LearnReq{Inst: paxos.InstanceID{Realm: 7}}
	f.Send(0, 1, wire.TPaxLearn, want)
	if pkt := recvPacket(t, f.Inbox(1)); pkt.Body.(paxos.LearnReq) != want {
		t.Fatalf("the packet after the drops = %+v; want %+v", pkt.Body, want)
	}
	if rep := f.WireReport(); rep.EncodeErrors != 2 || rep.FramesEncoded != 1 {
		t.Fatalf("encode_errors/frames_encoded = %d/%d; want 2/1", rep.EncodeErrors, rep.FramesEncoded)
	}
}

// TestRemoteInboxIsNil documents the endpoint contract: only the owned
// process's inbox exists locally.
func TestRemoteInboxIsNil(t *testing.T) {
	f, err := wire.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if ch := f.Inbox(5); ch != nil {
		t.Fatal("out-of-range inbox should be nil")
	}
}

// TestLiveFigure1OverTCP runs the full Algorithm 1 live system — replog,
// paxos, failure detectors — over the loopback TCP fabric on the paper's
// Figure-1 topology: every protocol message crosses a real socket through
// the binary codec, and the complete specification checker validates the
// run. This is the tentpole's single-OS-process acceptance path
// (cmd/amcastd is the same run as three daemons).
func TestLiveFigure1OverTCP(t *testing.T) {
	topo := groups.Figure1()
	pat := failure.NewPattern(topo.NumProcesses())
	f, err := wire.NewFabric(topo.NumProcesses())
	if err != nil {
		t.Fatal(err)
	}
	sys := live.NewSystem(topo, pat, f, live.Config{})
	sys.Start()
	defer sys.Stop()

	sys.Multicast(0, 0, []byte("a"))
	sys.Multicast(1, 1, []byte("b"))
	sys.Multicast(2, 2, []byte("c"))
	sys.Multicast(3, 3, []byte("d"))
	sys.Multicast(1, 0, []byte("e"))
	sys.Multicast(0, 2, []byte("f"))

	if !sys.AwaitDelivery(60 * time.Second) {
		sys.Stop()
		t.Fatalf("run did not reach full delivery; trace: %+v", sys.Sh.Deliveries())
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
	rep := sys.Report()
	if rep.Wire == nil || rep.Wire.FramesDecoded == 0 {
		t.Fatalf("run report missing wire traffic: %+v", rep.Wire)
	}
	t.Logf("wire: %d frames out (%d bytes), %d frames in (%d bytes)",
		rep.Wire.FramesEncoded, rep.Wire.BytesOut, rep.Wire.FramesDecoded, rep.Wire.BytesIn)
}
