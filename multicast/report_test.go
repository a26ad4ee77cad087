package multicast

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// chainTopo is the Figure-1-shaped pair of overlapping groups used across
// these tests: g1 = {0,1}, g2 = {1,2}, intersection {1}.
func chainTopo() *Topology {
	return NewTopology(3).
		Group("g1", 0, 1).
		Group("g2", 1, 2)
}

func TestReportSim(t *testing.T) {
	sys, err := New(chainTopo(), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Multicast(0, "g1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Multicast(2, "g2", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep, err := sys.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if rep.Backend != "sim" {
		t.Errorf("Backend = %q, want sim", rep.Backend)
	}
	if rep.Multicasts != 2 || rep.Deliveries != 4 {
		t.Errorf("Multicasts/Deliveries = %d/%d, want 2/4", rep.Multicasts, rep.Deliveries)
	}
	if rep.TickLatency.Count != 4 || rep.TickLatency.P50 <= 0 {
		t.Errorf("TickLatency = %+v, want 4 positive samples", rep.TickLatency)
	}
	if rep.WallLatency != nil {
		t.Errorf("sim run has a wall latency summary: %+v", rep.WallLatency)
	}
	if len(rep.Events) == 0 {
		t.Error("no events recorded at the default observe level")
	}
	if !rep.StepsAccounted {
		t.Fatal("sim run did not account steps")
	}
	if n, err := rep.StepsOf(0); err != nil || n <= 0 {
		t.Errorf("StepsOf(0) = %d, %v; want positive count", n, err)
	}
	// No AccountCosts: the synthetic message count must refuse, not be zero.
	if _, err := rep.SentMessages(); !errors.Is(err, obs.ErrNotAccounted) {
		t.Errorf("SentMessages without AccountCosts = %v, want ErrNotAccounted", err)
	}
}

func TestReportSimAccountedMessages(t *testing.T) {
	sys, err := New(chainTopo(), Config{Seed: 3, AccountCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Multicast(0, "g1", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep, err := sys.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if n, err := rep.SentMessages(); err != nil || n <= 0 {
		t.Errorf("SentMessages = %d, %v; want positive count", n, err)
	}
}

func TestReportLive(t *testing.T) {
	sys, err := New(chainTopo(), Config{Backend: Live})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Multicast(0, "g1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep, err := sys.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if rep.Backend != "live" {
		t.Errorf("Backend = %q, want live", rep.Backend)
	}
	if rep.WallLatency == nil || rep.WallLatency.Count != 2 {
		t.Errorf("WallLatency = %+v, want 2 samples", rep.WallLatency)
	}
	if rep.Net == nil || rep.Net.Packets == 0 {
		t.Errorf("Net = %+v, want transport traffic", rep.Net)
	}
	if ppd, ok := rep.PacketsPerDelivery(); !ok || ppd <= 0 {
		t.Errorf("PacketsPerDelivery = %v, %v; want positive", ppd, ok)
	}
	if rep.Paxos == nil || rep.Paxos.Decisions == 0 {
		t.Errorf("Paxos = %+v, want consensus work", rep.Paxos)
	}
	// The live substrate keeps no step ledger: StepsOf must refuse.
	if _, err := rep.StepsOf(0); !errors.Is(err, obs.ErrNotAccounted) {
		t.Errorf("StepsOf on live = %v, want ErrNotAccounted", err)
	}
}

// TestReportClockStopsWithTheRun: Run stops a Live system, and its clock
// stops with it — a report taken later reads the ticks and the wall span the
// run had at Stop, not the time the caller took to ask.
func TestReportClockStopsWithTheRun(t *testing.T) {
	sys, err := New(chainTopo(), Config{Backend: Live})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Multicast(0, "g1", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	first, err := sys.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	second, err := sys.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if second.Ticks != first.Ticks || second.Wall != first.Wall {
		t.Errorf("the stopped run's clock moved: ticks %d → %d, wall %v → %v",
			first.Ticks, second.Ticks, first.Wall, second.Wall)
	}
	if first.Wall <= 0 {
		t.Errorf("wall = %v, want the run's positive span", first.Wall)
	}
}

func TestReportObserveOff(t *testing.T) {
	sys, err := New(chainTopo(), Config{Seed: 1, Observe: obs.LevelOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Multicast(0, "g1", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := sys.Report(); !errors.Is(err, obs.ErrNotAccounted) {
		t.Errorf("Report with LevelOff = %v, want ErrNotAccounted", err)
	}
	// The run itself still happened: both g1 members delivered.
	if got := len(sys.Delivered(0)) + len(sys.Delivered(1)); got != 2 {
		t.Errorf("deliveries at g1 members = %d, want 2", got)
	}
}

func TestRunContextDeadlineLive(t *testing.T) {
	// Crashing 1 and 2 at tick 0 leaves p0 — a correct g1 member that must
	// deliver — without a quorum for any pair log, so the run can never
	// complete and the deadline must cut it short, however fast the
	// substrate gets. (A bare short deadline raced the batched hot path.)
	sys, err := New(chainTopo(), Config{Backend: Live, Crashes: map[int]int64{1: 0, 2: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Multicast(0, "g1", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	runErr := sys.RunContext(ctx)
	if !errors.Is(runErr, ErrRunTimeout) {
		t.Errorf("RunContext = %v, want ErrRunTimeout", runErr)
	}
	if !errors.Is(runErr, context.DeadlineExceeded) {
		t.Errorf("RunContext = %v, want context.DeadlineExceeded in the chain", runErr)
	}
	// The substrate is stopped and frozen: reads and reports still work.
	if _, err := sys.Report(); err != nil {
		t.Errorf("Report after cancelled run: %v", err)
	}
	_ = sys.Delivered(0)
}

func TestRunContextCancelMidLiveRun(t *testing.T) {
	sys, err := New(chainTopo(), Config{Backend: Live})
	if err != nil {
		t.Fatal(err)
	}
	// Enough in-flight work that cancellation lands mid-run.
	for i := 0; i < 8; i++ {
		if _, err := sys.Multicast(1, "g2", nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	runErr := sys.RunContext(ctx)
	if runErr != nil {
		// Cancellation raced full delivery; either outcome is legal, but an
		// error must carry the sentinels.
		if !errors.Is(runErr, ErrRunTimeout) || !errors.Is(runErr, context.Canceled) {
			t.Errorf("RunContext = %v, want ErrRunTimeout and context.Canceled", runErr)
		}
	}
	// Stop must have torn the run down exactly once; a second Run is a no-op
	// against the frozen substrate and must not hang or panic.
	if _, err := sys.Report(); err != nil {
		t.Errorf("Report after cancel: %v", err)
	}
}

func TestRunContextCancelledSim(t *testing.T) {
	sys, err := New(chainTopo(), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Multicast(0, "g1", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the engine must stop at its first poll
	runErr := sys.RunContext(ctx)
	if !errors.Is(runErr, ErrRunTimeout) || !errors.Is(runErr, context.Canceled) {
		t.Errorf("RunContext = %v, want ErrRunTimeout and context.Canceled", runErr)
	}
}
