package chaos

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
)

// Test message types from the scratch block internal/wire reserves for
// transport tests (0xF0..0xFE).
const (
	tPing net.MsgType = 0xF0 + iota
	tM
	tCross
	tSame
)

// recv drains up to want packets from the inbox within the timeout and
// returns their bodies.
func recv(t *testing.T, nw net.Transport, p groups.Process, want int, timeout time.Duration) []int {
	t.Helper()
	var got []int
	deadline := time.After(timeout)
	for len(got) < want {
		select {
		case pkt := <-nw.Inbox(p):
			got = append(got, pkt.Body.(int))
		case <-deadline:
			return got
		}
	}
	return got
}

func TestPassThroughNoFaults(t *testing.T) {
	c := Wrap(net.New(2), 1)
	defer c.Close()
	c.Send(0, 1, tPing, 7)
	pkt := <-c.Inbox(1)
	if pkt.From != 0 || pkt.Type != tPing || pkt.Body.(int) != 7 {
		t.Fatalf("bad packet %+v", pkt)
	}
	if st := c.Stats(); st.Forwarded != 1 || st.Dropped() != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFaultScheduleDeterministic: the same seed produces the same per-link
// drop pattern, packet by packet, across independent transports.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		c := Wrap(net.New(2), seed)
		defer c.Close()
		c.SetFaults(Faults{Drop: 0.5})
		for i := 0; i < 200; i++ {
			c.Send(0, 1, tM, i)
		}
		return recv(t, c, 1, 200, 50*time.Millisecond)
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("drop=0.5 delivered %d/200", len(a))
	}
	if other := run(43); reflect.DeepEqual(a, other) {
		t.Fatalf("seeds 42 and 43 produced identical schedules")
	}
}

func TestDuplication(t *testing.T) {
	c := Wrap(net.New(2), 3)
	defer c.Close()
	c.SetFaults(Faults{Dup: 1.0})
	for i := 0; i < 10; i++ {
		c.Send(0, 1, tM, i)
	}
	got := recv(t, c, 1, 20, 50*time.Millisecond)
	if len(got) != 20 {
		t.Fatalf("dup=1 delivered %d copies, want 20", len(got))
	}
	if st := c.Stats(); st.Duplicated != 10 {
		t.Fatalf("Duplicated = %d, want 10", st.Duplicated)
	}
}

func TestPartitionBlocksThenHeals(t *testing.T) {
	c := Wrap(net.New(4), 5)
	defer c.Close()
	c.Partition(groups.NewProcSet(0, 1), groups.NewProcSet(2, 3))
	c.Send(0, 2, tCross, 1) // severed
	c.Send(2, 1, tCross, 2) // severed (other direction)
	c.Send(0, 1, tSame, 3)  // same side: delivered
	if got := recv(t, c, 1, 1, 50*time.Millisecond); len(got) != 1 || got[0] != 3 {
		t.Fatalf("same-side packet lost: %v", got)
	}
	if st := c.Stats(); st.DroppedPartition != 2 {
		t.Fatalf("DroppedPartition = %d, want 2", st.DroppedPartition)
	}
	c.Heal()
	c.Send(0, 2, tCross, 4)
	if got := recv(t, c, 2, 1, 50*time.Millisecond); len(got) != 1 || got[0] != 4 {
		t.Fatalf("post-heal packet lost: %v", got)
	}
}

func TestIsolate(t *testing.T) {
	c := Wrap(net.New(3), 5)
	defer c.Close()
	c.Isolate(1)
	c.Send(0, 1, tM, 1)
	c.Send(1, 2, tM, 2)
	c.Send(0, 2, tM, 3) // unaffected link
	if got := recv(t, c, 2, 1, 50*time.Millisecond); len(got) != 1 || got[0] != 3 {
		t.Fatalf("unaffected link broken: %v", got)
	}
	if st := c.Stats(); st.DroppedPartition != 2 {
		t.Fatalf("DroppedPartition = %d, want 2", st.DroppedPartition)
	}
}

func TestDownUp(t *testing.T) {
	c := Wrap(net.New(2), 5)
	defer c.Close()
	c.Down(1)
	c.Send(0, 1, tM, 1)
	c.Send(1, 0, tM, 2)
	if st := c.Stats(); st.DroppedDown != 2 {
		t.Fatalf("DroppedDown = %d, want 2", st.DroppedDown)
	}
	c.Up(1)
	c.Send(0, 1, tM, 3)
	if got := recv(t, c, 1, 1, 50*time.Millisecond); len(got) != 1 || got[0] != 3 {
		t.Fatalf("post-recovery packet lost: %v", got)
	}
}

// TestDelayPreservesFIFO: without Reorder, random delays keep per-link
// order.
func TestDelayPreservesFIFO(t *testing.T) {
	c := Wrap(net.New(2), 7)
	defer c.Close()
	c.SetFaults(Faults{DelayMin: 50 * time.Microsecond, DelayMax: 2 * time.Millisecond})
	const n = 50
	for i := 0; i < n; i++ {
		c.Send(0, 1, tM, i)
	}
	got := recv(t, c, 1, n, 5*time.Second)
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO broken at %d: %v", i, got)
		}
	}
}

// TestReorderDeliversAll: with Reorder, every packet still arrives (order
// is intentionally scrambled).
func TestReorderDeliversAll(t *testing.T) {
	c := Wrap(net.New(2), 7)
	defer c.Close()
	c.SetFaults(Faults{DelayMax: 2 * time.Millisecond, Reorder: true})
	const n = 50
	for i := 0; i < n; i++ {
		c.Send(0, 1, tM, i)
	}
	got := recv(t, c, 1, n, 5*time.Second)
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	seen := make(map[int]bool, n)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("lost or duplicated under reorder: %v", got)
	}
}

// TestQuiesceClearsEverything: after Quiesce the fabric is reliable again.
func TestQuiesceClearsEverything(t *testing.T) {
	c := Wrap(net.New(2), 9)
	defer c.Close()
	c.SetFaults(Faults{Drop: 1.0})
	c.Down(0)
	c.Isolate(1)
	c.Quiesce()
	c.Send(0, 1, tM, 1)
	if got := recv(t, c, 1, 1, 50*time.Millisecond); len(got) != 1 {
		t.Fatalf("post-quiesce packet lost")
	}
}

// TestCloseWithDelayedInFlight: closing with packets still in delay pipes
// neither panics nor deadlocks.
func TestCloseWithDelayedInFlight(t *testing.T) {
	c := Wrap(net.New(2), 11)
	c.SetFaults(Faults{DelayMin: 50 * time.Millisecond, DelayMax: 100 * time.Millisecond})
	for i := 0; i < 20; i++ {
		c.Send(0, 1, tM, i)
	}
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close deadlocked on in-flight delayed packets")
	}
}

// TestCloseRacesDelayedSends closes the transport while several goroutines
// are still sending delayed packets, reordered and FIFO: every delayed packet
// starts a goroutine or opens a pipe, and Close must not wait on a group a
// Send is still adding to. The race detector is the verdict (-race). Few
// packets a round, so Close often lands while the first are being counted.
func TestCloseRacesDelayedSends(t *testing.T) {
	const senders = 4
	for round := 0; round < 300; round++ {
		c := Wrap(net.New(senders), int64(round))
		c.SetFaults(Faults{DelayMin: time.Millisecond, DelayMax: 2 * time.Millisecond, Reorder: round%2 == 0})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(from groups.Process) {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					c.Send(from, groups.Process(i%senders), tM, i)
				}
			}(groups.Process(s))
		}
		close(start)
		c.Close()
		wg.Wait()
	}
}

// TestPlanDeterministic: the nemesis schedule is a pure function of
// (seed, n, duration) — the seed-replay contract of cmd/nemesis.
func TestPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := NewPlan(seed, 5, 200*time.Millisecond)
		b := NewPlan(seed, 5, 200*time.Millisecond)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plans differ:\n%s\n%s", seed, a, b)
		}
		if a.String() != b.String() {
			t.Fatalf("seed %d: transcripts differ", seed)
		}
		last := a.Events[len(a.Events)-1]
		if last.Kind != EvQuiesce || last.At != 200*time.Millisecond {
			t.Fatalf("seed %d: plan does not end in a final quiesce: %s", seed, last)
		}
		for _, e := range a.Events {
			if e.At < 0 || e.At > 200*time.Millisecond {
				t.Fatalf("seed %d: event outside the run window: %s", seed, e)
			}
		}
	}
}

// TestNemesisRunQuiesces: after a plan finishes, the transport is clean.
func TestNemesisRunQuiesces(t *testing.T) {
	c := Wrap(net.New(3), 21)
	defer c.Close()
	nm := &Nemesis{C: c, Plan: NewPlan(21, 3, 30*time.Millisecond)}
	<-nm.Go()
	c.Send(0, 1, tM, 1)
	if got := recv(t, c, 1, 1, 100*time.Millisecond); len(got) != 1 {
		t.Fatalf("transport still faulty after nemesis quiesced")
	}
}

// TestPipeHoldsWhatItCarries checks a delay pipe is sized by its link's
// traffic: a link that carried a few delayed packets holds a few entries,
// and one flooded past pipeDepth still counts the excess as overflow.
func TestPipeHoldsWhatItCarries(t *testing.T) {
	c := Wrap(net.New(3), 5)
	defer c.Close()
	c.SetFaults(Faults{DelayMin: time.Hour, DelayMax: time.Hour})
	for i := 0; i < 3; i++ {
		c.Send(0, 1, tM, i)
	}
	const extra = 10
	for i := 0; i < pipeDepth+extra; i++ {
		c.Send(0, 2, tM, i)
	}
	c.mu.Lock()
	held, queued := cap(c.pipes[link{0, 1}].q), len(c.pipes[link{0, 2}].q)
	c.mu.Unlock()
	if held > 4 {
		t.Errorf("a link that carried 3 delayed packets holds %d entries", held)
	}
	if queued != pipeDepth {
		t.Errorf("flooded pipe holds %d packets, want pipeDepth = %d", queued, pipeDepth)
	}
	// The drain may already hold the link's first packet in its sleep, which
	// frees one place in the ring.
	if got := c.Stats().DroppedOverflow; got != extra && got != extra-1 {
		t.Errorf("DroppedOverflow = %d, want %d (or %d with one packet asleep in the drain)", got, extra, extra-1)
	}
}
