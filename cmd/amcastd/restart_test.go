package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestKillNineRestartRejoins is the durability acceptance run: three
// daemons with -data-dir, one of them kill -9'd mid-run and restarted with
// the same flags. The restarted daemon must replay its write-ahead log
// (RECOVER line with a non-zero record count), rejoin its quorums — every
// group here has two members, so its peers' logs cannot advance without its
// acceptor — and reach full delivery in pairwise agreement with the
// survivors.
func TestKillNineRestartRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "amcastd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building amcastd: %v\n%s", err, out)
	}

	addrs := freeAddrs(t, 3)
	dataDir := t.TempDir()
	const (
		groupSpec = "0,1;1,2;0,2"
		msgSpec   = "0>0;1>1;2>2;0>2;2>1"
	)
	daemon := func(id int, linger string) *exec.Cmd {
		return exec.Command(bin,
			"-id", fmt.Sprint(id),
			"-peers", strings.Join(addrs, ","),
			"-groups", groupSpec,
			"-msgs", msgSpec,
			"-timeout", "90s",
			"-linger", linger,
			"-data-dir", dataDir,
		)
	}

	// The survivors linger long enough to serve the restarted daemon's
	// recovery re-proposals with their acceptors.
	type result struct {
		id  int
		out string
		err error
	}
	results := make(chan result, 2)
	for _, id := range []int{0, 2} {
		go func(id int) {
			out, err := daemon(id, "20s").CombinedOutput()
			results <- result{id: id, out: string(out), err: err}
		}(id)
	}

	// The victim would linger for a minute — the kill always lands while it
	// is alive, after it has accepted slots into its WAL.
	var victimOut bytes.Buffer
	victim := daemon(1, "60s")
	victim.Stdout = &victimOut
	victim.Stderr = &victimOut
	if err := victim.Start(); err != nil {
		t.Fatalf("starting victim: %v", err)
	}
	time.Sleep(1500 * time.Millisecond)
	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	_ = victim.Wait() // reaps the SIGKILL exit; the error is expected

	// Restart with identical flags: same identity, same data directory.
	restarted := make(chan result, 1)
	go func() {
		out, err := daemon(1, "3s").CombinedOutput()
		restarted <- result{id: 1, out: string(out), err: err}
	}()

	var r1 result
	select {
	case r1 = <-restarted:
	case <-time.After(2 * time.Minute):
		t.Fatalf("restarted daemon did not finish (victim output so far:\n%s)", victimOut.String())
	}
	if r1.err != nil {
		t.Fatalf("restarted daemon failed: %v\n%s\n--- victim pre-kill output:\n%s", r1.err, r1.out, victimOut.String())
	}
	if rec := recoveredRecords(t, 1, r1.out); rec == 0 {
		t.Fatalf("restarted daemon replayed 0 WAL records — it started fresh instead of recovering:\n%s", r1.out)
	}
	if !strings.Contains(r1.out, "OK 1") {
		t.Fatalf("restarted daemon did not shut down cleanly:\n%s", r1.out)
	}

	orders := map[int][]string{1: parseOrder(t, 1, r1.out)}
	batches := map[int]map[string]string{1: parseBatches(t, 1, r1.out)}
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("daemon %d failed: %v\n%s", r.id, r.err, r.out)
			}
			if !strings.Contains(r.out, fmt.Sprintf("OK %d", r.id)) {
				t.Fatalf("daemon %d did not shut down cleanly:\n%s", r.id, r.out)
			}
			orders[r.id] = parseOrder(t, r.id, r.out)
			batches[r.id] = parseBatches(t, r.id, r.out)
		case <-time.After(2 * time.Minute):
			t.Fatal("surviving daemons did not finish within 2 minutes")
		}
	}

	// Same obligations as the smoke test (IDs positional in -msgs order).
	want := map[int][]string{
		0: {"1", "3", "4"},
		1: {"1", "2", "5"},
		2: {"2", "3", "4", "5"},
	}
	for id, w := range want {
		if !sameSet(orders[id], w) {
			t.Errorf("daemon %d delivered %v, want the set %v", id, orders[id], w)
		}
	}
	for a := 0; a <= 2; a++ {
		for b := a + 1; b <= 2; b++ {
			if err := agree(orders[a], orders[b]); err != nil {
				t.Errorf("p%d vs p%d: %v (orders %v / %v)", a, b, err, orders[a], orders[b])
			}
		}
	}
	// The restarted daemon re-derives every batch of the logs it shares:
	// g0 = {p0, p1} with daemon 0, g1 = {p1, p2} with daemon 2.
	for g, peer := range map[string]int{"g0": 0, "g1": 2} {
		if got, want := batches[1][g], batches[peer][g]; got != want {
			t.Errorf("restarted daemon reads the batches of %s as %q, daemon %d as %q", g, got, peer, want)
		}
	}
}

// parseBatches extracts a daemon's BATCHES line as the batches of each
// group log, by group.
func parseBatches(t *testing.T, id int, out string) map[string]string {
	t.Helper()
	prefix := fmt.Sprintf("BATCHES %d", id)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		byGroup := make(map[string]string)
		for _, b := range strings.Fields(strings.TrimPrefix(line, prefix)) {
			g, extent, _ := strings.Cut(b, ":")
			byGroup[g] = strings.TrimSpace(byGroup[g] + " " + extent)
		}
		return byGroup
	}
	t.Fatalf("daemon %d printed no BATCHES line:\n%s", id, out)
	return nil
}

// recoveredRecords extracts the record count from the RECOVER line.
func recoveredRecords(t *testing.T, id int, out string) int {
	t.Helper()
	prefix := fmt.Sprintf("RECOVER %d records=", id)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, prefix)))
			if err != nil {
				t.Fatalf("bad RECOVER line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("daemon %d printed no RECOVER line:\n%s", id, out)
	return 0
}
