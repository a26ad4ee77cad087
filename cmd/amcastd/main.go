// Command amcastd is the multi-process deployment of the live substrate:
// one daemon embodies one process of the topology, speaking the binary wire
// protocol over TCP to its peers. A 3-process run of the Figure-1-style
// workload is three amcastd invocations (three terminals, or three CI
// processes) sharing the same scenario flags:
//
//	amcastd -id 0 -peers "127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002" \
//	        -groups "0,1;1,2;0,2" -msgs "0>0;1>1;2>2"
//	amcastd -id 1 -peers ... (same scenario flags)
//	amcastd -id 2 -peers ... (same scenario flags)
//
// Every daemon must receive identical -groups, -msgs and -crash specs:
// message IDs are positional in the multicast schedule, so the daemons
// reconstruct the same schedule independently (every daemon multicasts
// every entry; only the sender's daemon enqueues it). The daemon prints one
// line
//
//	ORDER <id> <msgID> <msgID> ...
//
// with its local delivery order — the harness (or the operator, across
// three terminals) checks pairwise agreement — then
//
//	BATCHES <id> g<group>:<head>-<last> ...
//
// the requests its group logs let in together, each batch by its first and
// last message, and "OK <id>" on clean shutdown.
//
// With -data-dir the daemon's acceptor state is durable: every promise and
// accepted value is written to a write-ahead log under the directory before
// the reply leaves the process, so a kill -9'd daemon restarted with the
// same flags replays the log (the "RECOVER <id> records=<n>" line), rejoins
// its quorums and continues without violating paxos safety. -fsync none
// keeps the log but skips the fsync barrier (crash-unsafe, benchmark use).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/live"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

func main() {
	cc := cliconf.Bind(flag.CommandLine, cliconf.ToolAmcastd)
	flag.Parse()
	if err := run(cc); err != nil {
		log.Fatal(err)
	}
}

func run(cc *cliconf.Common) error {
	topo, err := cliconf.ParseGroups(cc.Groups)
	if err != nil {
		return err
	}
	if cc.ID < 0 || cc.ID >= topo.NumProcesses() {
		return fmt.Errorf("-id %d out of range for %d processes", cc.ID, topo.NumProcesses())
	}
	self := groups.Process(cc.ID)
	addrs, err := cliconf.ParsePeers(cc.Peers, topo.NumProcesses())
	if err != nil {
		return err
	}
	pat, err := cliconf.ParseCrashes(cc.Crash, topo.NumProcesses())
	if err != nil {
		return err
	}
	v, err := cliconf.ParseVariant(cc.Variant)
	if err != nil {
		return err
	}
	msgs, err := cliconf.ParseMulticasts(cc.Msgs)
	if err != nil {
		return err
	}

	tr, err := wire.Listen(wire.Config{Self: self, Addrs: addrs})
	if err != nil {
		return err
	}

	opt := core.Options{
		Variant: v,
		FD:      fd.Options{Delay: failure.Time(cc.Delay), Seed: cc.Seed},
	}
	if v == core.Generic {
		// The conflict relation of a daemon run is induced by the #class
		// tags of the -msgs spec, which every daemon parses identically.
		opt.Conflict = msg.ClassesConflict
	}
	if cc.Report {
		opt.Rec = obs.NewRecorder(obs.Options{WallClock: true})
	}

	// The WAL is opened before the system so an open failure (bad directory,
	// corrupt permissions) aborts the daemon before it joins any quorum.
	wal, err := cliconf.OpenWAL(cc.DataDir, cc.Fsync, self, opt.Rec.WAL())
	if err != nil {
		return err
	}

	sys := live.NewSystem(topo, pat, tr, live.Config{
		Opt:     opt,
		Local:   groups.NewProcSet(self),
		Storage: func(groups.Process) storage.WAL { return wal },
	})
	if f, ok := wal.(*storage.File); ok {
		// NewSystem replayed the log while building the paxos node; by now
		// the count is final. The line is the restart harness's handle on
		// "this daemon recovered rather than started fresh".
		fmt.Printf("RECOVER %d records=%d\n", cc.ID, f.RecoveredRecords())
		os.Stdout.Sync()
	}
	sys.Start()
	defer sys.Stop()

	// Walk the schedule in canonical order at every daemon, so all
	// registries assign identical message IDs.
	for _, m := range msgs {
		for sys.Now() < m.At {
			time.Sleep(time.Millisecond)
		}
		sys.MulticastClassed(m.Src, m.G, nil, m.Class)
	}

	if !sys.AwaitDelivery(cc.Timeout) {
		return fmt.Errorf("p%d: delivery incomplete after %v", cc.ID, cc.Timeout)
	}

	var order []string
	for _, d := range sys.Sh.Deliveries() {
		if d.P == self {
			order = append(order, fmt.Sprintf("%d", d.M))
		}
	}
	fmt.Printf("ORDER %d %s\n", cc.ID, strings.Join(order, " "))
	// The batches of this process's group logs, as gN:head-last: a daemon
	// that recovered must read the ones its peers read.
	var batches []string
	for _, g := range topo.GroupsOf(self).Members() {
		for h, last := range sys.Batches(self, g) {
			batches = append(batches, fmt.Sprintf("g%d:%d-%d", g, h, last))
		}
	}
	sort.Strings(batches)
	fmt.Printf("BATCHES %d %s\n", cc.ID, strings.Join(batches, " "))
	os.Stdout.Sync()

	// Linger: this daemon's acceptor may still be needed for a peer's
	// quorum. A real deployment would stay up indefinitely; a scripted run
	// holds the line long enough for every peer to reach delivery.
	time.Sleep(cc.Linger)
	sys.Stop()
	if err := wal.Close(); err != nil {
		return fmt.Errorf("p%d: wal close: %w", cc.ID, err)
	}
	if cc.Report {
		rep := sys.Report()
		fmt.Printf("%s\n", rep.String())
	}
	fmt.Printf("OK %d\n", cc.ID)
	return nil
}
