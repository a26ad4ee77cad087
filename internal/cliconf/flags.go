package cliconf

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/groups"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Tool identifies a command-line consumer of the shared flag surface.
type Tool uint16

const (
	ToolAmcast Tool = 1 << iota
	ToolAmcastd
	ToolNemesis
	ToolLoadsim
)

// Common receives the shared flag values at Parse time. Bind declares on a
// FlagSet exactly the subset of the surface the given tool consumes; fields
// whose flags were not declared keep their zero value. The table below is
// the single declaration site — before it, every tool re-declared its own
// copies of these flags (four drifting usage strings for -seed alone), and
// a new shared flag like -data-dir had to be added four times.
type Common struct {
	Groups  string // -groups: topology spec (ParseGroups)
	Msgs    string // -msgs: multicast schedule (ParseMulticasts)
	Crash   string // -crash: crash schedule (ParseCrashes)
	Variant string // -variant: protocol variant (ParseVariant)
	Delay   int64  // -delay: failure-detector stabilisation (ticks)
	Seed    int64  // -seed: run seed (detectors, fault schedules)
	Report  bool   // -report: print the obs.RunReport
	ID      int    // -id: the process this daemon embodies
	Peers   string // -peers: address list (ParsePeers)
	Timeout time.Duration
	Linger  time.Duration
	DataDir string // -data-dir: WAL directory ("" = in-memory, no recovery)
	Fsync   string // -fsync: "sync" | "none" (file WAL durability barrier)

	Transport    string  // -transport: live backend transport ("mem" | "tcp")
	JSON         string  // -json: write results as a BENCH document here
	Scenarios    string  // -scenarios: comma-separated scenario names ("all")
	ScenarioFile string  // -scenario-file: JSON scenario list replacing the catalog
	LoadScale    float64 // -load-scale: multiply every scenario's arrival count
}

// flagSpecs is the declarative flag table: each shared flag appears exactly
// once, with the set of tools that consume it.
var flagSpecs = []struct {
	tools Tool
	reg   func(fs *flag.FlagSet, c *Common)
}{
	{ToolAmcast | ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.Groups, "groups", "0,1;1,2;0,2", "semicolon-separated groups (comma-separated members)")
	}},
	{ToolAmcast | ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.Msgs, "msgs", "0>0;1>1", "semicolon-separated multicasts src>group[@tick][#class] (#free / #<n> tag conflict classes under -variant generic)")
	}},
	{ToolAmcast | ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.Crash, "crash", "", "semicolon-separated crashes proc@tick")
	}},
	{ToolAmcast | ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.Variant, "variant", "vanilla", "vanilla | strict | pairwise | strong | generic")
	}},
	{ToolAmcast | ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.Int64Var(&c.Delay, "delay", 8, "failure-detector stabilisation delay (ticks)")
	}},
	{ToolAmcast | ToolAmcastd | ToolNemesis | ToolLoadsim, func(fs *flag.FlagSet, c *Common) {
		fs.Int64Var(&c.Seed, "seed", 1, "run seed: failure detectors, fault schedules and workload streams (must match across daemons; (scenario, seed) replays a loadsim stream)")
	}},
	{ToolAmcast | ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.BoolVar(&c.Report, "report", false, "print the obs.RunReport before exiting")
	}},
	{ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.IntVar(&c.ID, "id", -1, "process ID this daemon embodies (index into -peers)")
	}},
	{ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.Peers, "peers", "", "comma-separated host:port per process, indexed by ID")
	}},
	{ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.DurationVar(&c.Timeout, "timeout", 60*time.Second, "how long to wait for local delivery to complete")
	}},
	{ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.DurationVar(&c.Linger, "linger", 2*time.Second, "how long to stay up after local delivery so peers can finish")
	}},
	{ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.DataDir, "data-dir", "", "write-ahead-log directory (empty runs in-memory with no crash recovery)")
	}},
	{ToolAmcastd, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.Fsync, "fsync", "sync", "file-WAL durability barrier: sync (fsync on commit) | none (OS buffering only)")
	}},
	{ToolLoadsim, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.Transport, "transport", "mem", "live-backend transport: mem (in-memory channels) | tcp (loopback sockets + binary codec)")
	}},
	{ToolLoadsim, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.JSON, "json", "", "write results as a BENCH document to this path")
	}},
	{ToolLoadsim, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.Scenarios, "scenarios", "all", "comma-separated scenario names to run, in order (\"all\" runs the whole catalog)")
	}},
	{ToolLoadsim, func(fs *flag.FlagSet, c *Common) {
		fs.StringVar(&c.ScenarioFile, "scenario-file", "", "JSON scenario list replacing the built-in catalog (the serialized form of []workload.Scenario)")
	}},
	{ToolLoadsim, func(fs *flag.FlagSet, c *Common) {
		fs.Float64Var(&c.LoadScale, "load-scale", 1, "multiply every scenario's arrival count (changes the stream, so digests differ from scale-1 baselines)")
	}},
}

// Bind declares tool's share of the declarative flag surface on fs and
// returns the struct the parsed values land in. Call before fs.Parse.
func Bind(fs *flag.FlagSet, tool Tool) *Common {
	c := &Common{}
	for _, s := range flagSpecs {
		if s.tools&tool != 0 {
			s.reg(fs, c)
		}
	}
	return c
}

// OpenWAL builds process p's write-ahead log from the shared -data-dir and
// -fsync flags: an empty dataDir yields a fresh in-memory WAL (group-commit
// semantics, nothing survives the OS process), otherwise a file WAL under
// dataDir/p<ID> with the requested barrier mode. Counters may be nil.
func OpenWAL(dataDir, fsync string, p groups.Process, c *obs.WALCounters) (storage.WAL, error) {
	switch fsync {
	case "sync", "none":
	default:
		return nil, fmt.Errorf("bad -fsync mode %q (want sync or none)", fsync)
	}
	if dataDir == "" {
		return storage.NewMem().Observe(c), nil
	}
	return storage.OpenFile(filepath.Join(dataDir, fmt.Sprintf("p%d", p)), storage.FileOptions{
		NoFsync:  fsync == "none",
		Counters: c,
	})
}
