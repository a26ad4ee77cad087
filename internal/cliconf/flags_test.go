package cliconf_test

import (
	"flag"
	"io"
	"testing"

	"repro/internal/cliconf"
)

// bind builds a throwaway FlagSet for one tool.
func bind(tool cliconf.Tool) (*flag.FlagSet, *cliconf.Common) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, cliconf.Bind(fs, tool)
}

// has reports whether the set declares a flag of that name.
func has(fs *flag.FlagSet, name string) bool { return fs.Lookup(name) != nil }

// TestLoadsimFlagSurface pins which shared flags the loadsim tool consumes:
// the campaign flags plus the shared seed/transport/json, and none of the
// daemon or topology-spec flags (every live run waits for delivery under
// one deadline, so -timeout is amcastd's alone).
func TestLoadsimFlagSurface(t *testing.T) {
	fs, _ := bind(cliconf.ToolLoadsim)
	for _, name := range []string{
		"scenarios", "scenario-file", "load-scale",
		"transport", "json", "seed",
	} {
		if !has(fs, name) {
			t.Errorf("loadsim is missing shared flag -%s", name)
		}
	}
	for _, name := range []string{
		"groups", "msgs", "crash", "variant", "delay",
		"id", "peers", "linger", "data-dir", "fsync", "report", "timeout",
	} {
		if has(fs, name) {
			t.Errorf("loadsim declares -%s, which it does not consume", name)
		}
	}
}

// TestLoadsimFlagParsing drives the loadsim surface end to end and checks
// the parsed values land in Common.
func TestLoadsimFlagParsing(t *testing.T) {
	fs, c := bind(cliconf.ToolLoadsim)
	err := fs.Parse([]string{
		"-scenarios", "steady,hot-group",
		"-scenario-file", "campaign.json",
		"-load-scale", "0.25",
		"-transport", "tcp",
		"-json", "out.json",
		"-seed", "42",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Scenarios != "steady,hot-group" || c.ScenarioFile != "campaign.json" ||
		c.LoadScale != 0.25 || c.Transport != "tcp" || c.JSON != "out.json" ||
		c.Seed != 42 {
		t.Fatalf("parsed values did not land: %+v", c)
	}
}

// TestLoadsimFlagDefaults pins the zero-argument campaign: the whole
// catalog, at scale, on the in-memory transport.
func TestLoadsimFlagDefaults(t *testing.T) {
	fs, c := bind(cliconf.ToolLoadsim)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Scenarios != "all" || c.LoadScale != 1 || c.Transport != "mem" ||
		c.Seed != 1 {
		t.Fatalf("defaults: %+v", c)
	}
}

// TestToolMasksDisjoint checks tools don't accidentally share an identity
// bit — the table dispatches on mask intersection.
func TestToolMasksDisjoint(t *testing.T) {
	tools := []cliconf.Tool{
		cliconf.ToolAmcast, cliconf.ToolAmcastd, cliconf.ToolNemesis, cliconf.ToolLoadsim,
	}
	for i, a := range tools {
		for _, b := range tools[i+1:] {
			if a&b != 0 {
				t.Fatalf("tool masks %b and %b overlap", a, b)
			}
		}
	}
}
