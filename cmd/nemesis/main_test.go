package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestRegistryResolvesAdvertisedNames pins the workload names the command's
// documentation and the verify notes advertise: each resolves, each carries
// a description for -h, and nothing else does.
func TestRegistryResolvesAdvertisedNames(t *testing.T) {
	advertised := []string{"replog", "powercycle", "multicast", "commute"}
	for _, name := range advertised {
		w, ok := lookupWorkload(name)
		if !ok {
			t.Errorf("advertised workload %q does not resolve", name)
			continue
		}
		if w.name != name || w.desc == "" || w.plan == nil || w.run == nil {
			t.Errorf("workload %q is incomplete: %+v", name, w)
		}
	}
	if len(workloads) != len(advertised) {
		t.Errorf("registry holds %d workloads, %d are advertised", len(workloads), len(advertised))
	}
	if _, ok := lookupWorkload("no-such-workload"); ok {
		t.Errorf("an unknown name resolved")
	}
}

// TestChainWorkloadsPassSeededRun replays a 2-second seeded fault schedule
// against both users of the merged chain workload: the vanilla protocol and
// the Generic commuting mix (which must also have taken its fast path, or
// the workload fails itself). Each run ends with its one-line JSON verdict.
func TestChainWorkloadsPassSeededRun(t *testing.T) {
	const seed, n = 7, 5
	for _, name := range []string{"multicast", "commute"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, _ := lookupWorkload(name)
			var out bytes.Buffer
			ok := execute(&out, w, w.plan(seed, n, 2*time.Second))
			var got verdict
			if err := json.Unmarshal(out.Bytes(), &got); err != nil {
				t.Fatalf("verdict line %q is not one JSON object: %v", out.String(), err)
			}
			if want := (verdict{Workload: name, Seed: seed, N: n, OK: true}); got != want || !ok {
				t.Fatalf("verdict %+v (passed=%v), want %+v", got, ok, want)
			}
		})
	}
}

// TestChainWorkloadRejectsEvenN checks the chain's shape requirement comes
// back as an error, not a panic from topology construction.
func TestChainWorkloadRejectsEvenN(t *testing.T) {
	w, _ := lookupWorkload("multicast")
	if err := w.run(chaos.NewPlan(1, 4, time.Millisecond)); err == nil {
		t.Fatal("an even -n was accepted by the chain workload")
	}
}
