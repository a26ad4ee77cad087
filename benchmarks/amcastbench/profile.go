package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuShares reduces a CPU profile to the share of samples each layer owns.
// A sample belongs to the layer of the innermost frame of its stack that
// lies in one of the stack's modules — so map iteration and sorting done
// for logobj count as logobj's — to "runtime" when no such frame exists and
// the leaf is in the Go runtime (GC workers, scheduler), and to "other"
// otherwise (the driver, other packages). It shells out to the toolchain's
// pprof so the module stays dependency-free.
func cpuShares(exe, profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", exe, profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// rules, each a sample value followed by its stack, leaf first.
func parseTraces(out []byte) (map[string]float64, error) {
	weight := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			weight[layerOfStack(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks {
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if len(f) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			value, f = d, f[1:]
		}
		stack = append(stack, strings.Join(f, " "))
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	shares := map[string]float64{"runtime": 0, "other": 0}
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	for l, w := range weight {
		shares[l] = float64(w) / float64(total)
	}
	return shares, nil
}

// layerOfStack attributes one stack (leaf first).
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "runtime" && l != "other" {
			return l
		}
	}
	return layerOf(stack[0])
}

// layerOf maps a function name such as
// "repro/internal/logobj.(*Log).MessagesBefore" to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range cpuLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
