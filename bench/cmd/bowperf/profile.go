package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuProfile is one CPU profile being written to a file.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and returns its samples, rendered with
// go tool pprof -traces and parsed.
func (p *cpuProfile) stop(ctx context.Context) ([]sample, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", p.path)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(out.String())
}

// sample is one stack of a `pprof -traces` listing, leaf first.
type sample struct {
	labels map[string]string
	value  float64 // seconds
	stack  []string
}

// parseTraces reads a `pprof -traces` listing: blocks separated by
// dashed rules, each holding optional "key:  value" label lines, then
// the sample value with the leaf function, then one caller per line.
func parseTraces(listing string) ([]sample, error) {
	var out []sample
	var cur *sample
	flush := func() {
		if cur != nil && len(cur.stack) > 0 {
			out = append(out, *cur)
		}
	}
	for _, line := range strings.Split(listing, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			cur = &sample{labels: map[string]string{}}
			continue
		}
		fields := strings.Fields(line)
		if cur == nil || len(fields) == 0 {
			continue // the header, or blank lines
		}
		switch {
		case len(cur.stack) == 0 && strings.HasSuffix(fields[0], ":"):
			cur.labels[strings.TrimSuffix(fields[0], ":")] = strings.Join(fields[1:], " ")
		case len(cur.stack) == 0:
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %w", err)
			}
			cur.value = d.Seconds()
			cur.stack = []string{strings.Join(fields[1:], " ")}
		default:
			cur.stack = append(cur.stack, strings.Join(fields, " "))
		}
	}
	flush()
	return out, nil
}

// cpuShares attributes samples to the cpu buckets and returns each
// bucket's share of all sample time. Every bucket is present; the
// shares sum to 1.
//
// A sample inside garbage collection (background marking, assists,
// sweeping, write barriers) counts as runtime.gc, one under mallocgc
// as runtime.alloc, and one whose leaf is a memory move or clear as
// runtime.copy. Any other sample counts for the innermost frame that
// belongs to a listed module, so a standard-library or unlisted
// helper's time lands on the module that called it; a stack with no
// such frame is "other".
func cpuShares(samples []sample) (map[string]float64, error) {
	sums := map[string]float64{}
	var total float64
	for _, s := range samples {
		sums[classify(s.stack)] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile: no samples")
	}
	out := make(map[string]float64, len(cpuBuckets()))
	for _, b := range cpuBuckets() {
		out[b] = sums[b] / total
	}
	return out, nil
}

// labelled returns the samples carrying label key=value.
func labelled(samples []sample, key, value string) []sample {
	var out []sample
	for _, s := range samples {
		if s.labels[key] == value {
			out = append(out, s)
		}
	}
	return out
}

func classify(stack []string) string {
	for _, f := range stack {
		if isGC(f) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return "runtime.alloc"
		}
	}
	for _, p := range []string{
		"runtime.memmove", "runtime.duff", "runtime.typedmemmove", "runtime.typedslicecopy",
		"runtime.memclr", "runtime.wbMove", "runtime.bulkBarrierPreWrite",
	} {
		if strings.HasPrefix(stack[0], p) {
			return "runtime.copy"
		}
	}
	for _, f := range stack {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return "other"
}

func isGC(f string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
		"gcWriteBarrier", // the write barrier's assembly stubs carry no package prefix
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// moduleOf maps a function name onto its listed module, or "".
func moduleOf(f string) string {
	switch {
	case strings.HasPrefix(f, "encoding/json."):
		return "json"
	case strings.HasPrefix(f, "net/") || strings.HasPrefix(f, "net."):
		return "net"
	case strings.HasPrefix(f, "bow/internal/"):
		rest := f[len("bow/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range cpuModules {
			if m == rest {
				return m
			}
		}
	}
	return ""
}
