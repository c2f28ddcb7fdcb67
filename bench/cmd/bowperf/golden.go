package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"bow/internal/simjob"
)

// golden maps a result key to the SHA-256 of the result's canonical
// JSON. The key is the spec hash, with "@warm<N>" appended for a point
// forked from an N-cycle warm-up (a forked result is a warm-up
// approximation, distinct from the cold run of the same spec).
type golden struct {
	Digests map[string]string `json:"digests"`
}

func forkedKey(hash string, warm int64) string { return fmt.Sprintf("%s@warm%d", hash, warm) }

func digestOf(sum simjob.JobResult) (string, error) {
	raw, err := sum.CanonicalJSON()
	if err != nil {
		return "", err
	}
	d := sha256.Sum256(raw)
	return hex.EncodeToString(d[:]), nil
}

func loadGolden(path string) (*golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", path, err)
	}
	if len(g.Digests) == 0 {
		return nil, fmt.Errorf("golden digests %s: empty table", path)
	}
	return &g, nil
}

// check reports whether sum is the committed result for key. A key
// missing from the table is a mismatch: the workloads draw only points
// the table covers.
func (g *golden) check(key string, sum simjob.JobResult) error {
	want, ok := g.Digests[key]
	if !ok {
		return fmt.Errorf("golden: no digest for %s", key)
	}
	got, err := digestOf(sum)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("golden: %s (%s/%s iw=%d) digest %.12s, want %.12s",
			key, sum.Bench, sum.Policy, sum.IW, got, want)
	}
	return nil
}

// sweepKey is the golden key of one sweep item.
func sweepKey(it simjob.SweepItem, warm int64) string {
	if it.Cached == "forked" {
		return forkedKey(it.Result.SpecHash, warm)
	}
	return it.Result.SpecHash
}

// writeGolden simulates every point any workload can draw and writes
// the digest table to path.
func writeGolden(ctx context.Context, path string) error {
	e, err := simjob.New(simjob.Options{Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	defer e.Close()

	points := append(designSpace(), expandAll(crossPolicySweep(), iwSweep())...)
	tickets := make([]*simjob.Ticket, len(points))
	for i, sp := range points {
		tickets[i] = e.Submit(ctx, sp)
	}
	g := golden{Digests: make(map[string]string)}
	for i, t := range tickets {
		out, err := t.WaitContext(ctx)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", points[i].Bench, points[i].Policy, err)
		}
		if g.Digests[out.Hash], err = digestOf(out.Summary); err != nil {
			return err
		}
	}
	sw := iwSweep()
	sw.ForkPrefix = true
	res, err := e.RunSweep(ctx, sw)
	if err != nil {
		return err
	}
	for _, it := range res.Items {
		if it.Error != "" {
			return fmt.Errorf("forked %s/%s iw=%d: %s", it.Spec.Bench, it.Spec.Policy, it.Spec.IW, it.Error)
		}
		if g.Digests[sweepKey(it, simjob.DefaultWarmupCycles)], err = digestOf(*it.Result); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bowperf: wrote %d digests to %s\n", len(g.Digests), path)
	return nil
}

func expandAll(sweeps ...simjob.SweepSpec) []simjob.JobSpec {
	var out []simjob.JobSpec
	for _, sw := range sweeps {
		specs, err := sw.Expand()
		if err != nil {
			panic(err) // the grids are constants of this program
		}
		out = append(out, specs...)
	}
	return out
}
