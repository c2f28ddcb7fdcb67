package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"bow/bench/stats"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads the untraced run records kept in dir, by workload
// then seed.
func loadRecords(dir string) (map[string]map[int64]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]*record{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[int64]*record{}
		}
		out[r.Workload][r.Seed] = &r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	return out, nil
}

// comparison is one workload x metric row.
type comparison struct {
	parent, change []float64 // in seed order
	pairWins       float64   // share of same-seed pairs the change won (ties count for neither)
	pairs          int
}

// verdict applies the metrics guide: "worse" when the change's median
// is worse than the parent's by more than bound; "better" when the
// change wins at least nine tenths of the pairs and its median beats
// the parent's by more than the parent's own IQR; "unresolved" when the
// parent's spread exceeds the bound, unless every change run beats
// every parent run; otherwise "unchanged".
func verdict(c comparison, better string, bound float64) string {
	sign := 1.0
	if better == lower {
		sign = -1
	}
	pm, cm := stats.Median(c.parent), stats.Median(c.change)
	gain := sign * (cm - pm) / math.Abs(pm) // > 0: the change is better
	q1, _, q3 := stats.Quartiles(c.parent)
	allBetter := true
	for _, p := range c.parent {
		for _, x := range c.change {
			if sign*(x-p) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.pairs > 0 && c.pairWins >= 0.9 && sign*(cm-pm) > q3-q1:
		return "better"
	case allBetter:
		return "better"
	case stats.IQRFrac(c.parent) > bound:
		return "unresolved"
	case gain < -bound:
		return "worse"
	}
	return "unchanged"
}

func compareDirs(benchmarkPath, parentDir, changeDir string, w io.Writer) error {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	parent, err := loadRecords(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-18s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "parent", "iqr", "change", "iqr", "delta", "wins", "verdict")
	for _, wl := range allWorkloads {
		p, c := parent[wl.name], change[wl.name]
		if p == nil || c == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			cmp := compareMetric(p, c, m.Name, m.Better)
			pm, cm := stats.Median(cmp.parent), stats.Median(cmp.change)
			fmt.Fprintf(w, "%-18s %-18s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%% %6.2f  %s\n",
				wl.name, m.Name, pm, 100*stats.IQRFrac(cmp.parent), cm, 100*stats.IQRFrac(cmp.change),
				100*(cm-pm)/math.Abs(pm), cmp.pairWins, verdict(cmp, m.Better, m.Bound))
		}
	}
	return nil
}

func compareMetric(parent, change map[int64]*record, name, better string) comparison {
	var c comparison
	var wins int
	for _, seed := range sortedSeeds(parent) {
		c.parent = append(c.parent, parent[seed].Values[name])
	}
	for _, seed := range sortedSeeds(change) {
		x := change[seed].Values[name]
		c.change = append(c.change, x)
		if p, ok := parent[seed]; ok {
			c.pairs++
			d := x - p.Values[name]
			if better == lower {
				d = -d
			}
			if d > 0 {
				wins++
			}
		}
	}
	if c.pairs > 0 {
		c.pairWins = float64(wins) / float64(c.pairs)
	}
	return c
}

func sortedSeeds(m map[int64]*record) []int64 {
	out := make([]int64, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
