// Command bowperf is the simulator's benchmark. It measures the host
// cost of simulating — never a simulated speed-up: the repository holds
// no hardware reference results, so the model is unvalidated — on four
// workloads, end to end (-trace 0) or per layer (-trace 1), and checks
// every simulated result against committed golden digests. See
// bench/README.md for the workloads, metrics and bounds.
//
// Run from the repository root:
//
//	bowperf -workload crosspolicy_cold -seed 1 -seconds 25 -trace 0
//	bowperf -seed 1                      # every workload, each in a fresh child process
//	bowperf -compare PARENT_DIR CHANGE_DIR
//	bowperf -write-golden
//
// A single-workload run prints its full record as one JSON line and
// then, as its last line, {"correct","attempted","failed","metrics"}.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	golden   string
	build    string // profiles, spans, run records and scratch caches
	out      string // run record directory ("" = none)
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bowperf:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bowperf", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for submission order and serving draws")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.golden, "golden", filepath.Join("bench", "testdata", "golden.json"), "golden digest table")
	fs.StringVar(&o.build, "build", ".bench_build", "directory for profiles, spans and scratch caches")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "runs"), "directory to keep run records in (empty: none)")
	compare := fs.Bool("compare", false, "compare run records: -compare PARENT_DIR CHANGE_DIR")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "bounds for -compare")
	writeGoldenFlag := fs.Bool("write-golden", false, "regenerate the golden digest table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs PARENT_DIR CHANGE_DIR")
		}
		return compareDirs(*benchmark, fs.Arg(0), fs.Arg(1), stdout)
	case *writeGoldenFlag:
		return writeGolden(ctx, o.golden)
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.seconds < 1:
		return errors.New("-seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return errors.New("-trace must be 0 or 1")
	case o.workload == "":
		return runAll(ctx, o, stdout)
	}
	return runOne(ctx, o, stdout)
}

func runOne(ctx context.Context, o options, stdout io.Writer) error {
	gold, err := loadGolden(o.golden)
	if err != nil {
		return err
	}
	rec, err := measure(ctx, o, gold)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer()
	}
	metrics, err := pick(defs, rec.Values)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		name := fmt.Sprintf("%s-s%d-t%d.json", o.workload, o.seed, o.trace)
		if err := os.WriteFile(filepath.Join(o.out, name), append(line, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rec.FirstError != "" {
		fmt.Fprintf(os.Stderr, "bowperf: %d of %d operations failed; first: %s\n", rec.Failed, rec.Attempted, rec.FirstError)
	}
	res, err := json.Marshal(result{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", line, res)
	return err
}

// runAll runs every workload in a fresh child process of this binary,
// one after another, and tabulates their result lines.
func runAll(ctx context.Context, o options, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range allWorkloads {
		cmd := exec.CommandContext(ctx, self,
			"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
			"-golden", o.golden, "-build", o.build, "-out", o.out)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		defs := endToEnd
		if o.trace == 1 {
			defs = perLayer()
		}
		fmt.Fprintf(stdout, "%s  correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		for _, d := range defs {
			m := res.Metrics[d.Name]
			fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
