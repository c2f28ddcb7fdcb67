package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bow/internal/experiments"
	"bow/internal/simjob"
)

var updateTables = flag.Bool("update", false, "rewrite testdata/tables.golden from the current code")

// TestTablesGolden pins every table bowbench prints. All experiments
// render once on a prewarmed engine and once inline (-seq), and both
// outputs must equal the committed golden byte for byte, so a change
// to any number of any paper artifact fails here. An intended change
// regenerates the file with -update and says why in CHANGES.md.
func TestTablesGolden(t *testing.T) {
	engine, err := simjob.New(simjob.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	er := experiments.NewEngineRunner(engine)
	experiments.Prewarm(er)
	modes := []struct {
		name string
		r    *experiments.Runner
	}{
		{"seq", experiments.NewRunner()},
		{"engine", er},
	}
	golden := filepath.Join("testdata", "tables.golden")
	for _, m := range modes {
		var buf bytes.Buffer
		n, err := render(&buf, m.r, allExperiments(), "")
		if err != nil {
			t.Fatalf("%s mode: %v", m.name, err)
		}
		if n != len(allExperiments()) {
			t.Fatalf("%s mode: rendered %d of %d experiments", m.name, n, len(allExperiments()))
		}
		if *updateTables && m.name == "seq" {
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s mode: tables differ from %s at %s", m.name, golden, firstDiff(got, want))
		}
	}
}

// firstDiff describes the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: got %d lines, want %d", min(len(g), len(w))+1, len(g), len(w))
}
