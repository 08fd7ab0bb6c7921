package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestGoldenFigures regenerates the results/ files with dlmbench's
// defaults — the artifacts table and the scenario main runs with no flags
// given — and compares the bytes against the committed ones. This is the
// determinism pin for the whole pipeline: any change that perturbs a
// random stream, the event order, or the fault injection in its disabled
// state shows up here as a byte diff. Tier-1 checks the figures
// (results/fig*.csv); under -tags oracle (`scripts/ci.sh oracle`) every
// artifact `dlmbench` runs by default is checked, the 25 files of
// `dlmbench -out`. The runs take tens of seconds, so the test is skipped
// under -short.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration is slow; skipped with -short")
	}
	sc := defaults(*n, *seed, *dur)
	for _, a := range artifacts() {
		if !a.selectedBy("all") || !goldenAll && filepath.Ext(a.files[0]) != ".csv" {
			continue
		}
		// One subtest per file, named by its stem; an artifact that writes
		// several files (fig4-6) runs once, in whichever subtest asks first.
		run := sync.OnceValues(func() ([]output, error) { return a.run(sc) })
		for i, file := range a.files {
			t.Run(strings.TrimSuffix(file, filepath.Ext(file)), func(t *testing.T) {
				t.Parallel()
				outs, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if len(outs) != len(a.files) {
					t.Fatalf("%d outputs for %d files %v", len(outs), len(a.files), a.files)
				}
				want, err := os.ReadFile(filepath.Join("..", "..", "results", file))
				if err != nil {
					t.Fatalf("missing golden artifact: %v", err)
				}
				if !bytes.Equal(outs[i].data, want) {
					t.Errorf("%s drifted from the committed golden bytes "+
						"(got %d bytes, want %d); if the change is intentional, "+
						"regenerate with `go run ./cmd/dlmbench -out results`",
						file, len(outs[i].data), len(want))
				}
			})
		}
	}
}
