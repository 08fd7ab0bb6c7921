package scenario

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// TestTraceDigests pins the determinism contract to committed bytes: the
// sha256 of every decision trace of Pack(300, 1) and Quick(2000, 1) must
// equal its line in testdata/trace_digests.txt. A change that moves a
// trajectory on purpose edits that line by hand, from the digest this
// test prints, and says why.
func TestTraceDigests(t *testing.T) {
	f, err := os.Open("testdata/trace_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[key] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	runs := map[string][]Config{"pack": Pack(300, 1), "quick": Quick(2000, 1)}
	seen := 0
	for _, set := range []string{"pack", "quick"} {
		for _, cfg := range runs[set] {
			key := set + "/" + cfg.Name
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sum := sha256.Sum256(res.Trace)
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: trace sha256 %s, want %q", key, got, want[key])
			}
			seen++
		}
	}
	if len(want) != seen {
		t.Errorf("testdata/trace_digests.txt has %d lines, the runs %d", len(want), seen)
	}
}
