package experiments

import (
	"strings"
	"testing"

	"dlm/internal/config"
)

// TestRunShardInvariance checks the determinism contract at the artifact
// level: a full Run — churn, DLM decisions, sampled series, window
// counters, traffic — rendered to CSV bytes must be identical for every
// RunConfig.Shards value, so the results/*.csv goldens (regenerated
// serially) also pin every sharded run.
func TestRunShardInvariance(t *testing.T) {
	sc := config.Scaled(400)
	sc.Duration = 80
	sc.Warmup = 20
	sc.SampleEvery = 2

	render := func(shards int) (string, *RunResult) {
		t.Helper()
		res, err := Run(RunConfig{Scenario: sc, Manager: ManagerDLM, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var b strings.Builder
		if err := res.Series.WriteCSV(&b); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return b.String(), res
	}

	base, baseRes := render(1)
	for _, k := range []int{2, 4, 7} {
		got, res := render(k)
		if got != base {
			t.Errorf("series CSV with shards=%d differs from serial", k)
		}
		if res.Final != baseRes.Final {
			t.Errorf("final snapshot with shards=%d differs:\n%+v\n%+v", k, res.Final, baseRes.Final)
		}
		if res.WindowCounters != baseRes.WindowCounters {
			t.Errorf("window counters with shards=%d differ:\n%+v\n%+v", k, res.WindowCounters, baseRes.WindowCounters)
		}
		if res.Traffic != baseRes.Traffic {
			t.Errorf("traffic tally with shards=%d differs", k)
		}
	}
}
