package main

import (
	"flag"
	"io"
	"path/filepath"
	"testing"

	"dlm"
)

func parse(t *testing.T, args ...string) dlm.Scenario {
	t.Helper()
	fs := flag.NewFlagSet("dlmsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sc, _, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("parseFlags(%v): %v", args, err)
	}
	return sc
}

// TestConfigFileSurvivesFlagDefaults: a scenario loaded with -config keeps
// its seed, query rate and TTL unless the flag is actually given.
func TestConfigFileSurvivesFlagDefaults(t *testing.T) {
	want := parse(t, "-n", "400", "-seed", "9", "-queries", "3", "-ttl", "5")
	if want.N != 400 || want.Seed != 9 || want.QueryRate != 3 || want.TTL != 5 {
		t.Fatalf("flags not applied: %+v", want)
	}
	path := filepath.Join(t.TempDir(), "a.json")
	if err := want.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got := parse(t, "-config", path); got != want {
		t.Fatalf("reloaded scenario:\n got %+v\nwant %+v", got, want)
	}
	// A flag that is given still overrides the file, even at its default.
	want.Seed, want.TTL = 1, 6
	if got := parse(t, "-config", path, "-seed", "1", "-ttl", "6"); got != want {
		t.Fatalf("override:\n got %+v\nwant %+v", got, want)
	}
	if got, def := parse(t), dlm.Scaled(2000); got != def {
		t.Fatalf("no flags:\n got %+v\nwant %+v", got, def)
	}
}
