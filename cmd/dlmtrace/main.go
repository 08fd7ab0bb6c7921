// Command dlmtrace summarizes a JSONL lifecycle trace produced by
// dlmsim -trace (or any trace.Recorder).
//
//	dlmsim -n 1000 -trace run.jsonl && dlmtrace run.jsonl
//	dlmtrace - < run.jsonl
//
// A trace with no events is an error: every run records at least its
// joins, so an empty one means the run that should have written it failed.
package main

import (
	"fmt"
	"io"
	"os"

	"dlm/internal/trace"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: dlmtrace <trace.jsonl | ->")
		os.Exit(2)
	}
	var rd io.Reader
	if os.Args[1] == "-" {
		rd = os.Stdin
	} else {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rd = f
	}
	events, err := trace.Read(rd)
	if err != nil {
		fatal(err)
	}
	if len(events) == 0 {
		fatal(fmt.Errorf("%s: no trace events", os.Args[1]))
	}
	s := trace.Summarize(events)
	fmt.Printf("events:      %d\n", len(events))
	fmt.Printf("joins:       %d\n", s.Joins)
	fmt.Printf("leaves:      %d  (super %d, leaf %d)\n", s.Leaves, s.SuperLeaves, s.LeafLeaves)
	fmt.Printf("promotions:  %d\n", s.Promotions)
	fmt.Printf("demotions:   %d\n", s.Demotions)
	fmt.Printf("flapping peers (>2 role changes): %d\n", s.FlapCount)
	fmt.Printf("mean session at leave: super %.1f units, leaf %.1f units\n",
		s.MeanSuperAgeAtLeave, s.MeanLeafAgeAtLeave)
	if s.LeafLeaves > 0 && s.MeanLeafAgeAtLeave > 0 {
		fmt.Printf("super/leaf session ratio: %.2fx\n", s.MeanSuperAgeAtLeave/s.MeanLeafAgeAtLeave)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlmtrace:", err)
	os.Exit(1)
}
