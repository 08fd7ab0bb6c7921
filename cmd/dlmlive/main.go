// Command dlmlive runs the goroutine-per-peer DLM runtime and prints the
// layer statistics as they evolve in real time.
//
//	dlmlive -peers 300 -eta 10 -seconds 10
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"dlm/internal/live"
	"dlm/internal/msg"
)

func main() {
	var (
		peers   = flag.Int("peers", 200, "number of peer goroutines")
		eta     = flag.Float64("eta", 10, "target layer size ratio")
		seconds = flag.Int("seconds", 8, "observation time")
		unit    = flag.Duration("unit", 5*time.Millisecond, "real-time length of one protocol time unit")
		churn   = flag.Bool("churn", false, "randomly replace peers while running")
		seed    = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	n := live.NewNet(live.Config{Eta: *eta, Unit: *unit, Seed: *seed})
	defer n.Stop()

	rng := rand.New(rand.NewSource(*seed))
	population := make([]*live.Peer, 0, *peers)
	for i := 0; i < *peers; i++ {
		population = append(population, n.Join(5+rng.ExpFloat64()*50, nil))
	}

	stopChurn, churnDone := make(chan struct{}), make(chan struct{})
	if *churn {
		go func() {
			defer close(churnDone)
			t := time.NewTicker(*unit * 4)
			defer t.Stop()
			for {
				select {
				case <-stopChurn:
					return
				case <-t.C:
					i := rng.Intn(len(population))
					n.Leave(population[i])
					population[i] = n.Join(5+rng.ExpFloat64()*50, nil)
				}
			}
		}()
	}

	fmt.Printf("%d goroutine peers, η=%.0f, 1 unit = %v, churn=%v\n",
		*peers, *eta, *unit, *churn)
	fmt.Printf("%8s %8s %8s %8s %10s %10s\n", "t(s)", "supers", "leaves", "ratio", "capS", "capL")
	start := time.Now()
	for time.Since(start) < time.Duration(*seconds)*time.Second {
		time.Sleep(500 * time.Millisecond)
		s := n.Snapshot()
		fmt.Printf("%8.1f %8d %8d %8.1f %10.1f %10.1f\n",
			time.Since(start).Seconds(), s.NumSupers, s.NumLeaves, s.Ratio,
			s.AvgCapSuper, s.AvgCapLeaf)
	}
	if *churn {
		close(stopChurn)
		<-churnDone // no churn step may race the deferred Stop
	}

	fmt.Println("\nmessage plane:")
	for k := msg.Kind(1); int(k) < msg.NumKinds; k++ {
		c, d := n.Messages(k), n.DroppedByKind(k)
		if c == 0 && d == 0 {
			continue
		}
		fmt.Printf("  %-20s %d", k, c)
		if d > 0 {
			fmt.Printf(" (dropped %d)", d)
		}
		fmt.Println()
	}
	fmt.Printf("  dropped: %d\n", n.Dropped())
	fmt.Printf("  decode failures: %d\n", n.DecodeErrors())
}
