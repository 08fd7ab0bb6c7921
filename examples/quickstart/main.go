// Quickstart: run a DLM-managed super-peer network at laptop scale and
// print what the algorithm achieved — the maintained layer ratio and the
// capacity/age separation between the layers.
package main

import (
	"fmt"
	"log"

	"dlm/internal/config"
	"dlm/internal/experiments"
)

func main() {
	// A Table 2-shaped scenario scaled to 2,000 peers.
	sc := config.Scaled(2000)
	sc.Seed = 7

	res, err := experiments.Run(experiments.RunConfig{
		Scenario: sc,
		Manager:  experiments.ManagerDLM,
	})
	if err != nil {
		log.Fatal(err)
	}

	f := res.Final
	fmt.Println("=== DLM quickstart ===")
	fmt.Printf("population:   %d peers (%d supers + %d leaves)\n",
		f.NumSupers+f.NumLeaves, f.NumSupers, f.NumLeaves)
	fmt.Printf("layer ratio:  %.1f (protocol target η = %.0f)\n", f.Ratio, sc.Eta)
	fmt.Printf("avg capacity: super-layer %.0f KB/s vs leaf-layer %.0f KB/s (%.1fx)\n",
		f.AvgCapSuper, f.AvgCapLeaf, f.AvgCapSuper/f.AvgCapLeaf)
	fmt.Printf("avg age:      super-layer %.0f min vs leaf-layer %.0f min (%.1fx)\n",
		f.AvgAgeSuper, f.AvgAgeLeaf, f.AvgAgeSuper/f.AvgAgeLeaf)

	c := res.WindowCounters
	fmt.Printf("steady-state churn: %d joins, %d promotions, %d demotions\n",
		c.Joins, c.Promotions, c.Demotions)
	fmt.Printf("peer adjustment overhead: %.2f%% of new-connection cost\n", c.PAOOverNLCO())
}
