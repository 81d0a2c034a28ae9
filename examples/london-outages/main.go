// The London case study of Section 6.2 (Figure 9): two colocation
// facilities in one city fail on consecutive days, with an AS-level
// de-peering between them acting as a decoy. The example demonstrates
// Kepler's headline capability — telling apart incidents that look alike at
// city aggregation — and the remote reach of a local outage (Figure 9c).
//
//	go run ./examples/london-outages
package main

import (
	"fmt"
	"log"
	"time"

	"kepler/internal/core"
	"kepler/internal/experiments"
)

func main() {
	cs, err := experiments.LondonCase()
	if err != nil {
		log.Fatal(err)
	}
	city, _ := cs.Stack.Geo.City(cs.City)
	fmt.Printf("case study city: %s\n", city.Name)
	for _, e := range cs.Events {
		label := map[int]string{0: "A (facility outage)", 1: "B (AS de-peering decoy)", 2: "C (facility outage)"}[e.ID]
		fmt.Printf("  event %-24s %s\n", label, e.Start.Format("01-02 15:04"))
	}
	fmt.Println()

	fmt.Println(experiments.Figure9a(cs).Render())
	fmt.Println(experiments.Figure9b(cs).Render())
	fmt.Println(experiments.Figure9c(cs).Render())

	// Run the detector over the case archive and show that A and C are
	// localized to buildings while B stays an AS-level incident.
	dp := cs.Stack.NewSimDataPlane(cs.Res)
	outages, incidents := cs.Stack.Run(cs.Res.Records, core.DefaultConfig(), dp)
	fmt.Println("detected outages:")
	for _, o := range outages {
		fmt.Printf("  %v %q %s -> %s (%s)\n", o.PoP, cs.Stack.World.PoPName(o.PoP),
			o.Start.Format("01-02 15:04"), o.End.Format("15:04"), o.Duration().Round(time.Minute))
	}
	asLevel := 0
	for _, inc := range incidents {
		if inc.Kind == core.IncidentAS {
			asLevel++
		}
	}
	fmt.Printf("AS-level incidents (the decoy and its echoes): %d\n", asLevel)
}
