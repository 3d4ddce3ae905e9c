// Membrane example: identify the leaflets of a synthetic lipid bilayer
// with all four architectural approaches of the paper's Leaflet Finder
// (§4.3, Table 2) on the Spark-like engine, comparing their measured
// data-movement profiles. Exits non-zero if an approach misses the
// generator's ground-truth leaflets.
//
// Run with: go run ./examples/membrane
package main

import (
	"fmt"
	"log"
	"time"

	"mdtask/internal/jobs"
	"mdtask/internal/synth"
)

const (
	nAtoms = 65536
	seed   = 2024
)

func main() {
	spec, in, err := jobs.Resolve(jobs.Spec{
		Analysis: jobs.AnalysisLeaflet,
		Engine:   jobs.EngineSpark,
		Tasks:    256,
		Synth:    &jobs.SynthSpec{Atoms: nAtoms, Seed: seed},
	})
	if err != nil {
		log.Fatal(err)
	}
	// The generator is a pure function of (atoms, seed), so the same
	// call yields the ground truth of the job's input.
	lo, hi := synth.Bilayer(nAtoms, seed).CountLeaflets()
	fmt.Printf("membrane: %d atoms (ground truth leaflets %d / %d), cutoff %.1f Å\n\n",
		len(in.Coords), lo, hi, spec.Cutoff)

	reg := jobs.DefaultRegistry()
	fmt.Printf("%-32s %8s %10s %12s %12s %9s\n",
		"approach", "tasks", "edges", "broadcast", "shuffle", "elapsed")
	for _, name := range []string{"broadcast", "task2d", "parallel-cc", "tree"} {
		approach, _, err := jobs.ParseApproach(name)
		if err != nil {
			log.Fatal(err)
		}
		s := spec
		s.Approach = name
		start := time.Now()
		out, _, err := jobs.Run(reg, s, in)
		if err != nil {
			log.Fatalf("%v: %v", approach, err)
		}
		elapsed := time.Since(start)
		res := out.Leaflet
		// Components come largest first.
		if len(res.Components) != 2 || len(res.Components[0]) != max(lo, hi) || len(res.Components[1]) != min(lo, hi) {
			log.Fatalf("%v: found %d components, want leaflets of %d and %d atoms",
				approach, len(res.Components), lo, hi)
		}
		fmt.Printf("%-32s %8d %10d %12d %12d %9s\n",
			approach, res.Stats.Tasks, res.Stats.Edges,
			res.Stats.BroadcastBytes, res.Stats.ShuffleBytes,
			elapsed.Round(time.Millisecond))
	}
	fmt.Println("\nnote the shuffle-volume drop from the edge-list approaches (1-2)")
	fmt.Println("to the partial-component approaches (3-4) — the paper's Table 2.")
}
