// Quickstart: describe a Path Similarity Analysis job as a jobs.Spec
// over a generated ensemble, run it on the Dask-like engine through the
// jobs registry, and print the Hausdorff distance matrix.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mdtask/internal/bench"
	"mdtask/internal/jobs"
)

func main() {
	// Six random-walk trajectories of 200 atoms over 40 frames.
	spec, in, err := jobs.Resolve(jobs.Spec{
		Analysis:    jobs.AnalysisPSA,
		Engine:      jobs.EngineDask,
		Parallelism: 4,
		Method:      "early-break",
		Synth:       &jobs.SynthSpec{Count: 6, Atoms: 200, Frames: 40, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := jobs.Run(jobs.DefaultRegistry(), spec, in)
	if err != nil {
		log.Fatal(err)
	}

	m := res.Matrix
	fmt.Println("PSA Hausdorff distance matrix (Å):")
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			fmt.Printf("%7.2f", m.At(i, j))
		}
		fmt.Println()
	}

	// The decision framework (paper Table 3) picks an engine for a
	// throughput-bound, shuffle-free workload like this one.
	recs, err := bench.Recommend(bench.Throughput, bench.ManyTasks, bench.PythonNative)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecommended engine for this workload: %s\n", bench.FrameworkLabels[recs[0].Engine])
}
