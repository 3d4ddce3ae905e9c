// PSA ensemble example: run the same Path Similarity Analysis on all
// four task-parallel engines (§4.2 of the paper), verify they agree
// bit for bit, and compare wall-clock times — the embarrassing-parallel
// case where the paper finds framework choice matters little. Exits
// non-zero if any engine or schedule disagrees.
//
// Run with: go run ./examples/psaensemble
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mdtask/internal/bench"
	"mdtask/internal/jobs"
)

// engines are the paper's four frameworks, in its comparison order.
var engines = []string{jobs.EngineMPI, jobs.EngineSpark, jobs.EngineDask, jobs.EnginePilot}

func main() {
	spec, in, err := jobs.Resolve(jobs.Spec{
		Analysis:    jobs.AnalysisPSA,
		Parallelism: 4,
		Tasks:       16,
		Method:      "early-break",
		Synth:       &jobs.SynthSpec{Count: 8, Atoms: 400, Frames: 30, Seed: 11},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ensemble: %d trajectories x %d atoms x %d frames\n\n",
		len(in.Ens), in.Ens[0].NAtoms, in.Ens[0].NFrames())

	reg := jobs.DefaultRegistry()
	var reference []float64
	disagree := false
	fmt.Printf("%-14s %-10s %10s %8s\n", "engine", "schedule", "elapsed", "agrees")
	for _, eng := range engines {
		for _, full := range []bool{true, false} {
			schedule := "symmetric"
			if full {
				schedule = "full"
			}
			s := spec
			s.Engine, s.FullMatrix = eng, full
			start := time.Now()
			res, _, err := jobs.Run(reg, s, in)
			if err != nil {
				log.Fatalf("%s: %v", eng, err)
			}
			elapsed := time.Since(start)
			agrees := "ref"
			if reference == nil {
				reference = res.Matrix.Data
			} else {
				agrees = "yes"
				for i := range reference {
					if math.Float64bits(reference[i]) != math.Float64bits(res.Matrix.Data[i]) {
						agrees, disagree = "NO", true
						break
					}
				}
			}
			fmt.Printf("%-14s %-10s %10s %8s\n", bench.FrameworkLabels[eng], schedule,
				elapsed.Round(time.Millisecond), agrees)
		}
	}
	if disagree {
		log.Fatal("engines disagree: the matrices must be bit-identical")
	}
	fmt.Println("\nall engines and both schedules compute the bit-identical distance")
	fmt.Println("matrix; the symmetric schedule does it with ~half the Hausdorff")
	fmt.Println("kernel invocations (H(A,B)=H(B,A)), and for this embarrassingly")
	fmt.Println("parallel analysis the paper finds programmability, not engine")
	fmt.Println("choice, is the deciding factor (§4.2).")
}
