package bench

import (
	"testing"

	"mdtask/internal/dask"
	"mdtask/internal/hausdorff"
	"mdtask/internal/psa"
	"mdtask/internal/rdd"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// The BenchmarkPSAFull / BenchmarkPSASymmetric family proves the
// symmetry-aware scheduler's ~2× kernel-work reduction: at equal
// parallelism the symmetric schedule evaluates N(N−1)/2 Hausdorff pairs
// instead of N², reported per op as hausdorff-pairs alongside the wall
// time. Run with:
//
//	go test -bench PSA ./internal/bench
const (
	benchPSATrajs  = 16
	benchPSAGroup  = 4
	benchPSACores  = 4
	benchPSAAtoms  = 96
	benchPSAFrames = 16
)

func benchPSAEnsemble() traj.Ensemble {
	return synth.Ensemble(synth.EnsemblePreset{
		Name: "bench", NAtoms: benchPSAAtoms, NFrames: benchPSAFrames,
	}, benchPSATrajs, 41)
}

// benchPSA times one engine under one schedule, reporting the exact
// number of Hausdorff kernel invocations the schedule performs.
func benchPSA(b *testing.B, sym bool, run func(traj.Ensemble, psa.Opts) (*psa.Matrix, error)) {
	b.Helper()
	ens := benchPSAEnsemble()
	opts := psa.Opts{Symmetric: sym, Method: hausdorff.Naive}
	blocks, err := psa.Partition(len(ens), benchPSAGroup, sym)
	if err != nil {
		b.Fatal(err)
	}
	pairs := 0
	for _, blk := range blocks {
		pairs += blk.TaskPairs(sym)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(ens, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pairs), "hausdorff-pairs")
	b.ReportMetric(float64(len(blocks)), "tasks")
}

func benchPSAEngines(b *testing.B, sym bool) {
	b.Helper()
	b.Run("serial", func(b *testing.B) {
		benchPSA(b, sym, func(ens traj.Ensemble, opts psa.Opts) (*psa.Matrix, error) {
			return psa.Serial(ens, opts)
		})
	})
	b.Run("rdd", func(b *testing.B) {
		benchPSA(b, sym, func(ens traj.Ensemble, opts psa.Opts) (*psa.Matrix, error) {
			return psa.RunRDDRefs(rdd.NewContext(benchPSACores), traj.RefsOf(ens), benchPSAGroup, opts)
		})
	})
	b.Run("dask", func(b *testing.B) {
		benchPSA(b, sym, func(ens traj.Ensemble, opts psa.Opts) (*psa.Matrix, error) {
			return psa.RunDaskRefs(dask.NewClient(benchPSACores), traj.RefsOf(ens), benchPSAGroup, opts)
		})
	})
	b.Run("mpi", func(b *testing.B) {
		benchPSA(b, sym, func(ens traj.Ensemble, opts psa.Opts) (*psa.Matrix, error) {
			return psa.RunMPIRefs(benchPSACores, traj.RefsOf(ens), benchPSAGroup, opts)
		})
	})
}

// BenchmarkPSAFull is the paper-faithful Algorithm 2 schedule: all N²
// pairs, mirror halves and zero diagonal included.
func BenchmarkPSAFull(b *testing.B) { benchPSAEngines(b, false) }

// BenchmarkPSASymmetric is the symmetry-aware schedule: diagonal and
// upper-triangle blocks only, lower triangle mirrored at assembly.
func BenchmarkPSASymmetric(b *testing.B) { benchPSAEngines(b, true) }

// TestPSASchedulesAgreeInBench pins the benchmark configuration itself:
// both schedules must produce the identical matrix, and the symmetric
// schedule must do at most half the kernel invocations.
func TestPSASchedulesAgreeInBench(t *testing.T) {
	ens := benchPSAEnsemble()
	full, err := psa.Serial(ens, psa.Opts{Method: hausdorff.Naive})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := psa.RunRDDRefs(rdd.NewContext(benchPSACores), traj.RefsOf(ens), benchPSAGroup,
		psa.Opts{Symmetric: true, Method: hausdorff.Naive})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Data {
		if full.Data[i] != sym.Data[i] {
			t.Fatalf("element %d: full %v != symmetric %v", i, full.Data[i], sym.Data[i])
		}
	}
	count := func(symmetric bool) int {
		blocks, err := psa.Partition(len(ens), benchPSAGroup, symmetric)
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for _, blk := range blocks {
			pairs += blk.TaskPairs(symmetric)
		}
		return pairs
	}
	fullPairs, symPairs := count(false), count(true)
	if 2*symPairs > fullPairs {
		t.Fatalf("symmetric schedule does %d of %d kernel invocations, want <= half",
			symPairs, fullPairs)
	}
}
