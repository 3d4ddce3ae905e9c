package cpptraj

import (
	"math"
	mathrand "math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mdtask/internal/hausdorff"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func TestBlockedMatchesNaiveQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(1 + r.Intn(15))
			args[2] = reflect.ValueOf(1 + r.Intn(40))
		},
	}
	f := func(seed uint64, atoms, frames int) bool {
		a := synth.Walk("a", atoms, frames, seed, 0)
		b := synth.Walk("b", atoms, frames, seed, 1)
		naive, err1 := Matrix2DRMS(a, b, Naive)
		blocked, err2 := Matrix2DRMS(a, b, Blocked)
		if err1 != nil || err2 != nil || len(naive) != len(blocked) {
			return false
		}
		for i := range naive {
			if math.Abs(naive[i]-blocked[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMatrixRejectsMismatchedAtoms(t *testing.T) {
	a := synth.Walk("a", 5, 3, 1, 0)
	b := synth.Walk("b", 6, 3, 1, 1)
	if _, err := Matrix2DRMS(a, b, Naive); err == nil {
		t.Fatal("mismatched atom counts accepted")
	}
	if _, err := Matrix2DRMS(a, a, Kernel(9)); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestKernelStrings(t *testing.T) {
	if Naive.String() != "GNU" {
		t.Errorf("Naive = %q", Naive.String())
	}
	if Blocked.String() == "unknown" || Kernel(7).String() != "unknown" {
		t.Error("kernel names wrong")
	}
}

func TestRunEnsembleMatchesHausdorff(t *testing.T) {
	ens := traj.Ensemble{
		synth.Walk("t0", 8, 6, 3, 0),
		synth.Walk("t1", 8, 6, 3, 1),
		synth.Walk("t2", 8, 6, 3, 2),
	}
	for _, k := range []Kernel{Naive, Blocked} {
		got, err := RunEnsemble(ens, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := len(ens)
		// The blocked kernel's norm decomposition loses ~half the
		// mantissa near zero (catastrophic cancellation), so compare at
		// 1e-5 absolute.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := hausdorff.Distance(ens[i], ens[j], hausdorff.Naive)
				if math.Abs(got[i*n+j]-want) > 1e-5 {
					t.Fatalf("kernel %v: D[%d][%d] = %v, want %v", k, i, j, got[i*n+j], want)
				}
			}
		}
	}
}

func TestRunEnsembleValidates(t *testing.T) {
	bad := traj.Ensemble{nil}
	if _, err := RunEnsemble(bad, Naive, 2); err == nil {
		t.Fatal("nil ensemble member accepted")
	}
}

func TestRunEnsembleMoreRanksThanPairs(t *testing.T) {
	ens := traj.Ensemble{synth.Walk("t0", 4, 3, 5, 0)}
	got, err := RunEnsemble(ens, Blocked, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("self distance = %v", got[0])
	}
}

func TestEmptyTrajectories(t *testing.T) {
	a := traj.New("a", 3)
	b := traj.New("b", 3)
	m, err := Matrix2DRMS(a, b, Blocked)
	if err != nil || len(m) != 0 {
		t.Errorf("empty matrix = %v, %v", m, err)
	}
}

// BenchmarkMatrix2DRMS times both kernels on the calibration pair:
// 20 frames of the small preset's 3341 atoms.
func BenchmarkMatrix2DRMS(b *testing.B) {
	t1 := synth.Walk("a", synth.Small.NAtoms, 20, 1, 0)
	t2 := synth.Walk("b", synth.Small.NAtoms, 20, 1, 1)
	for _, k := range []Kernel{Naive, Blocked} {
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Matrix2DRMS(t1, t2, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
