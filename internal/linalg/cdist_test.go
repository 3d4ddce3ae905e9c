package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestCdist(t *testing.T) {
	a := []Vec3{{0, 0, 0}, {1, 0, 0}}
	b := []Vec3{{0, 0, 0}, {0, 3, 4}, {1, 0, 0}}
	got := make([]float64, len(a)*len(b))
	CdistInto(got, a, b)
	want := []float64{0, 5, 1, 1, math.Sqrt(1 + 25), 0}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Cdist[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCdistIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CdistInto did not panic on wrong length")
		}
	}()
	CdistInto(make([]float64, 3), make([]Vec3, 2), make([]Vec3, 2))
}

func TestCdistBytes(t *testing.T) {
	if got := CdistBytes(1000, 2000); got != 16_000_000 {
		t.Errorf("CdistBytes = %d", got)
	}
}

func TestPairsWithinMatchesCdist(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	a := randFrame(r, 40)
	b := randFrame(r, 30)
	const cutoff = 1.5
	pairs := PairsWithin(a, b, cutoff)
	seen := make(map[[2]int32]bool)
	for _, p := range pairs {
		seen[p] = true
	}
	d := make([]float64, len(a)*len(b))
	CdistInto(d, a, b)
	for i := range a {
		for j := range b {
			within := d[i*len(b)+j] <= cutoff
			if within != seen[[2]int32{int32(i), int32(j)}] {
				t.Fatalf("pair (%d,%d): within=%v but listed=%v", i, j, within, !within)
			}
		}
	}
}

func TestPairsWithinSelf(t *testing.T) {
	pts := []Vec3{{0, 0, 0}, {1, 0, 0}, {10, 0, 0}, {1.5, 0, 0}}
	pairs := PairsWithinSelf(pts, 1.0)
	want := map[[2]int32]bool{{0, 1}: true, {1, 3}: true}
	if len(pairs) != len(want) {
		t.Fatalf("got %d pairs %v, want %d", len(pairs), pairs, len(want))
	}
	for _, p := range pairs {
		if !want[p] {
			t.Errorf("unexpected pair %v", p)
		}
		if p[0] >= p[1] {
			t.Errorf("pair %v not ordered i<j", p)
		}
	}
}

func TestPairsWithinSelfMatchesCross(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	pts := randFrame(r, 50)
	const cutoff = 1.2
	self := PairsWithinSelf(pts, cutoff)
	cross := PairsWithin(pts, pts, cutoff)
	// The cross version includes (i,i) and both orders; filter to i<j.
	var filtered [][2]int32
	for _, p := range cross {
		if p[0] < p[1] {
			filtered = append(filtered, p)
		}
	}
	if len(self) != len(filtered) {
		t.Fatalf("self %d pairs vs cross-filtered %d", len(self), len(filtered))
	}
	for i := range self {
		if self[i] != filtered[i] {
			t.Fatalf("pair %d: %v vs %v", i, self[i], filtered[i])
		}
	}
}

func TestMinDistPointSet(t *testing.T) {
	set := []Vec3{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}}
	if got := MinDistPointSet(Vec3{0, 0, 0}, set); got != 1 {
		t.Errorf("MinDistPointSet = %v, want 1", got)
	}
	if got := MinDistPointSet(Vec3{}, nil); !math.IsInf(got, 1) {
		t.Errorf("MinDistPointSet(empty) = %v, want +Inf", got)
	}
}
