package traj

import (
	"math"
	"testing"

	"mdtask/internal/linalg"
)

// goldenTrajectory is a fixed trajectory whose coordinates cover signed
// zero, subnormal and large magnitudes, and whose 2 × 700 coordinates
// span more than one hashing chunk.
func goldenTrajectory() *Trajectory {
	const nAtoms, nFrames = 700, 2
	t := New("golden", nAtoms)
	for f := 0; f < nFrames; f++ {
		coords := make([]linalg.Vec3, nAtoms)
		for i := range coords {
			for k := 0; k < 3; k++ {
				coords[i][k] = float64((f*nAtoms+i)*3+k)*0.125 - 300
			}
		}
		coords[0] = linalg.Vec3{math.Copysign(0, -1), 5e-324, 1e300}
		t.Frames = append(t.Frames, Frame{Time: float64(f), Coords: coords})
	}
	return t
}

// The per-trajectory digest keys every PSA block in the content-
// addressed store; a drift in its encoding would silently orphan every
// stored block. This pins the exact bytes hashed.
func TestDigestGolden(t *testing.T) {
	const want = "a994a20402c8485db0638ebe69e681b4e25af5ce9afdd24b58a2692f15069b66"
	got, err := MemRef(goldenTrajectory()).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
