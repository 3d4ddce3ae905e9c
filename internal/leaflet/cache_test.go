package leaflet

import (
	"testing"

	"mdtask/internal/linalg"
)

// Leaflet tile keys embed CoordsDigest; a drift in its encoding would
// silently orphan every stored tile. This pins the exact bytes hashed
// for a fixed coordinate set that spans more than one hashing chunk.
func TestCoordsDigestGolden(t *testing.T) {
	const want = "dbb1c2e463fd4297f95153db39417b06680ab3b24ac7c06b38f5e67e0414a4a2"
	coords := make([]linalg.Vec3, 1500)
	for i := range coords {
		for k := 0; k < 3; k++ {
			coords[i][k] = float64(i*3+k)*0.25 - 100
		}
	}
	coords[1] = linalg.Vec3{5e-324, -1e300, 0.1}
	if got := CoordsDigest(coords); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
	if got := CoordsDigest(nil); got != "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc" {
		t.Errorf("empty digest %s", got)
	}
}
