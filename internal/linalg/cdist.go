package linalg

import "math"

// CdistInto computes the all-pairs Euclidean distance matrix between
// point sets a and b into dst, equivalent to SciPy's
// scipy.spatial.distance.cdist. dst is row-major: element i*len(b)+j is
// the distance between a[i] and b[j]. It must have length
// len(a)*len(b); CdistInto panics otherwise. The full matrix is
// materialized, mirroring the memory footprint that limits the paper's
// cdist-based Leaflet Finder approaches (§4.3).
func CdistInto(dst []float64, a, b []Vec3) {
	if len(dst) != len(a)*len(b) {
		panic("linalg: CdistInto destination has wrong length")
	}
	for i, p := range a {
		row := dst[i*len(b) : (i+1)*len(b)]
		for j, q := range b {
			row[j] = Dist(p, q)
		}
	}
}

// CdistBytes returns the number of bytes a CdistInto destination over
// point sets of the given sizes holds.
func CdistBytes(na, nb int) int64 {
	return int64(na) * int64(nb) * 8
}

// PairsWithin scans all pairs (i, j) with a[i] within cutoff of b[j] and
// returns them as index pairs. This is the brute-force O(n*m) edge
// discovery used by Leaflet Finder approaches 1-3.
func PairsWithin(a, b []Vec3, cutoff float64) [][2]int32 {
	c2 := cutoff * cutoff
	var out [][2]int32
	for i, p := range a {
		for j, q := range b {
			if Dist2(p, q) <= c2 {
				out = append(out, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return out
}

// PairsWithinSelf returns all unordered pairs (i, j), i < j, of points
// within cutoff of each other in a single point set.
func PairsWithinSelf(pts []Vec3, cutoff float64) [][2]int32 {
	c2 := cutoff * cutoff
	var out [][2]int32
	for i := 0; i < len(pts); i++ {
		p := pts[i]
		for j := i + 1; j < len(pts); j++ {
			if Dist2(p, pts[j]) <= c2 {
				out = append(out, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return out
}

// MinDistPointSet returns the minimum distance from point p to any point
// in set, and math.Inf(1) for an empty set.
func MinDistPointSet(p Vec3, set []Vec3) float64 {
	best := math.Inf(1)
	for _, q := range set {
		if d := Dist2(p, q); d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}
