package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"
)

// referenceCoordHash is the CoordHash encoding written out byte by byte.
func referenceCoordHash(header []int64, ps []Vec3) string {
	var b []byte
	for _, v := range header {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, p := range ps {
		for k := 0; k < 3; k++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p[k]))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// The digest must equal the plain encoding's whatever the input size
// relative to the chunk and however the coordinates are split across
// WriteCoords calls.
func TestCoordHashMatchesEncoding(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	perChunk := coordHashChunk / 24
	for _, n := range []int{0, 1, perChunk - 1, perChunk, perChunk + 1, 3*perChunk + 7} {
		ps := make([]Vec3, n)
		for i := range ps {
			ps[i] = Vec3{r.NormFloat64(), r.NormFloat64() * 1e6, -r.Float64()}
		}
		header := []int64{int64(n), 12}
		want := referenceCoordHash(header, ps)

		whole := NewCoordHash()
		for _, v := range header {
			whole.WriteInt(v)
		}
		whole.WriteCoords(ps)
		if got := whole.Hex(); got != want {
			t.Errorf("n=%d whole: %s, want %s", n, got, want)
		}

		split := NewCoordHash()
		for _, v := range header {
			split.WriteInt(v)
		}
		for rest := ps; len(rest) > 0; {
			k := 1 + r.IntN(2*perChunk)
			k = min(k, len(rest))
			split.WriteCoords(rest[:k])
			rest = rest[k:]
		}
		if got := split.Hex(); got != want {
			t.Errorf("n=%d split: %s, want %s", n, got, want)
		}
	}
}

func BenchmarkCoordHash(b *testing.B) {
	ps := make([]Vec3, 3341*12)
	for i := range ps {
		ps[i] = Vec3{float64(i), float64(i) * 0.5, -float64(i)}
	}
	b.SetBytes(int64(len(ps)) * 24)
	for i := 0; i < b.N; i++ {
		h := NewCoordHash()
		h.WriteCoords(ps)
		h.Hex()
	}
}
