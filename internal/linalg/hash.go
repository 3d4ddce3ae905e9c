package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// coordHashChunk is CoordHash's buffer size: 1365 coordinates of 24
// bytes, just under 32 KiB — large enough that SHA-256, not the
// per-call overhead of feeding it, bounds the throughput.
const coordHashChunk = 1365 * 24

// CoordHash is the SHA-256 content address of coordinate data: int64
// header words and the float64 bits of every coordinate, all encoded
// little-endian so the digest is the same on every host. Bytes are
// staged in a fixed buffer and hashed a chunk at a time; the chunking
// never changes the bytes hashed, so a digest does not depend on how
// the data was split across writes (a streamed trajectory fed frame by
// frame digests like the same trajectory fed whole). It is the one
// encoding behind traj.Ref.Digest and leaflet.CoordsDigest.
type CoordHash struct {
	h   hash.Hash
	buf []byte
	n   int
}

// NewCoordHash returns an empty coordinate hash.
func NewCoordHash() *CoordHash {
	return &CoordHash{h: sha256.New(), buf: make([]byte, coordHashChunk)}
}

// WriteInt appends one int64 header word.
func (c *CoordHash) WriteInt(v int64) {
	if c.n+8 > len(c.buf) {
		c.flush()
	}
	binary.LittleEndian.PutUint64(c.buf[c.n:], uint64(v))
	c.n += 8
}

// WriteCoords appends the x, y, z float64 bits of every coordinate.
func (c *CoordHash) WriteCoords(ps []Vec3) {
	for len(ps) > 0 {
		room := (len(c.buf) - c.n) / 24
		if room == 0 {
			c.flush()
			continue
		}
		k := min(room, len(ps))
		b := c.buf[c.n : c.n+24*k]
		for i, p := range ps[:k] {
			o := b[24*i : 24*i+24]
			binary.LittleEndian.PutUint64(o[0:], math.Float64bits(p[0]))
			binary.LittleEndian.PutUint64(o[8:], math.Float64bits(p[1]))
			binary.LittleEndian.PutUint64(o[16:], math.Float64bits(p[2]))
		}
		c.n += 24 * k
		ps = ps[k:]
	}
}

func (c *CoordHash) flush() {
	c.h.Write(c.buf[:c.n])
	c.n = 0
}

// Hex returns the hex digest of everything written so far.
func (c *CoordHash) Hex() string {
	c.flush()
	return hex.EncodeToString(c.h.Sum(nil))
}
