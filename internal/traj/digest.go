package traj

import (
	"io"

	"mdtask/internal/linalg"
)

// Digest returns the hex SHA-256 of the trajectory's content — shape
// plus every coordinate's float64 bits — computed lazily and cached on
// the ref. Memory-backed and stream-backed refs over the same data
// digest identically: a stream-backed ref hashes frame by frame with
// one frame resident at a time, so digesting never materializes the
// trajectory. The digest is the content-addressing unit of the block
// cache: PSA block keys are built from the digests of the trajectories
// a block reads, so identical trajectories hit cached blocks whatever
// job, engine, or matrix position they appear in.
func (r *Ref) Digest() (string, error) {
	r.digestOnce.Do(func() {
		r.digest, r.digestErr = r.computeDigest()
	})
	return r.digest, r.digestErr
}

func (r *Ref) computeDigest() (string, error) {
	h := linalg.NewCoordHash()
	h.WriteInt(int64(r.nAtoms))
	h.WriteInt(int64(r.nFrames))
	src, err := r.Open()
	if err != nil {
		return "", err
	}
	defer src.Close()
	for {
		f, err := src.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		h.WriteCoords(f.Coords)
	}
	return h.Hex(), nil
}

// Digests resolves the content digest of every member, in order.
func (e RefEnsemble) Digests() ([]string, error) {
	out := make([]string, len(e))
	for i, r := range e {
		d, err := r.Digest()
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}
