package main

import (
	"fmt"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/hausdorff"
	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
)

// The replays below rerun one job's kernels single-threaded through
// the packages' public functions, timing each call. They give the
// per-layer unit costs and the serial kernel time engine.efficiency
// compares the engine run against.

// groupSize mirrors how the PSA runners size blocks: one block edge n1
// giving at least Tasks (default: one per worker) blocks.
func groupSize(spec jobs.Spec, n int) int {
	want := spec.Tasks
	if want <= 0 {
		want = spec.Parallelism
	}
	if want <= 0 {
		want = 4
	}
	return psa.DefaultGroupSize(n, want)
}

// psaReplay is the per-job result of replaying PSA inputs.
type psaReplay struct {
	jobs      int
	blocks    int
	blockTime time.Duration // Σ psa.ComputeBlock
	pairTime  time.Duration // Σ hausdorff.DistanceCounted
	counters  hausdorff.Counters
	drmsCalls int
	drmsTime  time.Duration // Σ linalg.DRMS
	atoms     int           // atoms per trajectory
}

// replayPSA replays every input of specs on the calling goroutine.
func replayPSA(specs []jobs.Spec, ins []*jobs.Input) (psaReplay, error) {
	var r psaReplay
	for k, in := range ins {
		spec := specs[k]
		m, err := hausdorff.ParseMethod(spec.Method)
		if err != nil {
			return r, err
		}
		ens := in.Ens
		if m == hausdorff.Pruned || m == hausdorff.Indexed {
			for _, t := range ens { // packed once up front, as the runner does
				t.Packed()
			}
		}
		blocks, err := psa.Partition(len(ens), groupSize(spec, len(ens)), !spec.FullMatrix)
		if err != nil {
			return r, err
		}
		sink := &engine.Metrics{}
		for _, b := range blocks {
			t0 := time.Now()
			psa.ComputeBlock(ens, b, psa.Opts{Symmetric: !spec.FullMatrix, Method: m, Metrics: sink})
			r.blockTime += time.Since(t0)
		}
		r.blocks += len(blocks)
		for i := range ens {
			for j := i + 1; j < len(ens); j++ {
				t0 := time.Now()
				hausdorff.DistanceCounted(ens[i], ens[j], m, &r.counters)
				r.pairTime += time.Since(t0)
			}
		}
		// One DRMS call per frame of the first two trajectories: the
		// per-evaluation cost every full dRMS in the kernels pays.
		a, b := ens[0].Frames, ens[1].Frames
		t0 := time.Now()
		for f := range a {
			linalg.DRMS(a[f].Coords, b[f%len(b)].Coords)
		}
		r.drmsTime += time.Since(t0)
		r.drmsCalls += len(a)
		r.atoms = ens[0].NAtoms
		r.jobs++
	}
	return r, nil
}

// set fills the PSA replay layers.
func (r psaReplay) set(l layers) {
	if r.jobs == 0 {
		return
	}
	l["psa.blocks"] = float64(r.blocks) / float64(r.jobs)
	l["psa.block_ms"] = ms(r.blockTime) / float64(r.blocks)
	if n := r.counters.Total(); n > 0 {
		l["hausdorff.ns_per_pair"] = float64(r.pairTime.Nanoseconds()) / float64(n)
	}
	l["linalg.drms_ns"] = float64(r.drmsTime.Nanoseconds()) / float64(r.drmsCalls)
}

// leafletReplay is the per-job result of replaying Leaflet inputs.
type leafletReplay struct {
	jobs       int
	tiles      int
	edges      int64
	tileTime   time.Duration // Σ leaflet.BlockPartial
	mergeTime  time.Duration // Σ graph.MergeComponents
	serialTime time.Duration // Σ leaflet.Serial
}

// replayLeaflet replays every input of specs on the calling goroutine,
// checking that the merged tile partials label atoms as leaflet.Serial
// does.
func replayLeaflet(specs []jobs.Spec, ins []*jobs.Input) (leafletReplay, error) {
	var r leafletReplay
	for k, in := range ins {
		spec, coords := specs[k], in.Coords
		tiles := leaflet.Blocks(len(coords), spec.Tasks)
		partials := make([][]graph.Component, len(tiles))
		for i, b := range tiles {
			t0 := time.Now()
			var e int64
			partials[i], e = leaflet.BlockPartial(coords, b, spec.Cutoff, spec.Approach == "tree")
			r.tileTime += time.Since(t0)
			r.edges += e
		}
		t0 := time.Now()
		labels := graph.MergeComponents(len(coords), partials...)
		r.mergeTime += time.Since(t0)
		t0 = time.Now()
		ser := leaflet.Serial(coords, spec.Cutoff)
		r.serialTime += time.Since(t0)
		if !graph.EqualLabels(labels, ser.Labels) {
			return r, fmt.Errorf("leaflet replay: merged tiles disagree with leaflet.Serial")
		}
		r.tiles += len(tiles)
		r.jobs++
	}
	return r, nil
}

// set fills the Leaflet replay layers.
func (r leafletReplay) set(l layers) {
	if r.jobs == 0 {
		return
	}
	l["leaflet.tiles"] = float64(r.tiles) / float64(r.jobs)
	l["leaflet.edges"] = float64(r.edges) / float64(r.jobs)
	l["leaflet.tile_ms"] = ms(r.tileTime) / float64(r.tiles)
	l["leaflet.serial_ms"] = ms(r.serialTime) / float64(r.jobs)
	l["graph.merge_ms"] = ms(r.mergeTime) / float64(r.jobs)
}

// kernelPerJob is the serial replay's kernel time per job: Σ
// ComputeBlock for PSA, Σ BlockPartial plus the merge for Leaflet.
func kernelPerJob(p psaReplay, lf leafletReplay) time.Duration {
	switch {
	case p.jobs > 0:
		return p.blockTime / time.Duration(p.jobs)
	case lf.jobs > 0:
		return (lf.tileTime + lf.mergeTime) / time.Duration(lf.jobs)
	}
	return 0
}
