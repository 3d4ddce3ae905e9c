package main

import (
	"fmt"
	"math"
	"sort"

	"mdtask/internal/graph"
	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/psa"
	"mdtask/internal/synth"
)

// reference is the expected result of one job input: a PSA matrix from
// the serial engine with the naive kernel, or a Leaflet Finder labeling
// from leaflet.Serial plus the generator's ground-truth leaflet sizes.
type reference struct {
	matrix   *psa.Matrix
	labels   []int32
	leaflets [2]int // ground-truth sizes, larger first
}

// computeReference builds the reference of a normalized spec whose
// input is in. docs/kernels.md makes every engine and kernel method
// bit-identical, so the serial naive matrix is the expected one.
func computeReference(reg *jobs.Registry, spec jobs.Spec, in *jobs.Input) (reference, error) {
	switch spec.Analysis {
	case jobs.AnalysisPSA:
		ref := spec
		ref.Engine, ref.Method, ref.Parallelism, ref.Tasks = jobs.EngineSerial, "naive", 0, 0
		res, _, err := jobs.Run(reg, ref, in)
		if err != nil {
			return reference{}, fmt.Errorf("reference: %w", err)
		}
		return reference{matrix: res.Matrix}, nil
	case jobs.AnalysisLeaflet:
		ser := leaflet.Serial(in.Coords, spec.Cutoff)
		lower, upper := synth.Bilayer(spec.Synth.Atoms, spec.Synth.Seed).CountLeaflets()
		return reference{labels: ser.Labels, leaflets: [2]int{max(lower, upper), min(lower, upper)}}, nil
	}
	return reference{}, fmt.Errorf("reference: unknown analysis %q", spec.Analysis)
}

// check compares a job result against its reference.
func (r reference) check(res *jobs.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if r.matrix != nil {
		m := res.Matrix
		if m == nil || m.N != r.matrix.N || len(m.Data) != len(r.matrix.Data) {
			return fmt.Errorf("PSA matrix missing or mis-sized")
		}
		for i, v := range m.Data {
			if math.Float64bits(v) != math.Float64bits(r.matrix.Data[i]) {
				return fmt.Errorf("PSA matrix element %d: got %v, want %v (bit-equal)", i, v, r.matrix.Data[i])
			}
		}
		return nil
	}
	if res.Leaflet == nil {
		return fmt.Errorf("no Leaflet Finder result")
	}
	if !graph.EqualLabels(res.Leaflet.Labels, r.labels) {
		return fmt.Errorf("labeling differs from leaflet.Serial")
	}
	sizes := make([]int, len(res.Leaflet.Components))
	for i, c := range res.Leaflet.Components {
		sizes[i] = len(c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) < 2 || sizes[0] != r.leaflets[0] || sizes[1] != r.leaflets[1] {
		return fmt.Errorf("two largest components %v, want leaflets %v", sizes[:min(2, len(sizes))], r.leaflets)
	}
	return nil
}
