package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// The host-speed probe times a fixed serial kernel while a timed phase
// runs, so a run measured while the host's cores changed speed is
// caught instead of being reported as a change in the program. The
// kernel is the benchmark's own (a dRMS-style sum over fixed
// coordinates), not program code: no change to the program changes
// what it measures, and its times can be compared between runs and
// builds on one host.
const (
	probeAtoms  = 3341 // the paper's "small" system
	probeFrames = 4
	probeReps   = 12 // kernel passes over every frame pair: 1 to 2 ms
	// probeEvery spaces the samples. At 1 to 2 ms a sample the probe
	// takes under 1 % of one CPU.
	probeEvery = 200 * time.Millisecond
	// maxProbeDrift is the largest relative difference allowed between
	// the median probe time of a timed phase's first and second halves.
	// Beyond it the phase is discarded and measured again.
	maxProbeDrift = 0.25
	// runBudget bounds a run's wall time. A discarded phase is measured
	// again only if, judging by the last phase's length, the new one
	// ends within runBudget of the run's start; otherwise the run is
	// refused: it exits non-zero without a result. A run may take 180 s.
	runBudget = 150 * time.Second
)

// probeCoords is the probe's fixed input: probeFrames frames of
// probeAtoms atoms, from a fixed xorshift stream.
var probeCoords = func() []float64 {
	x := uint64(0x9E3779B97F4A7C15)
	c := make([]float64, probeFrames*probeAtoms*3)
	for i := range c {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c[i] = float64(x%20000) / 1000
	}
	return c
}()

// probeSink keeps the kernel's result alive.
var probeSink float64

// probeKernel runs the fixed kernel once and returns its wall time.
func probeKernel() time.Duration {
	n := probeAtoms * 3
	t0 := time.Now()
	var acc float64
	for r := 0; r < probeReps; r++ {
		for i := 0; i < probeFrames; i++ {
			a := probeCoords[i*n : (i+1)*n]
			for j := 0; j < probeFrames; j++ {
				b := probeCoords[j*n : (j+1)*n]
				var s float64
				for k := 0; k < n; k += 3 {
					dx, dy, dz := a[k]-b[k], a[k+1]-b[k+1], a[k+2]-b[k+2]
					s += dx*dx + dy*dy + dz*dz
				}
				acc += math.Sqrt(s / probeAtoms)
			}
		}
	}
	d := time.Since(t0)
	probeSink += acc
	return d
}

// hostProbe samples probeKernel every probeEvery on its own OS thread
// until finish is called.
type hostProbe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // ms
}

func startProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.samples = append(p.samples, ms(probeKernel()))
			}
		}
	}()
	return p
}

// probeResult is one timed phase's probe record.
type probeResult struct {
	first, second float64 // median probe time of each half, ms
	n             int     // samples
}

// drift is the relative difference between the halves' medians.
func (r probeResult) drift() float64 {
	lo, hi := min(r.first, r.second), max(r.first, r.second)
	if lo <= 0 {
		return 0
	}
	return hi/lo - 1
}

func (r probeResult) String() string {
	return fmt.Sprintf("host probe: median %.3f ms in the first half, %.3f ms in the second (%d samples, drift %.2f, limit %.2f)",
		r.first, r.second, r.n, r.drift(), maxProbeDrift)
}

// finish stops the sampler and summarizes the halves.
func (p *hostProbe) finish() probeResult {
	close(p.stop)
	<-p.done
	h := len(p.samples) / 2
	return probeResult{first: median(p.samples[:h]), second: median(p.samples[h:]), n: len(p.samples)}
}

// steady records a timed phase's probe in the report and says whether
// the phase may be kept. A drifting phase is discarded; when no further
// phase fits in the run budget, the run is refused with an error.
// started is when the run began, phase how long the last phase took.
func steady(rep *report, attempt int, pr probeResult, started time.Time, phase time.Duration) (bool, error) {
	rep.note("attempt %d %v", attempt, pr)
	if pr.drift() <= maxProbeDrift {
		return true, nil
	}
	if time.Since(started)+phase > runBudget {
		return false, fmt.Errorf("host speed changed during each of %d timed phases (last: %v) and another would end past the %v run budget; refusing to report", attempt, pr, runBudget)
	}
	rep.note("attempt %d discarded: the host changed speed during it", attempt)
	return false, nil
}
