package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mdtask/internal/jobs"
	"mdtask/internal/obs"
)

// oneShot describes a one-shot workload: one closed-loop client that
// calls jobs.Resolve then jobs.Run on a dask engine with two workers,
// cycling through a pool of seeded specs whose serial references are
// computed in set-up. README.md gives each workload's reasons.
type oneShot struct {
	name    string
	pool    int                         // distinct seeded inputs, cycled in order
	spec    func(seed uint64) jobs.Spec // the pool member for one input seed
	tailPct float64                     // nominal job_tail_ms percentile
}

const (
	engineWorkers = 2 // dask parallelism of every workload
	warmupCycles  = 1 // pool cycles run and discarded after set-up
)

var psaAtoms = oneShot{name: "psa-atoms", pool: 2, tailPct: 75, spec: func(seed uint64) jobs.Spec {
	return jobs.Spec{Analysis: jobs.AnalysisPSA, Engine: jobs.EngineDask, Parallelism: engineWorkers,
		Method: "naive", Synth: &jobs.SynthSpec{Count: 6, Atoms: 3341, Frames: 24, Seed: seed}}
}}

// Pruned work depends on the walks: one input's job time varies by
// about 10 % from seed to seed, so psa-frames cycles 5 inputs and its
// median sits inside the middle one.
var psaFrames = oneShot{name: "psa-frames", pool: 5, tailPct: 90, spec: func(seed uint64) jobs.Spec {
	return jobs.Spec{Analysis: jobs.AnalysisPSA, Engine: jobs.EngineDask, Parallelism: engineWorkers,
		Method: "pruned", Synth: &jobs.SynthSpec{Count: 16, Atoms: 64, Frames: 96, Seed: seed}}
}}

var leafletMembrane = oneShot{name: "leaflet-membrane", pool: 2, tailPct: 75, spec: func(seed uint64) jobs.Spec {
	return jobs.Spec{Analysis: jobs.AnalysisLeaflet, Engine: jobs.EngineDask, Parallelism: engineWorkers,
		Approach: "tree", Synth: &jobs.SynthSpec{Atoms: 24576, Seed: seed}}
}}

func runPSAAtoms(cfg config) (*report, error)        { return runOneShot(cfg, psaAtoms) }
func runPSAFrames(cfg config) (*report, error)       { return runOneShot(cfg, psaFrames) }
func runLeafletMembrane(cfg config) (*report, error) { return runOneShot(cfg, leafletMembrane) }

// inputSeed derives the i-th input seed of a run from its -seed
// (splitmix64), so pool members and fresh serve-mix inputs never share
// a generator stream.
func inputSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// oneShotEnv is a set-up one-shot workload.
type oneShotEnv struct {
	reg   *jobs.Registry
	specs []jobs.Spec // normalized pool
	ins   []*jobs.Input
	refs  []reference
}

// setupOneShot builds the pool, computes each member's reference (one
// goroutine per member, at most nproc) and runs the warm-up jobs.
func setupOneShot(w oneShot, seed uint64) (*oneShotEnv, error) {
	env := &oneShotEnv{reg: jobs.DefaultRegistry()}
	for i := 0; i < w.pool; i++ {
		norm, in, err := jobs.Resolve(w.spec(inputSeed(seed, i)))
		if err != nil {
			return nil, err
		}
		env.specs = append(env.specs, norm)
		env.ins = append(env.ins, in)
	}
	env.refs = make([]reference, w.pool)
	errs := make([]error, w.pool)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := range env.specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			env.refs[i], errs[i] = computeReference(env.reg, env.specs[i], env.ins[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for c := 0; c < warmupCycles; c++ {
		for i := range env.specs {
			if _, err := env.job(i, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return env, nil
}

// jobTiming is what one timed one-shot job yields.
type jobTiming struct {
	resolve, run time.Duration
	rssMB        float64 // VmHWM over the job
	snap         jobs.MetricsSnapshot
	in           *jobs.Input
	// Traced jobs only: the spans the job's tracer kept.
	spans []obs.WireSpan
}

// job runs pool member i once — jobs.Resolve then the engine run — and
// verifies the result. With a non-nil ob the run goes through the
// registry's runner with the tracer attached, under benchmark-side
// perfbench.job, perfbench.resolve and perfbench.run spans (named apart
// from the program's own job and run spans).
func (env *oneShotEnv) job(i int, ob *obs.Obs) (jobTiming, error) {
	var t jobTiming
	var root, sp *obs.Span
	if ob != nil {
		root = ob.Tracer.StartRoot("perfbench.job")
		sp = ob.Tracer.StartChild(root.Context(), "perfbench.resolve")
	}
	t0 := time.Now()
	spec, in, err := jobs.Resolve(env.specs[i])
	t1 := time.Now()
	sp.End()
	if err != nil {
		return t, err
	}
	var res *jobs.Result
	if ob == nil {
		res, t.snap, err = jobs.Run(env.reg, spec, in)
	} else {
		runSpan := ob.Tracer.StartChild(root.Context(), "perfbench.run")
		runner, ok := env.reg.Lookup(jobs.RunnerName(spec.Analysis, spec.Engine))
		if !ok {
			return t, fmt.Errorf("no runner for %s/%s", spec.Analysis, spec.Engine)
		}
		rc := jobs.NewRunContext()
		rc.SetObs(ob, runSpan.Context())
		res, err = runner(rc, spec, in)
		t.snap = jobs.SnapshotOf(rc.Metrics())
		runSpan.End()
	}
	t2 := time.Now()
	root.End()
	if err != nil {
		return t, err
	}
	t.resolve, t.run, t.in = t1.Sub(t0), t2.Sub(t1), in
	if ob != nil {
		t.spans, _ = ob.Tracer.Spans(root.Context().Trace)
	}
	if err := env.refs[i].check(res); err != nil {
		return t, errWrongResult{err}
	}
	return t, nil
}

// errWrongResult marks a job that completed with a result that does not
// match its reference.
type errWrongResult struct{ error }

// loop runs whole pool cycles until d has elapsed, calling each(t) for
// every successful job. Ending on a cycle boundary keeps per-job work
// counters exact whatever the run length.
func (env *oneShotEnv) loop(d time.Duration, rep *report, traced bool, each func(jobTiming)) time.Duration {
	start := time.Now()
	for time.Since(start) < d {
		for i := range env.specs {
			var ob *obs.Obs
			if traced {
				ob = obs.New("perfbench") // fresh per job: memory stays bounded
			}
			rep.attempted++
			if err := resetPeakRSS(); err != nil {
				rep.note("resetting VmHWM: %v", err)
			}
			t, err := env.job(i, ob)
			if err == nil {
				t.rssMB, err = peakRSSMB(0)
			}
			if err != nil {
				rep.failed++
				if _, ok := err.(errWrongResult); ok {
					rep.wrong++
				}
				rep.note("job failed: %v", err)
				continue
			}
			each(t)
		}
	}
	return time.Since(start)
}

// runOneShot sets the workload up setupsPerRun times (setup_s is the
// median), then runs the timed phase and reports. A timed phase during
// which the host probe drifted is discarded and run again.
func runOneShot(cfg config, w oneShot) (*report, error) {
	started := time.Now()
	rep := &report{}
	var env *oneShotEnv
	var setups []time.Duration
	n := setupsPerRun
	if cfg.trace {
		n = 1 // traced runs report no setup_s
	}
	for k := 0; k < n; k++ {
		env = nil
		runtime.GC() // the previous set-up's pool is garbage; don't bill it to this one
		t0 := time.Now()
		var err error
		if env, err = setupOneShot(w, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return rep, tracedOneShot(cfg, env, d, rep)
	}
	medianSetup(rep, setups)

	var lat []time.Duration
	var rss []float64
	var cpu, wall time.Duration
	for attempt := 1; ; attempt++ {
		lat, rss = nil, nil
		probe := startProbe()
		cpu0 := selfCPU()
		wall = env.loop(d, rep, false, func(t jobTiming) {
			lat = append(lat, t.resolve+t.run)
			rss = append(rss, t.rssMB)
		})
		cpu = selfCPU() - cpu0
		ok, err := steady(rep, attempt, probe.finish(), started, wall)
		if err != nil {
			return nil, err
		}
		if ok {
			break
		}
	}
	if len(lat) == 0 {
		return rep, nil
	}
	if err := addLatency(rep, lat, w.tailPct); err != nil {
		return nil, err
	}
	rep.add("jobs_per_s", "1/s", float64(len(lat))/wall.Seconds())
	rep.add("cpu_ms_per_job", "ms", ms(cpu)/float64(len(lat)))
	// The median job's peak: one job's VmHWM depends on where the
	// garbage collector happened to run, the median over a run does not.
	rep.add("peak_rss_mb", "MB", median(rss))
	return rep, nil
}

// tracedOneShot is the per-layer run: half the time untraced (layer
// timings of the public calls, engine snapshots, runtime counters), half
// with the program's tracer attached (span self times, digest cost,
// trace overhead), then single-threaded replays of the pool.
func tracedOneShot(cfg config, env *oneShotEnv, d time.Duration, rep *report) error {
	l := layers{}
	var (
		lat, resolve, run []float64
		snaps             []jobs.MetricsSnapshot
	)
	rt0, cpu0 := sampleRuntime(), selfCPU()
	env.loop(d/2, rep, false, func(t jobTiming) {
		lat = append(lat, ms(t.resolve+t.run))
		resolve = append(resolve, ms(t.resolve))
		run = append(run, ms(t.run))
		snaps = append(snaps, t.snap)
	})
	rt1, cpu := sampleRuntime(), selfCPU()-cpu0
	if len(lat) == 0 {
		return nil
	}
	nj := float64(len(lat))
	l["jobs.resolve_ms"] = mean(resolve)
	l["jobs.run_ms"] = mean(run)
	l["engine.alloc_mb_per_job"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20) / nj
	if cpu > 0 {
		l["engine.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpu.Seconds()
	}
	setSnapshotLayers(l, snaps)

	var tlat, digest, unattributed []float64
	acc := map[string]float64{}
	var last []obs.WireSpan
	env.loop(d/2, rep, true, func(t jobTiming) {
		tlat = append(tlat, ms(t.resolve+t.run))
		// Time inside jobs.Run that no program span accounts for: the
		// self time of the benchmark's perfbench.run span.
		own := map[string]float64{}
		selfTimes(fromWire(t.spans), own)
		unattributed = append(unattributed, own["perfbench.run"]/1e6)
		for n, v := range own {
			acc[n] += v
		}
		last = t.spans
		t0 := time.Now()
		if _, err := t.in.ContentDigest(); err != nil {
			rep.note("digest failed: %v", err)
		}
		digest = append(digest, ms(time.Since(t0)))
	})
	l["traj.digest_ms"] = mean(digest)
	l["jobs.unattributed_ms"] = mean(unattributed)
	if p := median(lat); p > 0 && len(tlat) > 0 {
		l["obs.trace_overhead_pct"] = (median(tlat)/p - 1) * 100
	}
	l.setSpans(acc, len(tlat))
	if len(last) > 0 {
		writeTrace(cfg, obs.ChromeTrace(last))
	}

	var pr psaReplay
	var lr leafletReplay
	var err error
	if env.specs[0].Analysis == jobs.AnalysisPSA {
		pr, err = replayPSA(env.specs, env.ins)
	} else {
		lr, err = replayLeaflet(env.specs, env.ins)
	}
	if err != nil {
		return err
	}
	pr.set(l)
	lr.set(l)
	if pr.jobs > 0 {
		l["linalg.atom_terms"] = l["hausdorff.pairs_evaluated"] * float64(pr.atoms)
	}
	if runMs := l["jobs.run_ms"]; runMs > 0 {
		l["engine.efficiency"] = ms(kernelPerJob(pr, lr)) / (runMs * engineWorkers)
	}
	l.emit(rep)
	return nil
}

// setSnapshotLayers fills the engine and hausdorff layers from the
// engine snapshots of a run's jobs (means per job).
func setSnapshotLayers(l layers, snaps []jobs.MetricsSnapshot) {
	if len(snaps) == 0 {
		return
	}
	var tasks, evald, pruned, aband, nodes, shuffled float64
	var maxTask, compute time.Duration
	for _, s := range snaps {
		tasks += float64(s.Tasks)
		evald += float64(s.PairsEvaluated)
		pruned += float64(s.PairsPruned)
		aband += float64(s.PairsAbandoned)
		nodes += float64(s.NodesVisited)
		shuffled += float64(s.BytesShuffled)
		maxTask += s.MaxTask
		compute += s.ComputeTime
	}
	n := float64(len(snaps))
	l["engine.tasks_per_job"] = tasks / n
	l["engine.task_max_ms"] = ms(maxTask) / n
	if tasks > 0 {
		l["engine.task_mean_ms"] = ms(compute) / tasks
	}
	l["engine.bytes_shuffled_per_job"] = shuffled / n
	l["hausdorff.pairs_evaluated"] = evald / n
	l["hausdorff.pairs_pruned"] = pruned / n
	l["hausdorff.pairs_abandoned"] = aband / n
	l["hausdorff.nodes_visited"] = nodes / n
	if all := evald + pruned + aband; all > 0 {
		l["hausdorff.eval_frac"] = evald / all
	}
}
