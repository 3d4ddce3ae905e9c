package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mdtask/internal/jobs"
	"mdtask/internal/loadgen"
)

// serve-mix: a cmd/mdserver child with a durable journal, driven over
// loopback by mixClients closed-loop clients submitting a seeded mix
// of job classes. README.md gives the reasons for each number here.
const (
	mixClients = 2

	// PSA jobs of every class: 6 walk trajectories of the paper's
	// "small" atom count; deltas add a seventh.
	mixTrajs  = 6
	mixAtoms  = 3341
	mixFrames = 12
	// Delta bases and their resubmissions use one-trajectory blocks, so
	// a delta shares every block between base trajectories with its
	// base. The whole-job key still differs (tasks is part of it).
	mixBaseTasks  = mixTrajs * mixTrajs
	mixDeltaTasks = (mixTrajs + 1) * (mixTrajs + 1)

	mixLeafletAtoms = 16384

	mixHitPool = 2 // primed specs the hit class resubmits, in turn

	// One round's class mix. A timed run always ends on a round
	// boundary, so every per-job work counter is exact.
	mixRoundHit     = 14
	mixRoundCold    = 2
	mixRoundDelta   = 1
	mixRoundLeaflet = 3
	mixRoundSize    = mixRoundHit + mixRoundCold + mixRoundDelta + mixRoundLeaflet
	// Rounds planned per second of the timed phase: about twice the
	// rate measured on a 2-CPU host, whose fast phases reached 2 rounds
	// a second. It bounds the delta bases primed in set-up.
	mixMaxRoundsPerSecond = 3

	// While a job runs the client polls its status after 1 ms, then
	// doubles the wait up to 8 ms: short jobs are seen promptly, and
	// the polls of long ones cost the server little CPU.
	mixPollMin = time.Millisecond
	mixPollMax = 8 * time.Millisecond

	mixTailPct = 95 // nominal job_tail_ms percentile

	// peak_rss_mb reads mdserver's VmHWM after this many timed jobs
	// (15 rounds), a little over half of a 20-second phase.
	mixRSSJobs = 15 * mixRoundSize
)

// mixClass names one job class of the mix.
type mixClass string

const (
	classHit     mixClass = "hit"
	classCold    mixClass = "cold"
	classDelta   mixClass = "delta"
	classLeaflet mixClass = "leaflet"
)

// mixJob is one planned submission.
type mixJob struct {
	class mixClass
	spec  jobs.Spec
	hit   int // classHit: index into the primed hit pool
}

func mixPSASpec(seed uint64, count, tasks int) jobs.Spec {
	return jobs.Spec{Analysis: jobs.AnalysisPSA, Engine: jobs.EngineDask, Parallelism: engineWorkers,
		Tasks: tasks, Method: "naive",
		Synth: &jobs.SynthSpec{Count: count, Atoms: mixAtoms, Frames: mixFrames, Seed: seed}}
}

func mixLeafletSpec(seed uint64) jobs.Spec {
	return jobs.Spec{Analysis: jobs.AnalysisLeaflet, Engine: jobs.EngineDask, Parallelism: engineWorkers,
		Approach: "tree", Synth: &jobs.SynthSpec{Atoms: mixLeafletAtoms, Seed: seed}}
}

// Seed-index ranges that keep every generated input of a run distinct.
const (
	seedHit     = 0
	seedBase    = 1_000
	seedCold    = 100_000
	seedLeaflet = 200_000
	seedWarmup  = 300_000
)

// mixPlan is a run's seeded job sequence plus what set-up must prime.
type mixPlan struct {
	hits  []jobs.Spec // primed whole-job entries
	bases []jobs.Spec // primed delta bases, one per planned delta
	jobs  []mixJob
}

func newMixPlan(seed uint64, rounds int) mixPlan {
	var p mixPlan
	for i := 0; i < mixHitPool; i++ {
		p.hits = append(p.hits, mixPSASpec(inputSeed(seed, seedHit+i), mixTrajs, 0))
	}
	rng := rand.New(rand.NewSource(int64(inputSeed(seed, -1))))
	var nHit, nCold, nDelta, nLeaf int
	for r := 0; r < rounds; r++ {
		round := make([]mixJob, 0, mixRoundSize)
		for i := 0; i < mixRoundHit; i++ {
			round = append(round, mixJob{class: classHit, spec: p.hits[nHit%mixHitPool], hit: nHit % mixHitPool})
			nHit++
		}
		for i := 0; i < mixRoundCold; i++ {
			round = append(round, mixJob{class: classCold, spec: mixPSASpec(inputSeed(seed, seedCold+nCold), mixTrajs, 0)})
			nCold++
		}
		for i := 0; i < mixRoundDelta; i++ {
			s := inputSeed(seed, seedBase+nDelta)
			p.bases = append(p.bases, mixPSASpec(s, mixTrajs, mixBaseTasks))
			round = append(round, mixJob{class: classDelta, spec: mixPSASpec(s, mixTrajs+1, mixDeltaTasks)})
			nDelta++
		}
		for i := 0; i < mixRoundLeaflet; i++ {
			round = append(round, mixJob{class: classLeaflet, spec: mixLeafletSpec(inputSeed(seed, seedLeaflet+nLeaf))})
			nLeaf++
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		p.jobs = append(p.jobs, round...)
	}
	return p
}

// mdserver is a running cmd/mdserver child.
type mdserver struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
}

// startServer launches mdserver on a free loopback port with a fresh
// data directory and waits until it answers /healthz.
func startServer(cfg config, dir string, trace bool) (*mdserver, error) {
	if cfg.mdserver == "" {
		return nil, errors.New("serve-mix needs -mdserver (run.sh passes the one it builds)")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(dir, "mdserver.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	traceFlag := "off"
	if trace {
		traceFlag = "on"
	}
	cmd := exec.Command(cfg.mdserver, "-addr", addr, "-data-dir", filepath.Join(dir, "data"),
		"-workers", fmt.Sprint(engineWorkers), "-trace", traceFlag)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the kernel kills the
	// server too, so no run leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mdserver: %w", err)
	}
	s := &mdserver{cmd: cmd, base: "http://" + addr, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * mixClients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := s.hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mdserver at %s never became healthy (see %s)", addr, logf.Name())
		}
	}
}

// stop terminates the child and waits for it to exit.
func (s *mdserver) stop() {
	if s == nil {
		return
	}
	s.hc.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

func (s *mdserver) pid() int { return s.cmd.Process.Pid }

func (s *mdserver) get(path string) ([]byte, int, error) {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// prom scrapes /metrics.
func (s *mdserver) prom() (loadgen.PromMetrics, error) {
	b, code, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", code)
	}
	return loadgen.ParseProm(bytes.NewReader(b))
}

// mixResult is one submission's outcome, timed by the client.
type mixResult struct {
	job            mixJob
	e2e            time.Duration // POST sent → last result byte read
	submit, result time.Duration // POST round trip; GET result round trip
	status         jobs.Status   // terminal status
	body           []byte        // result JSON
	err            error
}

// submit runs one job to completion: POST the spec, poll its status
// until terminal, read the result.
func (s *mdserver) submit(j mixJob) mixResult {
	r := mixResult{job: j}
	body, err := json.Marshal(j.spec)
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	resp, err := s.hc.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.submit = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("submit answered %d: %s %v", resp.StatusCode, bytes.TrimSpace(b), err)
		return r
	}
	if err := json.Unmarshal(b, &r.status); err != nil {
		r.err = fmt.Errorf("decoding submit status: %w", err)
		return r
	}
	for wait := mixPollMin; !r.status.State.Terminal(); wait = min(2*wait, mixPollMax) {
		time.Sleep(wait)
		b, code, err := s.get("/v1/jobs/" + r.status.ID)
		if err != nil || code != http.StatusOK {
			r.err = fmt.Errorf("polling %s: %d %v", r.status.ID, code, err)
			return r
		}
		if err := json.Unmarshal(b, &r.status); err != nil {
			r.err = fmt.Errorf("decoding status: %w", err)
			return r
		}
	}
	if r.status.State != jobs.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", r.status.ID, r.status.State, r.status.Error)
		return r
	}
	t2 := time.Now()
	b, code, err := s.get("/v1/jobs/" + r.status.ID + "/result")
	t3 := time.Now()
	if err != nil || code != http.StatusOK {
		r.err = fmt.Errorf("result of %s: %d %v", r.status.ID, code, err)
		return r
	}
	r.body, r.result, r.e2e = b, t3.Sub(t2), t3.Sub(t0)
	return r
}

// runAll submits js over mixClients closed-loop clients. With a
// deadline it stops handing out jobs at the first round boundary after
// the deadline; without one it runs every job. A non-nil atRSSJobs runs
// once, when the mixRSSJobs-th job has completed.
func (s *mdserver) runAll(js []mixJob, deadline time.Time, atRSSJobs func()) []mixResult {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		out     = make([]mixResult, 0, len(js))
		wg      sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !deadline.IsZero() && next%mixRoundSize == 0 && time.Now().After(deadline) {
			stopped = true
		}
		if stopped || next >= len(js) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				r := s.submit(js[i])
				mu.Lock()
				out = append(out, r)
				done := len(out)
				mu.Unlock()
				if done == mixRSSJobs && atRSSJobs != nil {
					atRSSJobs()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// mixEnv is a set-up serve-mix run: the server, the plan, and the
// references of the primed hit specs.
type mixEnv struct {
	srv     *mdserver
	plan    mixPlan
	hitRefs []reference
}

// setupServeMix starts a server, primes the hit pool and one delta base
// per planned delta, checks the primed hits against serial references,
// and runs one warm-up job of each class.
func setupServeMix(cfg config, dir string, rounds int, trace bool) (*mixEnv, error) {
	srv, err := startServer(cfg, dir, trace)
	if err != nil {
		return nil, err
	}
	env := &mixEnv{srv: srv, plan: newMixPlan(cfg.seed, rounds)}
	fail := func(err error) (*mixEnv, error) {
		srv.stop()
		return nil, err
	}
	reg := jobs.DefaultRegistry()
	env.hitRefs = make([]reference, len(env.plan.hits))
	for i, spec := range env.plan.hits {
		norm, in, err := jobs.Resolve(spec)
		if err != nil {
			return fail(err)
		}
		if env.hitRefs[i], err = computeReference(reg, norm, in); err != nil {
			return fail(err)
		}
	}
	var prime []mixJob
	for i, spec := range env.plan.hits {
		prime = append(prime, mixJob{class: classHit, spec: spec, hit: i})
	}
	for _, spec := range env.plan.bases {
		prime = append(prime, mixJob{class: classCold, spec: spec})
	}
	for _, r := range srv.runAll(prime, time.Time{}, nil) {
		if r.err != nil {
			return fail(fmt.Errorf("priming: %w", r.err))
		}
		if r.job.class == classHit {
			if err := checkMixResult(r, env.hitRefs[r.job.hit]); err != nil {
				return fail(fmt.Errorf("priming: %w", err))
			}
		}
	}
	ws := inputSeed(cfg.seed, seedWarmup)
	warm := []mixJob{
		{class: classHit, spec: env.plan.hits[0]},
		{class: classCold, spec: mixPSASpec(ws, mixTrajs, 0)},
		{class: classLeaflet, spec: mixLeafletSpec(ws)},
	}
	for _, r := range srv.runAll(warm, time.Time{}, nil) {
		if r.err != nil {
			return fail(fmt.Errorf("warm-up: %w", r.err))
		}
	}
	return env, nil
}

// checkMixResult decodes a result body and checks it.
func checkMixResult(r mixResult, ref reference) error {
	var res jobs.Result
	if err := json.Unmarshal(r.body, &res); err != nil {
		return fmt.Errorf("job %s: decoding result: %w", r.status.ID, err)
	}
	if err := ref.check(&res); err != nil {
		return fmt.Errorf("job %s (%s): %w", r.status.ID, r.job.class, err)
	}
	return nil
}

// verifyMix checks every completed job after the timed phase: hits
// against the primed references, every other job against a reference
// computed now from its spec, on up to nproc goroutines.
func verifyMix(env *mixEnv, results []mixResult, rep *report) {
	reg := jobs.DefaultRegistry()
	errs := make([]error, len(results))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, r := range results {
		if r.err != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, r mixResult) {
			defer wg.Done()
			defer func() { <-sem }()
			ref := reference{}
			if r.job.class == classHit {
				ref = env.hitRefs[r.job.hit]
			} else {
				norm, in, err := jobs.Resolve(r.job.spec)
				if err == nil {
					ref, err = computeReference(reg, norm, in)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
			errs[i] = checkMixResult(r, ref)
		}(i, r)
	}
	wg.Wait()
	for i, r := range results {
		rep.attempted++
		switch {
		case r.err != nil:
			rep.failed++
			rep.note("job failed: %v", r.err)
		case errs[i] != nil:
			rep.failed++
			rep.wrong++
			rep.note("wrong result: %v", errs[i])
		}
	}
}

// mixRounds is the plan length: enough rounds that the run never
// exhausts it, so every delta base it primes is one the run may use.
func mixRounds(seconds int) int { return seconds*mixMaxRoundsPerSecond + 1 }

// timedMix runs the timed phase. Besides the results it returns the
// server's CPU time over the phase, the phase's wall time, and the
// server's VmHWM once mixRSSJobs jobs have completed (or at the end of
// a shorter phase): the server's footprint grows with what it caches,
// so reading it at a fixed amount of work keeps a faster server, which
// completes more jobs in the phase, from being charged for caching
// them.
func timedMix(env *mixEnv, d time.Duration) (results []mixResult, cpu, wall time.Duration, rssMB float64, err error) {
	pid := env.srv.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	var rssErr error
	readRSS := func() { rssMB, rssErr = peakRSSMB(pid) }
	start := time.Now()
	results = env.srv.runAll(env.plan.jobs, start.Add(d), readRSS)
	wall = time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if len(results) < mixRSSJobs {
		readRSS()
	}
	if rssErr != nil {
		return nil, 0, 0, 0, rssErr
	}
	return results, cpu1 - cpu0, wall, rssMB, nil
}

func runServeMix(cfg config) (*report, error) {
	started := time.Now()
	rep := &report{}
	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return rep, tracedServeMix(cfg, d, rep)
	}
	rounds := mixRounds(cfg.seconds)
	var env *mixEnv
	var setups []time.Duration
	defer func() { env.stop() }()
	for k := 0; k < setupsPerRun; k++ {
		env.stop()
		env = nil
		t0 := time.Now()
		var err error
		if env, err = setupServeMix(cfg, filepath.Join(cfg.workdir, fmt.Sprintf("serve-%d", k)), rounds, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	medianSetup(rep, setups)

	var (
		results   []mixResult
		cpu, wall time.Duration
		rss       float64
	)
	for attempt := 1; ; attempt++ {
		phaseStart := time.Now()
		if attempt > 1 {
			// The discarded phase used up delta bases and cached its cold
			// jobs: measure again against a fresh server. This set-up is
			// not part of setup_s.
			env.stop()
			var err error
			env, err = setupServeMix(cfg, filepath.Join(cfg.workdir, fmt.Sprintf("serve-retry-%d", attempt)), rounds, false)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		probe := startProbe()
		var err error
		results, cpu, wall, rss, err = timedMix(env, d)
		pr := probe.finish()
		if err != nil {
			return nil, err
		}
		if len(results) == len(env.plan.jobs) {
			rep.note("the plan ran out after %v, before the %v timed phase ended", wall, d)
		}
		verifyMix(env, results, rep)
		// The next phase repeats this one's set-up, timed phase and
		// verification.
		ok, err := steady(rep, attempt, pr, started, time.Since(phaseStart))
		if err != nil {
			return nil, err
		}
		if ok {
			break
		}
	}
	var lat []time.Duration
	for _, r := range results {
		if r.err == nil {
			lat = append(lat, r.e2e)
		}
	}
	if len(lat) == 0 {
		return rep, nil
	}
	if err := addLatency(rep, lat, mixTailPct); err != nil {
		return nil, err
	}
	noteClasses(rep, results)
	rep.add("jobs_per_s", "1/s", float64(len(lat))/wall.Seconds())
	rep.add("cpu_ms_per_job", "ms", ms(cpu)/float64(len(lat)))
	rep.add("peak_rss_mb", "MB", rss)
	return rep, nil
}

func (env *mixEnv) stop() {
	if env != nil {
		env.srv.stop()
	}
}

// noteClasses prints each class's share and latency quartiles, so the
// report shows which class the median and the tail fall in.
func noteClasses(rep *report, results []mixResult) {
	by := map[mixClass][]float64{}
	for _, r := range results {
		if r.err == nil {
			by[r.job.class] = append(by[r.job.class], ms(r.e2e))
		}
	}
	for _, c := range []mixClass{classHit, classDelta, classCold, classLeaflet} {
		xs := by[c]
		sort.Float64s(xs)
		if len(xs) == 0 {
			continue
		}
		rep.note("class %-7s n=%4d  min %.1f  p50 %.1f  max %.1f ms", c, len(xs), xs[0], median(xs), xs[len(xs)-1])
	}
}
